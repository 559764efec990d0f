"""Hand-worked cases for the benchmark's own checkers.

    python3 -m pytest perfbench/test_checks.py
"""

from fractions import Fraction

import numpy as np
import pytest

import checks


def test_pareto_filter_drops_dominated_points_and_duplicates():
    points = [(1.0, 1.0), (0.5, 0.5), (0.5, 1.0), (0.2, 0.1), (0.2, 0.1), (0.1, 0.1)]
    # (0.5, 1.0) loses to (1.0, 1.0) on perf at equal cost; (0.1, 0.1) to (0.2, 0.1)
    assert checks.pareto_filter(points) == [(0.2, 0.1), (0.5, 0.5), (1.0, 1.0)]


def test_hypervolume_of_two_rectangles():
    # [1, 2] x [0, 1] has area 1, [0.5, 2] x [0, 0.5] has 0.75, they share 0.5
    assert checks.hypervolume([(1.0, 1.0), (0.5, 0.5)], ref=(0.0, 2.0)) == pytest.approx(1.25)
    # a dominated point adds nothing; a point that does not beat ref is dropped
    assert checks.hypervolume([(1.0, 1.0), (0.5, 1.5), (0.5, 3.0)], ref=(0.0, 2.0)) == pytest.approx(1.0)
    assert checks.hypervolume([], ref=(0.0, 2.0)) == 0.0


def test_member_points_normalize_cost_over_executed_members():
    members = [
        {"stats": {"exec_count": 2, "mean_cost": 4.0, "mean_perf": 0.5}},
        {"stats": {"exec_count": 1, "mean_cost": 1.0, "mean_perf": 1.0}},
        {"stats": {"exec_count": 0, "mean_cost": 0.0, "mean_perf": 0.0}},
    ]
    assert checks.member_points(members) == [(0.5, 1.0), (1.0, 0.25)]


def test_single_sink_dag():
    assert checks.is_single_sink_dag(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert not checks.is_single_sink_dag(["a", "b", "c"], [("a", "b")])  # b and c are sinks
    assert not checks.is_single_sink_dag(["a", "b"], [("a", "b"), ("b", "a")])  # cycle
    assert not checks.is_single_sink_dag(["a"], [("a", "z")])  # unknown operator
    assert checks.is_single_sink_dag(["a"], [])


def _member(wid, tags=5, model="tiny", edges=(("op0", "op1"),)):
    return {
        "workflow_id": wid,
        "operators": [
            {"op_id": f"op{i}", "kind": "CoT", "params": {}, "invoking_nodes": [{"model_id": model}]}
            for i in range(2)
        ],
        "inter_edges": [list(e) for e in edges],
        "tags": [f"t{i}" for i in range(tags)],
        "stats": {"exec_count": 1, "mean_cost": 1.0, "mean_perf": 1.0},
    }


def test_population_errors():
    good = [_member("a"), _member("b")]
    assert checks.population_errors(good, 2, 5, ["tiny"]) == []
    assert len(checks.population_errors([_member("a"), _member("a")], 2, 5, ["tiny"])) == 1
    bad = [_member("a", tags=4), _member("b", model="huge", edges=())]
    errors = checks.population_errors(bad, 2, 5, ["tiny"])
    assert any("4 tags" in e for e in errors)
    assert any("not a single-sink DAG" in e for e in errors)
    assert any("huge" in e for e in errors)


def test_step_log_errors():
    def line(gen, offspring, eliminated, accepted):
        return {"generation": gen, "offspring_id": offspring, "eliminated_id": eliminated,
                "accepted": accepted, "evaluations": {"o": {}, "x": {}}}

    assert checks.step_log_errors([line(1, "o", "x", True), line(2, "o", "o", False)]) == []
    errors = checks.step_log_errors([line(1, "o", "x", False), line(3, "o", "y", True)])
    assert len(errors) == 3  # acceptance flag, generation gap, unevaluated elimination


@pytest.mark.parametrize(
    "expression, value",
    [
        ("7", 7),
        ("((3 * 4) - (5 + 6))", 1),
        ("(2 - (3 * 4))", -10),
        ("1 + 2 * 3", 7),
        ("(1 / 3) * 3", 1),
        ("((9 * 9) * (9 * 9)) * ((9 * 9) * (9 * 9))", 43046721),
    ],
)
def test_exact_value(expression, value):
    assert checks.exact_value(expression) == value


def test_exact_value_rejects_malformed_text():
    for text in ("(1 + 2", "1 +", "2 ** 3", "abs(1)"):
        with pytest.raises(ValueError):
            checks.exact_value(text)


def test_parse_query_and_final_number():
    text = "Compute the value of ((1 + 2) * 3). [[TASK id=easy-0001 domain=easy gold=9]]"
    assert checks.parse_query(text) == ("((1 + 2) * 3)", "9")
    assert checks.final_number("Working through the problem, the final answer is 42.") == 42
    assert checks.final_number("step 1 gives 3, so the answer is -7.") == -7
    assert checks.final_number("a half is 1/2") == Fraction(1, 2)
    assert checks.final_number("about 1.5 units") == Fraction(3, 2)
    assert checks.final_number("no figures here") is None


def test_hashed_trigrams_are_unit_and_deterministic():
    a = checks.hashed_trigrams("Debate reasoning", 64)
    assert np.linalg.norm(a) == pytest.approx(1.0)
    assert np.array_equal(a, checks.hashed_trigrams("debate   REASONING ", 64))
    b = checks.hashed_trigrams("!!!", 64)  # no word: one hashed bucket
    assert np.count_nonzero(b) == 1 and b.max() == 1.0


def test_argmax_breaks_ties_by_cost_then_id():
    members = [_member("b"), _member("a"), _member("c")]
    members[0]["stats"]["mean_cost"] = 0.5
    members[2]["tags"] = ["quantum chromodynamics"] * 5
    retrieval = checks.Retrieval(members, 4096)
    sims = retrieval.similarities("t0 t1 t2")
    assert sims["a"] == sims["b"] > sims["c"]
    assert retrieval.argmax(sims) == "b"  # same tags as a, lower cost
    members[0]["stats"]["mean_cost"] = 1.0
    assert retrieval.argmax(sims) == "a"  # full tie: lower id
    assert retrieval.argmax(sims, ["c"]) == "c"
    assert retrieval.affordable(0.9) == [] and retrieval.cheapest() == "a"


def test_call_bounds():
    def op(kind, nodes, **params):
        return {"kind": kind, "params": params, "invoking_nodes": [{}] * nodes}

    assert checks.call_bounds({"operators": [op("CoT", 1)]}) == (1, 1)
    assert checks.call_bounds({"operators": [op("Debate", 4, rounds=2)]}) == (7, 7)
    assert checks.call_bounds({"operators": [op("SelfRefine", 2, max_iterations=5)]}) == (2, 11)
    assert checks.call_bounds({"operators": [op("ReAct", 1, max_iterations=5)]}) == (1, 5)
    assert checks.call_bounds({"operators": [op("SelfConsistency", 1, samples=5)]}) == (5, 5)
    chain = [op("Ensemble", 4), op("ExpertPrompt", 2), op("Custom", 3)]
    assert checks.call_bounds({"operators": chain}) == (9, 9)
