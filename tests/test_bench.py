import dataclasses

import numpy as np
import pytest

from nicheflow.bench import (
    POP_HV_REF,
    DomainSpec,
    call_count_tier,
    export_front,
    front_table,
    generate_suite,
    hypervolume,
    interleave_tasks,
    nominal_call_count,
    pareto_front,
    population_hypervolume,
    population_points,
)
from nicheflow.errors import ConfigError, InvalidInput
from nicheflow.evolution import ObjectivePoint, Population, dominates
from nicheflow.executor import _Caller
from nicheflow.genome import RunStats
from nicheflow.operators import OPERATORS, run_operator
from nicheflow.provider import parse_task_envelope

from conftest import ScriptedProvider, build_genome


def oracle_front(points):
    pts = sorted(set(points), key=lambda p: (p.cost, -p.perf))
    return [p for p in pts if not any(dominates(q, p) for q in pts if q != p)]


# --- synthetic suite -----------------------------------------------------------

def test_domain_spec_validates_difficulty():
    with pytest.raises(ConfigError):
        DomainSpec("d", difficulty=1.5)


def test_generate_suite_is_deterministic_and_enveloped():
    domains = [DomainSpec("easy", 0.2), DomainSpec("hard", 0.8)]
    s1 = generate_suite(domains, tasks_per_domain=10, seed=3)
    s2 = generate_suite(domains, tasks_per_domain=10, seed=3)
    assert [t.text for t in s1.tasks] == [t.text for t in s2.tasks]
    assert len(s1.tasks) == 20
    for t in s1.tasks:
        env = parse_task_envelope(t.text)
        assert env == (t.query_id, t.domain, t.gold)
        assert t.metric == "numeric"


def test_generate_suite_seed_changes_tasks():
    domains = [DomainSpec("easy", 0.5)]
    s1 = generate_suite(domains, tasks_per_domain=10, seed=1)
    s2 = generate_suite(domains, tasks_per_domain=10, seed=2)
    assert [t.text for t in s1.tasks] != [t.text for t in s2.tasks]


def test_generate_suite_golds_match_python_eval():
    suite = generate_suite([DomainSpec("hard", 1.0)], tasks_per_domain=25, seed=9)
    for t in suite.tasks:
        expr = t.text.split("Compute the value of ", 1)[1].split(". [[TASK")[0]
        assert float(t.gold) == float(eval(expr))  # noqa: S307 - oracle on generated input


def test_generate_suite_zero_difficulty_is_a_literal():
    suite = generate_suite([DomainSpec("trivial", 0.0)], tasks_per_domain=5, seed=0)
    for t in suite.tasks:
        assert t.gold.isdigit()
        expr = t.text.split("Compute the value of ", 1)[1].split(". [[TASK")[0]
        assert expr == t.gold


def test_generate_suite_requires_domains():
    with pytest.raises(ConfigError):
        generate_suite([], tasks_per_domain=5, seed=0)


def test_interleave_tasks_round_robins_domains():
    domains = [DomainSpec("a", 0.1), DomainSpec("b", 0.1)]
    suite = generate_suite(domains, tasks_per_domain=3, seed=0)
    stream = interleave_tasks(suite)
    assert [t.domain for t in stream] == ["a", "b", "a", "b", "a", "b"]


# --- pareto front -----------------------------------------------------------------

def test_pareto_front_simple_example():
    pts = [
        ObjectivePoint(0.9, 2.0),
        ObjectivePoint(0.5, 0.5),
        ObjectivePoint(0.4, 1.0),   # dominated by (0.5, 0.5)
        ObjectivePoint(0.9, 3.0),   # dominated by (0.9, 2.0)
    ]
    front = pareto_front(pts)
    assert front == [ObjectivePoint(0.5, 0.5), ObjectivePoint(0.9, 2.0)]


def test_pareto_front_collapses_duplicates():
    p = ObjectivePoint(0.5, 1.0)
    assert pareto_front([p, p, p]) == [p]


def test_pareto_front_matches_oracle_random():
    rng = np.random.default_rng(20)
    for _ in range(100):
        pts = [
            ObjectivePoint(float(rng.integers(0, 6)) / 5, float(rng.integers(0, 6)))
            for _ in range(int(rng.integers(1, 20)))
        ]
        assert pareto_front(pts) == oracle_front(pts)


def test_pareto_front_is_sorted_and_mutually_nondominated():
    rng = np.random.default_rng(21)
    pts = [ObjectivePoint(float(rng.random()), float(rng.random() * 3)) for _ in range(50)]
    front = pareto_front(pts)
    costs = [p.cost for p in front]
    perfs = [p.perf for p in front]
    assert costs == sorted(costs)
    assert perfs == sorted(perfs)  # on a 2-D front, ascending cost => ascending perf
    for a in front:
        for b in front:
            assert a == b or not dominates(a, b)


# --- hypervolume --------------------------------------------------------------------

REF = ObjectivePoint(0.0, 1.0)


def test_hypervolume_single_point_rectangle():
    assert hypervolume([ObjectivePoint(0.5, 0.2)], REF) == pytest.approx(0.5 * 0.8)
    assert hypervolume([ObjectivePoint(1.0, 0.0)], REF) == pytest.approx(1.0)


def test_hypervolume_two_point_staircase():
    front = [ObjectivePoint(0.4, 0.1), ObjectivePoint(0.9, 0.6)]
    # area = (0.6-0.1)*0.4 + (1.0-0.6)*0.9
    assert hypervolume(front, REF) == pytest.approx(0.5 * 0.4 + 0.4 * 0.9)


def test_hypervolume_empty_front_is_zero():
    assert hypervolume([], REF) == 0.0


def test_hypervolume_rejects_points_not_dominating_ref():
    with pytest.raises(InvalidInput):
        hypervolume([ObjectivePoint(0.0, 1.0)], REF)  # equal to ref: no strict gain
    with pytest.raises(InvalidInput):
        hypervolume([ObjectivePoint(0.5, 2.0)], REF)  # costlier than ref


def test_hypervolume_ignores_dominated_inputs():
    front = [ObjectivePoint(0.9, 0.6), ObjectivePoint(0.4, 0.7)]
    assert hypervolume(front, REF) == pytest.approx(hypervolume(front[:1], REF))


def test_hypervolume_monotone_under_improvement():
    base = [ObjectivePoint(0.5, 0.5)]
    better = [ObjectivePoint(0.7, 0.5)]
    cheaper = [ObjectivePoint(0.5, 0.3)]
    assert hypervolume(better, REF) > hypervolume(base, REF)
    assert hypervolume(cheaper, REF) > hypervolume(base, REF)


def test_hypervolume_matches_monte_carlo():
    rng = np.random.default_rng(22)
    front = pareto_front(
        [ObjectivePoint(float(rng.random()), float(rng.random())) for _ in range(12)]
    )
    front = [p for p in front if dominates(p, REF)]
    exact = hypervolume(front, REF)
    samples = rng.random((200_000, 2))
    hit = 0
    for perf, cost in samples:
        if any(p.perf >= perf and p.cost <= cost for p in front):
            hit += 1
    assert exact == pytest.approx(hit / len(samples), abs=1e-2)


# --- population metrics ----------------------------------------------------------------

def _member(wid, perf, cost, n=1):
    g = build_genome()
    return dataclasses.replace(
        g, workflow_id=wid, stats=RunStats(exec_count=n, mean_cost=cost, mean_perf=perf)
    )


def test_population_points_normalizes_by_max_cost():
    pop = Population(members=[
        _member("a", 0.8, 4.0),
        _member("b", 0.4, 1.0),
        _member("fresh", 0.0, 0.0, n=0),  # never executed: excluded
    ])
    pts = population_points(pop)
    assert set(pts) == {"a", "b"}
    assert pts["a"] == ObjectivePoint(0.8, 1.0)
    assert pts["b"] == ObjectivePoint(0.4, 0.25)


def test_population_hypervolume_increases_with_better_members():
    low = Population(members=[_member("a", 0.2, 1.0), _member("b", 0.1, 0.5)])
    high = Population(members=[_member("a", 0.9, 1.0), _member("b", 0.7, 0.5)])
    assert population_hypervolume(high) > population_hypervolume(low)
    assert population_hypervolume(Population(members=[])) == 0.0


def test_population_hypervolume_uses_default_ref():
    pop = Population(members=[_member("a", 1.0, 2.0)])
    # single executed member sits at normalized (1.0, 1.0)
    expected = (1.0 - POP_HV_REF.perf) * (POP_HV_REF.cost - 1.0)
    assert population_hypervolume(pop) == pytest.approx(expected)


def test_front_table_and_export(tmp_path):
    pop = Population(members=[
        _member("aa", 0.8, 2.0),
        _member("bb", 0.4, 0.5),
        _member("cc", 0.3, 1.0),  # dominated by bb
    ])
    rows = front_table(pop)
    flags = {r["workflow_id"]: r["on_front"] for r in rows}
    assert flags == {"aa": 1, "bb": 1, "cc": 0}
    path = export_front(pop, tmp_path / "front.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "workflow_id,perf,cost,on_front"
    assert len(lines) == 4


# --- complexity tiers -------------------------------------------------------------------

def test_nominal_call_count_table(pool):
    assert nominal_call_count(build_genome(kinds=("CoT",))) == 1
    assert nominal_call_count(build_genome(kinds=("StepBack",))) == 2
    assert nominal_call_count(build_genome(kinds=("Debate",))) == 7
    assert nominal_call_count(build_genome(kinds=("SelfConsistency",))) == 5
    assert nominal_call_count(build_genome(kinds=("Ensemble",))) == 4
    assert nominal_call_count(build_genome(kinds=("ExpertPrompt",))) == 2
    assert nominal_call_count(build_genome(kinds=("Debate", "SelfConsistency"))) == 12
    assert nominal_call_count(build_genome(kinds=("SelfRefine", "ReAct"))) == 4
    assert nominal_call_count(build_genome(kinds=("Custom",))) == 1
    # Each fixed kind's estimate is the calls its runner makes on default
    # params. One constant reply: SelfRefine's critique never stops it and its
    # revision changes nothing (3 of up to 11 calls); ReAct calls no tool.
    for kind, spec in OPERATORS.items():
        if spec.variable:
            continue
        genome = build_genome(kinds=(kind,))
        caller = _Caller(ScriptedProvider(["the answer is 42"]), pool, budget=64)
        run_operator(genome.operators[0], "task", "", caller)
        assert caller.count == nominal_call_count(genome), kind


def test_call_count_tiers():
    assert call_count_tier(1) == "simple"
    assert call_count_tier(2) == "simple"
    assert call_count_tier(3) == "medium"
    assert call_count_tier(8) == "medium"
    assert call_count_tier(9) == "complex"
