import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicheflow.canonical import dumps as canonical_dumps
from nicheflow.errors import GenomeParseError, InvalidInput, StructureError
from nicheflow.executor import _Caller
from nicheflow.genome import (
    InvokingNode,
    ModelPool,
    ModelSpec,
    OperatorNode,
    RunStats,
    WorkflowGenome,
    content_hash,
    deserialize,
    fresh_workflow_id,
    serialize,
    sink_operators,
    to_document,
    topological_order,
    validate,
)
from nicheflow.operators import DEFAULT_OPERATOR_REPO, OPERATORS, run_operator

from conftest import MODEL_SPECS, ScriptedProvider, build_genome


def test_model_pool_rejects_duplicates_and_bad_prices():
    with pytest.raises(InvalidInput):
        ModelPool([MODEL_SPECS[0], MODEL_SPECS[0]])
    with pytest.raises(InvalidInput):
        ModelPool([ModelSpec("x", prompt_price=-1.0, completion_price=0.0)])
    with pytest.raises(InvalidInput):
        ModelPool([ModelSpec("", prompt_price=0.0, completion_price=0.0)])


def test_model_pool_lookup(pool):
    assert "tiny" in pool
    assert pool.get("big").completion_price == 10.0
    assert pool.model_ids == sorted(pool.model_ids)
    with pytest.raises(InvalidInput):
        pool.get("nonexistent")


def test_valid_genome_has_no_violations(pool):
    g = build_genome(kinds=("CoT", "Debate", "StepBack"))
    assert validate(g, pool, 5) == []


def test_operator_registry_table(pool):
    assert {kind: spec.arity for kind, spec in OPERATORS.items()} == {
        "CoT": 1,
        "Debate": 4,
        "StepBack": 2,
        "SelfConsistency": 1,
        "SelfRefine": 2,
        "Ensemble": 4,
        "ReAct": 1,
        "ExpertPrompt": 2,
        "Custom": None,
    }
    for kind, spec in OPERATORS.items():
        nodes = [str(i) for i in range(len(spec.prompts))]
        assert all(0 <= a < len(nodes) and 0 <= b < len(nodes) for a, b in spec.edges), kind
        assert topological_order(nodes, [(str(a), str(b)) for a, b in spec.edges]) is not None
        assert validate(build_genome(kinds=(kind,)), pool, 5) == [], kind
    # init and operator mutation index this tuple with the RNG: its order is
    # part of every trajectory
    assert DEFAULT_OPERATOR_REPO == (
        "CoT", "Debate", "StepBack", "SelfConsistency",
        "SelfRefine", "Ensemble", "ReAct", "ExpertPrompt",
    )


def test_validate_reports_cycle(pool):
    g = build_genome(kinds=("CoT", "CoT"))
    a, b = g.op_ids
    g = dataclasses.replace(g, inter_edges=((a, b), (b, a)))
    violations = validate(g, pool, 5)
    assert any("cycle" in v for v in violations)


def test_validate_reports_tag_count(pool):
    g = build_genome(tags=["only", "four", "tags", "here"])
    assert any("tag count 4 != 5" in v for v in validate(g, pool, 5))


def test_validate_reports_dangling_model(pool):
    g = build_genome(model="tiny")
    node = g.operators[0].invoking_nodes[0]
    bad = dataclasses.replace(node, model_id="ghost")
    op = dataclasses.replace(g.operators[0], invoking_nodes=(bad,))
    g = dataclasses.replace(g, operators=(op,))
    assert any("dangling model_id 'ghost'" in v for v in validate(g, pool, 5))


def test_validate_reports_temperature_and_multiple_sinks(pool):
    g = build_genome(kinds=("CoT", "CoT"))
    node = g.operators[0].invoking_nodes[0]
    hot = dataclasses.replace(node, temperature=1.5)
    op = dataclasses.replace(g.operators[0], invoking_nodes=(hot,))
    g = dataclasses.replace(g, operators=(op, g.operators[1]), inter_edges=())
    violations = validate(g, pool, 5)
    assert any("temperature 1.5" in v for v in violations)
    assert any("one sink" in v for v in violations)


def test_validate_reports_arity_mismatch(pool):
    g = build_genome(kinds=("Debate",))
    op = g.operators[0]
    op = dataclasses.replace(op, invoking_nodes=op.invoking_nodes[:3], intra_edges=())
    g = dataclasses.replace(g, operators=(op,))
    assert any("needs 4 nodes, has 3" in v for v in validate(g, pool, 5))


@pytest.mark.parametrize("params, problem", [
    ({"samples": "abc"}, "param 'samples' is 'abc', not an integer >= 1"),
    ({"samples": 0}, "param 'samples' is 0, not an integer >= 1"),
    ({"samples": True}, "param 'samples' is True, not an integer >= 1"),
    ({"samples": 2.0}, "param 'samples' is 2.0, not an integer >= 1"),
    ({"rounds": 2}, "kind SelfConsistency has no param 'rounds'"),
])
def test_validate_reports_bad_operator_params(pool, params, problem):
    g = build_genome(kinds=("SelfConsistency",))
    op = dataclasses.replace(g.operators[0], params=params)
    g = dataclasses.replace(g, operators=(op,))
    assert validate(g, pool, 5) == [f"operator 'op0': {problem}"]
    # running the operator meets the same check before any model call
    provider = ScriptedProvider(["x"])
    with pytest.raises(StructureError, match=re.escape(f"operator 'op0': {problem}")):
        run_operator(op, "task", "", _Caller(provider, pool, 64))
    assert provider.requests == []


def test_validate_accepts_params_left_out_or_set_to_a_positive_integer(pool):
    g = build_genome(kinds=("SelfConsistency", "Debate"))
    ops = (dataclasses.replace(g.operators[0], params={}),
           dataclasses.replace(g.operators[1], params={"rounds": 1}))
    assert validate(dataclasses.replace(g, operators=ops), pool, 5) == []


def test_validate_reports_stats_violations(pool):
    g = build_genome(stats=RunStats(exec_count=0, mean_cost=1.0, mean_perf=0.0))
    assert any("zero means" in v for v in validate(g, pool, 5))
    g2 = build_genome(stats=RunStats(exec_count=2, mean_cost=1.0, mean_perf=1.5))
    assert any("mean_perf" in v for v in validate(g2, pool, 5))


def test_validate_empty_genome(pool):
    g = WorkflowGenome(workflow_id="w", operators=())
    assert validate(g, pool, 5) == ["no operators"]


def test_violations_are_deterministic(pool):
    g = build_genome(kinds=("CoT", "CoT"), tags=["a"])
    a, b = g.op_ids
    g = dataclasses.replace(g, inter_edges=((a, b), (b, a)))
    assert validate(g, pool, 5) == validate(g, pool, 5)


def test_topological_order_lexicographic_tiebreak():
    order = topological_order(["b", "a", "c"], [("a", "c"), ("b", "c")])
    assert order == ["a", "b", "c"]
    assert topological_order(["a", "b"], [("a", "b"), ("b", "a")]) is None


def test_sink_operators():
    g = build_genome(kinds=("CoT", "CoT", "CoT"))
    assert sink_operators(g) == [g.op_ids[-1]]


def test_round_trip_identity(pool):
    g = build_genome(kinds=("Debate", "SelfRefine"), stats=RunStats(3, 0.25, 0.5))
    text = serialize(g)
    g2 = deserialize(text)
    assert g2 == g
    assert serialize(g2) == text


def test_serialization_is_canonical():
    g = build_genome()
    # same logical document in a different key order serializes identically
    doc = to_document(g)
    shuffled = dict(reversed(list(doc.items())))
    assert canonical_dumps(doc) == canonical_dumps(shuffled)


def test_deserialize_reports_missing_field():
    g = build_genome()
    doc = to_document(g)
    del doc["operators"]
    with pytest.raises(GenomeParseError) as ei:
        deserialize(canonical_dumps(doc))
    assert ei.value.field == "operators"


def test_deserialize_reports_position_on_malformed_json():
    with pytest.raises(GenomeParseError) as ei:
        deserialize('{"schema_version": 1,,}')
    assert ei.value.position is not None


def test_deserialize_rejects_wrong_schema_version():
    doc = to_document(build_genome())
    doc["schema_version"] = 99
    with pytest.raises(GenomeParseError):
        deserialize(canonical_dumps(doc))


def test_content_hash_ignores_identity_stats_lineage():
    g = build_genome()
    g2 = dataclasses.replace(
        g, workflow_id="other", stats=RunStats(5, 1.0, 0.5), lineage={"parents": ["x"]}
    )
    assert content_hash(g) == content_hash(g2)


def test_content_hash_sensitive_to_structure():
    g = build_genome(kinds=("CoT",))
    h = build_genome(kinds=("StepBack",))
    assert content_hash(g) != content_hash(h)


def test_fresh_workflow_id_suffixes_on_collision():
    g = build_genome()
    base = content_hash(g)
    assert fresh_workflow_id(g, set()) == base
    assert fresh_workflow_id(g, {base}) == f"{base}-1"
    assert fresh_workflow_id(g, {base, f"{base}-1"}) == f"{base}-2"


_KINDS = st.sampled_from(["CoT", "Debate", "StepBack", "SelfConsistency",
                          "SelfRefine", "Ensemble", "ReAct", "ExpertPrompt"])


@settings(max_examples=50, deadline=None)
@given(kinds=st.lists(_KINDS, min_size=1, max_size=4),
       model=st.sampled_from([s.model_id for s in MODEL_SPECS]),
       stats=st.tuples(st.integers(1, 100), st.floats(0, 10), st.floats(0, 1)))
def test_round_trip_property(kinds, model, stats):
    # floats are stored as their shortest round-trip repr: nothing is lost
    g = build_genome(kinds=tuple(kinds), model=model, stats=RunStats(*stats))
    assert deserialize(serialize(g)) == g
    assert serialize(deserialize(serialize(g))) == serialize(g)
    assert validate(g, ModelPool(MODEL_SPECS), 5) == []
