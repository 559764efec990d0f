import dataclasses
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicheflow.errors import (
    BudgetExceeded,
    InvalidInput,
    StructureError,
    TemplateError,
)
from nicheflow.executor import (
    ExecutionTrace,
    TaskQuery,
    _Caller,
    evaluate,
    execute,
    run_operator,
)
from nicheflow.genome import InvokingNode, OperatorNode, build_operator
from nicheflow.operators import (
    OPERATORS,
    SELFREFINE_STOP_MARKER,
    extract_answer_key,
    extract_number,
    render_prompt,
    safe_arithmetic_eval,
)
from nicheflow.provider import ChatRequest, ChatResponse, call_cost, make_task_envelope

from conftest import RecordingProvider, ScriptedProvider, build_genome


QUERY = TaskQuery(query_id="q1", text="What is 6*7?", gold="42", metric="numeric")


def _caller(provider, pool, budget=64):
    return _Caller(provider, pool, budget)


def _run_kind(kind, pool, replies, budget=64, params=None):
    op = build_operator(kind, "op0", ["tiny"] * len(OPERATORS[kind].prompts))
    if params:
        op = dataclasses.replace(op, params={**op.params, **params})
    provider = ScriptedProvider(replies)
    caller = _caller(provider, pool, budget)
    answer = run_operator(op, QUERY.text, "", caller)
    return answer, caller, provider


# --- call counts per kind (one execution each) ---------------------------------

def test_cot_makes_one_call(pool):
    answer, caller, _ = _run_kind("CoT", pool, ["it is 42"])
    assert caller.count == 1
    assert answer == "it is 42"


def test_stepback_makes_two_calls(pool):
    answer, caller, provider = _run_kind("StepBack", pool, ["principles", "final: 42"])
    assert caller.count == 2
    assert answer == "final: 42"
    # the answer node sees the principle produced by the first call
    assert "principles" in provider.requests[1].messages[0]["content"]


def test_selfconsistency_makes_five_calls_and_majority_votes(pool):
    answer, caller, _ = _run_kind(
        "SelfConsistency", pool, ["answer 1", "answer 2", "answer 1", "answer 3", "answer 1"]
    )
    assert caller.count == 5
    assert answer == "answer 1"


def test_selfconsistency_tie_broken_by_first_sampled(pool):
    answer, caller, _ = _run_kind(
        "SelfConsistency", pool, ["b", "b", "a", "a", "c"]
    )
    assert caller.count == 5
    assert answer == "b"


def test_debate_makes_seven_calls(pool):
    replies = [f"position {i}" for i in range(6)] + ["verdict: 42"]
    answer, caller, provider = _run_kind("Debate", pool, replies)
    assert caller.count == 7  # 3 debaters x 2 rounds + aggregator
    assert answer == "verdict: 42"
    # round-2 debaters see round-1 positions; the aggregator sees everything
    assert "position 0" in provider.requests[3].messages[0]["content"]
    agg_prompt = provider.requests[6].messages[0]["content"]
    assert all(f"position {i}" in agg_prompt for i in range(6))


def test_ensemble_makes_four_calls(pool):
    answer, caller, provider = _run_kind(
        "Ensemble", pool, ["cand a", "cand b", "cand c", "best: a"]
    )
    assert caller.count == 4
    assert answer == "best: a"
    ranker_prompt = provider.requests[3].messages[0]["content"]
    assert "cand a" in ranker_prompt and "cand c" in ranker_prompt


def test_expertprompt_makes_two_calls_and_threads_persona(pool):
    answer, caller, provider = _run_kind(
        "ExpertPrompt", pool, ["a number theorist", "the answer is 42"]
    )
    assert caller.count == 2
    assert answer == "the answer is 42"
    assert "a number theorist" in provider.requests[1].messages[0]["content"]


def test_selfrefine_stops_on_marker_after_two_calls(pool):
    answer, caller, _ = _run_kind(
        "SelfRefine", pool, ["draft 42", SELFREFINE_STOP_MARKER]
    )
    assert caller.count == 2
    assert answer == "draft 42"


def test_selfrefine_stops_when_revision_repeats(pool):
    # draft, feedback, revision, feedback, identical revision -> stop at 5 calls
    answer, caller, _ = _run_kind(
        "SelfRefine", pool, ["draft", "tighten it", "revised", "more", "revised"]
    )
    assert caller.count == 5
    assert answer == "revised"


def test_selfrefine_respects_max_iterations(pool):
    # never converges: 1 draft + max_iterations * (feedback + revision) = 11
    replies = ["draft"] + [f"r{i}" for i in range(30)]
    answer, caller, _ = _run_kind("SelfRefine", pool, replies, params={"max_iterations": 5})
    assert caller.count == 11


def test_react_answers_directly_with_one_call(pool):
    answer, caller, _ = _run_kind("ReAct", pool, ["the final answer is 42"])
    assert caller.count == 1


def test_react_uses_the_eval_tool(pool):
    answer, caller, provider = _run_kind(
        "ReAct", pool, ["let me compute eval(6*7)", "so the answer is 42"]
    )
    assert caller.count == 2
    assert answer == "so the answer is 42"
    scratch = provider.requests[1].messages[0]["content"]
    assert "eval(6*7)" in scratch and "Observation: 42" in scratch


def test_react_tool_error_becomes_observation(pool):
    answer, caller, provider = _run_kind(
        "ReAct", pool, ["try eval(import os)", "answer: 1"]
    )
    assert "tool error" in provider.requests[1].messages[0]["content"]


def test_react_caps_iterations(pool):
    answer, caller, _ = _run_kind(
        "ReAct", pool, ["eval(1+1)"] * 20, params={"max_iterations": 5},
    )
    assert caller.count == 5


def test_custom_operator_runs_intra_dag(pool):
    nodes = (
        InvokingNode("n0", "tiny", "Step one. {task} {context}"),
        InvokingNode("n1", "tiny", "Step two. {task} {context}"),
    )
    op = OperatorNode("op0", "Custom", nodes, intra_edges=(("n0", "n1"),))
    provider = ScriptedProvider(["first out", "second out"])
    caller = _caller(provider, pool)
    answer = run_operator(op, "task text", "", caller)
    assert answer == "second out"
    assert "first out" in provider.requests[1].messages[0]["content"]


def test_custom_node_sees_outer_context_and_its_predecessors(pool):
    nodes = (
        InvokingNode("n0", "tiny", "First. {task} {context}"),
        InvokingNode("n1", "tiny", "Second. {task} {context}"),
        InvokingNode("n2", "tiny", "Join. {task} {context}"),
    )
    custom = OperatorNode("op1", "Custom", nodes, intra_edges=(("n0", "n2"), ("n1", "n2")))
    g = build_genome(kinds=("CoT", "Custom"))
    g = dataclasses.replace(g, operators=(g.operators[0], custom))
    provider = ScriptedProvider(["upstream", "zero out", "one out", "joined"])
    trace = execute(g, QUERY, provider, pool, call_budget=64)
    assert (trace.answer, trace.call_count) == ("joined", 4)
    assert "## Output of op0:\nupstream" in provider.requests[1].messages[0]["content"]
    assert provider.requests[3].messages[0]["content"] == (
        "Join. What is 6*7? ## Output of op0:\nupstream\n"
        "## Output of n0:\nzero out\n## Output of n1:\none out"
    )


def test_custom_operator_rejects_intra_edge_cycle(pool):
    nodes = (
        InvokingNode("n0", "tiny", "A. {task} {context}"),
        InvokingNode("n1", "tiny", "B. {task} {context}"),
    )
    op = OperatorNode("op0", "Custom", nodes, intra_edges=(("n0", "n1"), ("n1", "n0")))
    provider = ScriptedProvider(["x"])
    with pytest.raises(StructureError, match="operator 'op0'"):
        run_operator(op, "t", "", _caller(provider, pool))
    assert provider.requests == []


def test_run_operator_rejects_bad_arity(pool):
    op = build_operator("Debate", "op0", ["tiny"] * 4)
    op = dataclasses.replace(op, invoking_nodes=op.invoking_nodes[:2], intra_edges=())
    with pytest.raises(StructureError):
        run_operator(op, "t", "", _caller(ScriptedProvider(["x"]), pool))


# --- prompt rendering ------------------------------------------------------------

def test_render_prompt_resolves_placeholders():
    assert render_prompt("do {task} with {context}", {"task": "X", "context": "Y"}, "op") \
        == "do X with Y"


def test_render_prompt_raises_on_missing_placeholder():
    with pytest.raises(TemplateError) as ei:
        render_prompt("solve {missing}", {"task": "X"}, "op7")
    assert ei.value.op_id == "op7"
    assert ei.value.placeholder == "missing"


def test_render_prompt_keeps_literal_text():
    assert render_prompt("no placeholders", {}, "op") == "no placeholders"


def _render_fresh(prompt, mapping, op_id):
    """``render_prompt`` with the template parsed on every call."""
    try:
        parsed = list(string.Formatter().parse(prompt))
    except ValueError as e:
        raise TemplateError(op_id, f"<malformed: {e}>") from None
    out = []
    for literal, field_name, _spec, _conv in parsed:
        out.append(literal)
        if field_name is not None:
            if field_name not in mapping:
                raise TemplateError(op_id, field_name or "<empty>")
            out.append(str(mapping[field_name]))
    return "".join(out)


def _outcome(render, prompt, mapping):
    try:
        return render(prompt, mapping, "op3")
    except TemplateError as e:
        return (e.op_id, e.placeholder, str(e))


@settings(max_examples=300, deadline=None)
@given(
    prompt=st.lists(
        st.sampled_from(["ab ", "{task}", "{a}", "{b}", "{}", "{a!r:>3}", "{", "}", "{{", "}}", ":"]),
        max_size=5,
    ).map("".join),
    mapping=st.dictionaries(st.sampled_from(["task", "a", "b", ""]), st.text(max_size=3)),
)
def test_render_prompt_memo_agrees_with_fresh_parsing(prompt, mapping):
    # twice: the first call may fill the memo, the second reads it
    want = _outcome(_render_fresh, prompt, mapping)
    assert _outcome(render_prompt, prompt, mapping) == want
    assert _outcome(render_prompt, prompt, mapping) == want


# --- whole-genome execution -------------------------------------------------------

def test_execute_threads_outputs_along_edges(pool):
    g = build_genome(kinds=("CoT", "CoT"))
    provider = ScriptedProvider(["upstream says 41+1", "final 42"])
    trace = execute(g, QUERY, provider, pool, call_budget=64)
    assert trace.answer == "final 42"
    assert trace.call_count == 2
    downstream_prompt = provider.requests[1].messages[0]["content"]
    assert "upstream says 41+1" in downstream_prompt
    assert f"## Output of {g.op_ids[0]}:" in downstream_prompt


def test_execute_total_cost_is_sum_of_call_costs(pool, sim_provider):
    g = build_genome(kinds=("Debate", "CoT"), model="mid")
    query = TaskQuery("q", "solve " + make_task_envelope("q", "easy", "5"),
                      domain="easy", gold="5", metric="numeric")
    recording = _Recording(sim_provider)
    trace = execute(g, query, recording, pool, call_budget=64)
    probe = ChatRequest(model_id="mid", messages=({"role": "user", "content": "x"},))
    per_call = call_cost(sim_provider.chat(probe), pool.get("mid"))
    assert trace.call_count == len(recording.requests) == 8
    assert trace.total_cost == pytest.approx(8 * per_call, abs=1e-15)
    expected_total = 0.0
    for req in recording.requests:  # same left-to-right accumulation as the meter
        expected_total += call_cost(sim_provider.chat(req), pool.get(req.model_id))
    assert trace.total_cost == expected_total


class _Recording:
    """Passes each request on to a provider and keeps it."""

    def __init__(self, provider):
        self.provider = provider
        self.requests = []

    def chat(self, req):
        self.requests.append(req)
        return self.provider.chat(req)


def test_execute_is_deterministic_with_simulated_backend(pool, sim_provider):
    g = build_genome(kinds=("SelfConsistency",), model="small")
    query = TaskQuery("q", "solve " + make_task_envelope("q", "hard", "3"),
                      domain="hard", gold="3", metric="numeric")
    p1, p2 = _Recording(sim_provider), _Recording(sim_provider)
    t1 = execute(g, query, p1, pool, call_budget=64)
    t2 = execute(g, query, p2, pool, call_budget=64)
    assert t1.answer == t2.answer
    assert t1.total_cost == t2.total_cost
    assert t1.call_count == t2.call_count == 5
    assert p1.requests == p2.requests


def test_execute_digests_each_request_once_and_no_response(pool, sim_provider, monkeypatch):
    counts = {ChatRequest: 0, ChatResponse: 0}
    for cls in counts:
        def counted(self, digest=cls.digest, cls=cls):
            counts[cls] += 1
            return digest(self)
        monkeypatch.setattr(cls, "digest", counted)
    g = build_genome(kinds=("Debate", "CoT"), model="mid")
    query = TaskQuery("q", "solve " + make_task_envelope("q", "easy", "5"),
                      domain="easy", gold="5", metric="numeric")
    trace = execute(g, query, sim_provider, pool, call_budget=64)
    assert trace.call_count == 8
    # the simulated backend draws each reply from the request digest; nothing else digests
    assert counts == {ChatRequest: trace.call_count, ChatResponse: 0}


def test_execute_respects_call_budget(pool):
    g = build_genome(kinds=("Debate", "Debate"))
    provider = ScriptedProvider(["p"] * 50)
    with pytest.raises(BudgetExceeded) as ei:
        execute(g, QUERY, provider, pool, call_budget=10)
    assert ei.value.partial_cost > 0.0
    assert len(provider.requests) == 10


def test_a_model_outside_the_pool_is_never_called(pool, sim_provider):
    provider = RecordingProvider(sim_provider)
    with pytest.raises(InvalidInput, match="unknown model 'nope'"):
        execute(build_genome(kinds=("CoT",), model="nope"), QUERY, provider, pool, call_budget=64)
    assert provider.requests == []


def test_the_budget_is_checked_before_the_model(pool):
    provider = RecordingProvider(ScriptedProvider(["p"]))
    node = build_genome(model="nope").operators[0].invoking_nodes[0]
    with pytest.raises(BudgetExceeded):
        _Caller(provider, pool, budget=0).call(node, "x")
    assert provider.requests == []


def test_a_memoised_run_replays_the_fresh_trace(pool, sim_provider):
    g = build_genome(kinds=("Debate", "CoT"), model="mid")
    query = TaskQuery("q", "solve " + make_task_envelope("q", "easy", "5"),
                      domain="easy", gold="5", metric="numeric")
    traces = {}
    first = execute(g, query, sim_provider, pool, call_budget=64, traces=traces)
    unreachable = ScriptedProvider([], fail_after=0)  # any model call raises
    replay = execute(g, query, unreachable, pool, call_budget=64, traces=traces)
    assert replay == first == execute(g, query, sim_provider, pool, call_budget=64)
    assert list(traces) == [(g.workflow_id, query.text)]


def test_a_memoised_over_budget_run_replays_its_message_and_partial_cost(pool):
    g = build_genome(kinds=("Debate", "Debate"))
    traces = {}
    with pytest.raises(BudgetExceeded) as first:
        execute(g, QUERY, ScriptedProvider(["p"] * 50), pool, call_budget=10, traces=traces)
    unreachable = ScriptedProvider([], fail_after=0)
    with pytest.raises(BudgetExceeded) as replay:
        execute(g, QUERY, unreachable, pool, call_budget=10, traces=traces)
    assert str(replay.value) == str(first.value)
    assert replay.value.partial_cost == first.value.partial_cost > 0.0
    # kept as a trace with no answer: an exception's traceback would pin the run's frames
    (kept,) = traces.values()
    assert isinstance(kept, ExecutionTrace) and kept.answer is None
    assert kept.total_cost == first.value.partial_cost and kept.call_count == 10


def test_execute_rejects_cyclic_genome(pool):
    g = build_genome(kinds=("CoT", "CoT"))
    a, b = g.op_ids
    g = dataclasses.replace(g, inter_edges=((a, b), (b, a)))
    with pytest.raises(StructureError):
        execute(g, QUERY, ScriptedProvider(["x"]), pool, call_budget=64)


# --- scoring ----------------------------------------------------------------------

def test_extract_number_prefers_boxed_then_last():
    assert extract_number("so boxed{41} ... final 99") == 41
    assert extract_number("values 3 then 7 then 12") == 12
    assert extract_number("ratio is 3/4") == pytest.approx(0.75)
    assert extract_number("-2.5 is the result") == pytest.approx(-2.5)
    assert extract_number("no numerals") is None


def test_extract_answer_key_normalizes():
    assert extract_answer_key("Answer: 42") == extract_answer_key("it is 42.0")
    assert extract_answer_key("  Hello   World ") == "hello world"


def test_evaluate_numeric():
    q = TaskQuery("q", "t", gold="42", metric="numeric")
    assert evaluate("The result is 42", q) == 1.0
    assert evaluate("roughly 41.99999999999", q) == 1.0  # inside 1e-6 relative tol
    assert evaluate("I think 43", q) == 0.0
    assert evaluate("forty-two", q) == 0.0
    # a large gold still needs the exact integer: gold + 1 is the simulated wrong answer
    assert evaluate("1796257", TaskQuery("q", "t", gold="1796256", metric="numeric")) == 0.0


def test_evaluate_exact():
    q = TaskQuery("q", "t", gold="Paris", metric="exact")
    assert evaluate("  paris ", q) == 1.0
    assert evaluate("London", q) == 0.0


def test_evaluate_custom_scorer():
    q = TaskQuery("q", "t", metric="custom",
                  scorer=lambda ans, _q: 0.5 if "partial" in ans else 0.0)
    assert evaluate("a partial answer", q) == 0.5
    with pytest.raises(InvalidInput, match="custom metric requires a scorer"):
        TaskQuery("q", "t", metric="custom")


@pytest.mark.parametrize("metric", ["nonsense", "Exact", ""])
def test_task_query_rejects_an_unknown_metric(metric):
    with pytest.raises(InvalidInput, match=f"unknown metric {metric!r}"):
        TaskQuery("q", "t", gold="1", metric=metric)


def test_evaluate_requires_gold():
    with pytest.raises(InvalidInput):
        evaluate("x", TaskQuery("q", "t", metric="exact"))
    with pytest.raises(InvalidInput):
        evaluate("x", TaskQuery("q", "t", gold="abc", metric="numeric"))


def test_query_text_must_be_nonempty():
    with pytest.raises(InvalidInput):
        TaskQuery("q", "   ")


# --- arithmetic tool ---------------------------------------------------------------

def test_safe_arithmetic_eval_basics():
    assert safe_arithmetic_eval("2*3+1") == 7
    assert safe_arithmetic_eval("(1 - 5) * 2") == -8
    assert safe_arithmetic_eval("7 / 2") == 3.5
    assert safe_arithmetic_eval("-3 + +1") == -2
    assert safe_arithmetic_eval("2 ** 5") == 32


def test_safe_arithmetic_eval_rejects_non_arithmetic():
    for bad in ["__import__('os')", "open('x')", "a + 1", "'x' * 3", "[1,2]", "1;2", ""]:
        with pytest.raises(InvalidInput):
            safe_arithmetic_eval(bad)


@settings(max_examples=100, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50),
       st.sampled_from(["+", "-", "*"]))
def test_safe_arithmetic_eval_matches_python(a, b, op):
    expr = f"({a}) {op} ({b})"
    assert safe_arithmetic_eval(expr) == eval(expr)  # noqa: S307 - oracle on generated input
