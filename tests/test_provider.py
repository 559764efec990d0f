import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicheflow import canonical
from nicheflow.errors import InvalidInput, ProviderError, UnknownModel
from nicheflow.genome import ModelSpec
from nicheflow.provider import (
    ChatRequest,
    ChatResponse,
    Evolver,
    HttpProvider,
    SimModelProfile,
    SimulatedProvider,
    call_cost,
    make_task_envelope,
    parse_task_envelope,
)

from conftest import SIM_PROFILES, ScriptedProvider


def _req(text, model="tiny", temperature=1.0):
    return ChatRequest(
        model_id=model,
        messages=({"role": "user", "content": text},),
        temperature=temperature,
    )


def test_chat_request_validation():
    with pytest.raises(InvalidInput):
        ChatRequest(model_id="m", messages=())
    with pytest.raises(InvalidInput):
        _req("x", temperature=1.5)
    with pytest.raises(InvalidInput):
        ChatRequest(model_id="m", messages=({"role": "robot", "content": "x"},))


def test_chat_response_rejects_negative_tokens():
    with pytest.raises(InvalidInput):
        ChatResponse(content="x", prompt_tokens=-1, completion_tokens=0)


def test_request_digest_is_stable_and_content_sensitive():
    assert _req("a").digest() == _req("a").digest()
    assert _req("a").digest() != _req("b").digest()
    assert _req("a", model="big").digest() != _req("a").digest()
    assert _req("a", temperature=0.5).digest() != _req("a").digest()


def _canonical_digest(req):
    """The request digest as ``canonical.dumps`` writes the request: the
    reference the directly built text must match byte for byte."""
    body = canonical.dumps({
        "model": req.model_id,
        "messages": [dict(m) for m in req.messages],
        "temperature": req.temperature,
    })
    return hashlib.blake2b(body.encode("utf-8"), digest_size=16).hexdigest()


# Non-ASCII, quotes, backslashes and control characters, which JSON escapes;
# lone surrogates are left out, as no request with one can be encoded.
_TEXT = st.text(st.one_of(
    st.characters(blacklist_categories=("Cs",)),
    st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028é漢😀'),
))
_MESSAGE = st.fixed_dictionaries({
    "role": st.sampled_from(["system", "user", "assistant"]), "content": _TEXT,
})


@settings(max_examples=300, deadline=None)
@given(
    model=_TEXT,
    messages=st.lists(_MESSAGE, min_size=1, max_size=4),
    temperature=st.one_of(
        st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, 0.1, 1e-300]), st.integers(0, 1),
    ),
)
def test_request_digest_matches_the_canonical_dumps_digest(model, messages, temperature):
    req = ChatRequest(model_id=model, messages=tuple(messages), temperature=temperature)
    assert req.digest() == _canonical_digest(req)


def test_chat_request_settles_its_shape():
    """An int temperature is stored as a float; any message other than
    ``{role, content}`` with string content, and a bool temperature, are
    rejected, so ``digest`` sees one shape of request."""
    assert type(_req("x", temperature=1).temperature) is float
    assert _req("x", temperature=1).digest() == _req("x", temperature=1.0).digest()
    for bad in (
        {"role": "user", "content": "x", "name": "n"},
        {"role": "user"},
        {"role": "user", "content": 3},
    ):
        with pytest.raises(InvalidInput):
            ChatRequest(model_id="m", messages=(bad,))
    for bad in (True, "0.5", None):
        with pytest.raises(InvalidInput):
            _req("x", temperature=bad)
    with pytest.raises(InvalidInput):
        _req("x", model=7)


def test_call_cost_per_million_tokens():
    spec = ModelSpec("m", prompt_price=3.0, completion_price=15.0)
    resp = ChatResponse(content="x", prompt_tokens=100, completion_tokens=20)
    assert call_cost(resp, spec) == pytest.approx(
        100 / 1e6 * 3.0 + 20 / 1e6 * 15.0, abs=1e-15
    )
    free = ModelSpec("f", prompt_price=0.0, completion_price=0.0)
    assert call_cost(resp, free) == 0.0


def test_task_envelope_round_trip():
    env = make_task_envelope("q-1", "easy", "42")
    assert parse_task_envelope(f"Compute stuff. {env}") == ("q-1", "easy", "42")
    assert parse_task_envelope("no envelope here") is None


def test_simulated_provider_is_a_pure_function(sim_provider):
    req = _req("solve " + make_task_envelope("q", "easy", "7"))
    r1, r2 = sim_provider.chat(req), sim_provider.chat(req)
    assert r1 == r2
    other = SimulatedProvider(SIM_PROFILES, seed=7)
    assert other.chat(req) == r1


def test_simulated_provider_seed_changes_behavior():
    reqs = [_req(f"t{i} " + make_task_envelope(f"q{i}", "easy", str(i))) for i in range(50)]
    a = SimulatedProvider(SIM_PROFILES, seed=1)
    b = SimulatedProvider(SIM_PROFILES, seed=2)
    assert any(a.chat(r) != b.chat(r) for r in reqs)


def test_simulated_provider_success_probability_bounds():
    sure = SimulatedProvider(
        [SimModelProfile("m", {"d": 1.0}, prompt_tokens=10, completion_tokens=5)], seed=3
    )
    never = SimulatedProvider(
        [SimModelProfile("m", {"d": 0.0}, prompt_tokens=10, completion_tokens=5)], seed=3
    )
    for i in range(100):
        req = _req(f"task {i} " + make_task_envelope(f"q{i}", "d", "42"), model="m")
        assert "42" in sure.chat(req).content
        assert "42" not in never.chat(req).content
        assert "43" in never.chat(req).content


def test_simulated_provider_success_rate_tracks_probability():
    provider = SimulatedProvider(
        [SimModelProfile("m", {"d": 0.7}, prompt_tokens=10, completion_tokens=5)], seed=5
    )
    hits = 0
    n = 2000
    for i in range(n):
        req = _req(f"task {i} " + make_task_envelope(f"q{i}", "d", "9"), model="m")
        if "the final answer is 9." in provider.chat(req).content:
            hits += 1
    assert abs(hits / n - 0.7) < 0.05


def test_simulated_provider_non_envelope_prompt(sim_provider):
    resp = sim_provider.chat(_req("Summarize this workflow."))
    assert resp.content == "Understood. Proceeding with the given instructions."


def test_simulated_provider_fixed_token_counts(sim_provider):
    resp = sim_provider.chat(_req("anything", model="mid"))
    assert (resp.prompt_tokens, resp.completion_tokens) == (200, 100)


def test_simulated_provider_unknown_model(sim_provider):
    with pytest.raises(UnknownModel):
        sim_provider.chat(_req("x", model="ghost"))


def test_wrong_answer_shapes():
    from nicheflow.provider import _wrong_answer

    assert _wrong_answer("42") == "43"
    assert _wrong_answer("2.5") == "3.5"
    assert _wrong_answer("paris") == "indeterminate"


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(0, 2**16))
def test_simulated_uniform_draw_in_unit_interval(p, i):
    provider = SimulatedProvider(
        [SimModelProfile("m", {"d": p}, prompt_tokens=1, completion_tokens=1)], seed=i
    )
    req = _req(make_task_envelope("q", "d", "1"), model="m")
    content = provider.chat(req).content
    assert content.startswith("Working through the problem, the final answer is")


# --- HTTP provider --------------------------------------------------------------

class _FakeResponse:
    def __init__(self, payload, fail=False):
        self._payload = payload
        self._fail = fail

    def raise_for_status(self):
        if self._fail:
            raise RuntimeError("HTTP 503")

    def json(self):
        return self._payload


class _FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


_OK_PAYLOAD = {
    "choices": [{"message": {"content": "the answer"}}],
    "usage": {"prompt_tokens": 11, "completion_tokens": 7},
}


def test_http_provider_success_and_wire_format():
    session = _FakeSession([_FakeResponse(_OK_PAYLOAD)])
    provider = HttpProvider("http://svc/chat", api_key="secret", session=session,
                            sleep=lambda s: None)
    resp = provider.chat(_req("hello", model="gpt-x"))
    assert resp == ChatResponse("the answer", 11, 7)
    body = session.calls[0]["json"]
    assert body["model"] == "gpt-x"
    assert body["temperature"] == 1.0
    assert body["messages"] == [{"role": "user", "content": "hello"}]
    assert session.calls[0]["headers"]["Authorization"] == "Bearer secret"


def test_http_provider_three_attempts_then_provider_error():
    session = _FakeSession([RuntimeError("down")] * 3)
    sleeps = []
    provider = HttpProvider("http://svc/chat", session=session, sleep=sleeps.append)
    with pytest.raises(ProviderError) as ei:
        provider.chat(_req("x"))
    assert ei.value.attempts == 3
    assert ei.value.last_error is not None
    assert sleeps == [0.5, 1.0]
    assert len(session.calls) == 3


def test_http_provider_recovers_mid_retry():
    session = _FakeSession([_FakeResponse({}, fail=True), _FakeResponse(_OK_PAYLOAD)])
    provider = HttpProvider("http://svc/chat", session=session, sleep=lambda s: None)
    assert provider.chat(_req("x")).content == "the answer"


# --- evolver -----------------------------------------------------------------

def test_evolver_asks_once():
    """A prompt is sent once; asked again, its kept reply is parsed anew."""
    provider = ScriptedProvider(["bad", "good"])
    evolver = Evolver(provider, "big")
    assert evolver.ask("p", lambda reply: reply if reply == "good" else None) is None
    assert len(provider.requests) == 1
    assert evolver.ask("p", lambda reply: reply if reply == "good" else None) is None
    assert evolver.ask("p", str.upper) == "BAD"
    assert len(provider.requests) == 1
    assert evolver.ask("q", lambda reply: reply if reply == "good" else None) == "good"
    assert len(provider.requests) == 2


def test_evolver_sends_a_failed_prompt_again():
    class FailsOnce(ScriptedProvider):
        def chat(self, req):
            if not self.requests:
                self.requests.append(req)
                raise ProviderError("transient", attempts=3)
            return super().chat(req)

    provider = FailsOnce(["late"])
    evolver = Evolver(provider, "big")
    assert evolver.ask("p", str) is None
    assert evolver.ask("p", str) == "late"
    assert evolver.ask("p", str) == "late"
    assert len(provider.requests) == 2  # the failure, then the one kept


def test_evolver_returns_the_first_parsed_reply():
    provider = ScriptedProvider(["good", "later"])
    evolver = Evolver(provider, "big")
    assert evolver.ask("p", lambda reply: reply if reply == "good" else None) == "good"
    assert [r.model_id for r in provider.requests] == ["big"]
    assert provider.requests[0].temperature == 1.0
    assert provider.requests[0].messages == ({"role": "user", "content": "p"},)


def test_evolver_logs_a_swallowed_provider_failure(caplog):
    evolver = Evolver(ScriptedProvider(["x"], fail_after=0), "big")
    with caplog.at_level("WARNING", logger="nicheflow.provider"):
        assert evolver.ask("p", str) is None
    [record] = caplog.records
    assert record.levelname == "WARNING"
    assert "big" in record.getMessage()
    assert "scripted transport failure" in record.getMessage()
