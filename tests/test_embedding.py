import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicheflow.embedding import (
    HashingEmbedder,
    _check_unit,
    _parse_tag_reply,
    _unit_vector,
    cosine,
    generate_tags,
    similarity_score,
    structural_tags,
    tag_profile,
)
from nicheflow.errors import InvalidInput, InvalidState
from nicheflow.provider import Evolver

from conftest import ScriptedProvider, build_genome, unit_vec


def test_hashing_embedder_is_deterministic_unit_norm(embedder):
    a = embedder.embed("arithmetic word problems")
    b = embedder.embed("arithmetic word problems")
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_hashing_embedder_strips_whitespace(embedder):
    assert np.array_equal(embedder.embed("  math "), embedder.embed("math"))


def test_hashing_embedder_rejects_empty(embedder):
    with pytest.raises(InvalidInput):
        embedder.embed("   ")


def test_hashing_embedder_handles_symbol_only_text(embedder):
    v = embedder.embed("!!! ???")
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_hashing_embedder_rejects_tiny_dim():
    with pytest.raises(InvalidInput):
        HashingEmbedder(dim=1)


def test_embedder_cache_returns_same_object(embedder):
    assert embedder.embed("cached") is embedder.embed("cached")
    assert HashingEmbedder(dim=64).embed("cached") is embedder.embed("cached")
    with pytest.raises(ValueError):  # shared, so read-only
        embedder.embed("cached")[0] = 1.0


_PADDING = st.sampled_from(["", " ", "\t", "\n  "])


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(min_value=2, max_value=64),
        _PADDING,
        st.text(alphabet="ab1 !?", min_size=1, max_size=12).filter(str.strip),
        _PADDING,
    ),
    min_size=1, max_size=20,
))
def test_shared_cache_serves_what_the_miss_path_computes(draws):
    """Dims and texts interleaved, with surrounding whitespace and texts with
    no alphanumerics: one entry per (dim, stripped text), none shared across
    dims, each equal to a fresh embedding."""
    _unit_vector.cache_clear()
    for dim, before, text, after in draws:
        got = HashingEmbedder(dim).embed(before + text + after)
        want = _check_unit(HashingEmbedder(dim)._embed_uncached(text.strip()))
        assert got.shape == want.shape == (dim,)
        assert np.array_equal(got, want)
        assert HashingEmbedder(dim).embed(text.strip()) is got
    keys = {(dim, text.strip()) for dim, _, text, _ in draws}
    assert _unit_vector.cache_info().currsize == len(keys)


def test_cosine_identity_and_orthogonal():
    u = unit_vec(8, 1.0)
    v = unit_vec(8, 0.0)
    assert cosine(u, u) == pytest.approx(1.0)
    assert cosine(u, v) == pytest.approx(0.0)
    assert cosine(u, unit_vec(8, 0.5)) == pytest.approx(0.5)


def test_cosine_symmetry_and_dim_mismatch():
    rng = np.random.default_rng(0)
    u, v = rng.normal(size=16), rng.normal(size=16)
    assert cosine(u, v) == pytest.approx(cosine(v, u))
    with pytest.raises(InvalidInput):
        cosine(u, rng.normal(size=8))


def test_similarity_score_is_sum_of_tag_cosines(embedder):
    g = build_genome(tags=["algebra", "geometry", "proofs", "counting", "speed"])
    q = embedder.embed("algebra homework")
    expected = sum(float(np.dot(embedder.embed(t), q)) for t in g.tags)
    assert similarity_score(g, q, embedder) == pytest.approx(expected, abs=1e-12)


def test_identical_tags_score_kappa(embedder):
    g = build_genome(tags=["algebra"] * 5)
    q = embedder.embed("algebra")
    assert similarity_score(g, q, embedder) == pytest.approx(5.0, abs=1e-9)


def test_similarity_requires_tag_vectors(embedder):
    g = build_genome(tags=[])
    with pytest.raises(InvalidState, match="no tags"):
        similarity_score(g, embedder.embed("x"), embedder)
    with pytest.raises(InvalidState, match="no tags"):
        tag_profile(g, embedder)


def test_tag_profile_is_unit_mean(embedder):
    g = build_genome(tags=["a b", "c d", "e f", "g h", "i j"])
    mean = np.mean(np.stack([embedder.embed(t) for t in g.tags]), axis=0)
    expected = mean / np.linalg.norm(mean)
    assert np.allclose(tag_profile(g, embedder), expected, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abcdefgh 123", min_size=1, max_size=40).filter(str.strip))
def test_embed_property_unit_norm_deterministic(text):
    e = HashingEmbedder(dim=32)
    v = e.embed(text)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
    assert np.array_equal(v, HashingEmbedder(dim=32).embed(text))


# --- tag generation -----------------------------------------------------------

def test_parse_tag_reply_uses_last_line_and_truncates():
    reply = "Sure, here are the tags:\nmath, algebra, easy, fast, cheap, extra"
    assert _parse_tag_reply(reply, 5) == ["math", "algebra", "easy", "fast", "cheap"]
    assert _parse_tag_reply("only, three, tags", 5) is None
    assert _parse_tag_reply("", 5) is None


def test_generate_tags_without_provider_is_structural(pool):
    g = build_genome(kinds=("CoT", "Debate"))
    tags = generate_tags(g, None, pool, 5)
    assert tags == structural_tags(g, pool, 5)
    assert len(tags) == 5


def test_structural_tags_reflect_structure(pool):
    g = build_genome(kinds=("CoT",), model="tiny")
    tags = structural_tags(g, pool, 5)
    assert "CoT reasoning" in tags
    assert "model tiny" in tags
    assert len(tags) == 5
    assert len(structural_tags(g, pool, 8)) == 8


def test_generate_tags_from_wellformed_reply(pool):
    provider = ScriptedProvider(["alpha, beta, gamma, delta, epsilon"])
    g = build_genome()
    tags = generate_tags(g, Evolver(provider, "big"), pool, 5)
    assert tags == ["alpha", "beta", "gamma", "delta", "epsilon"]
    assert len(provider.requests) == 1


def test_generate_tags_asks_for_kappa_tags(pool):
    tags = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    provider = ScriptedProvider([", ".join(tags)])
    g = build_genome()
    assert generate_tags(g, Evolver(provider, "big"), pool, kappa=7) == tags
    assert len(provider.requests) == 1
    assert "exactly 7 short tags" in provider.requests[0].messages[-1]["content"]


def test_generate_tags_falls_back_on_a_malformed_reply(pool):
    provider = ScriptedProvider(["nope", "alpha, beta, gamma, delta, epsilon"])
    g = build_genome()
    tags = generate_tags(g, Evolver(provider, "big"), pool, 5)
    assert tags == structural_tags(g, pool, 5)
    assert len(provider.requests) == 1


def test_generate_tags_falls_back_on_transport_failure(pool):
    provider = ScriptedProvider(["x"], fail_after=0)
    g = build_genome()
    tags = generate_tags(g, Evolver(provider, "big"), pool, 5)
    assert tags == structural_tags(g, pool, 5)


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet="ab,c \n", max_size=30))
def test_generate_tags_always_returns_kappa(reply):
    from nicheflow.genome import ModelPool
    from conftest import MODEL_SPECS

    pool = ModelPool(MODEL_SPECS)
    g = build_genome()
    tags = generate_tags(g, Evolver(ScriptedProvider([reply]), "big"), pool, 5)
    assert len(tags) == 5
    assert all(t.strip() for t in tags)
