import copy
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from nicheflow import evolution
from nicheflow.embedding import HashingEmbedder, cosine, tag_profile
from nicheflow.errors import ConfigError, InvalidState
from nicheflow.evolution import (
    EvolutionConfig,
    EvolveDeps,
    NichingPool,
    NormBox,
    ObjectivePoint,
    Population,
    chain_edges,
    choose_workflow,
    combined_ranks,
    crossover,
    dominates,
    environmental_selection,
    epsilon_indicator,
    evolve_step,
    fitness,
    infer,
    init_population,
    make_evolver,
    mutate_llm,
    mutate_operator,
    mutate_prompt,
    niching_area,
    renumber_operators,
    select_parents,
    update_stats,
)
from nicheflow.executor import TaskQuery
from nicheflow.genome import (
    ModelPool, ModelSpec, RunStats, content_hash, serialize, to_document, validate,
)
from nicheflow.memory import LlmExperiencePool, WorkflowExperiencePool
from nicheflow.provider import Evolver, make_task_envelope, parse_task_envelope
from nicheflow.operators import DEFAULT_OPERATOR_REPO

from conftest import (
    MODEL_SPECS,
    FreshEmbedder,
    RecordingProvider,
    ScriptedProvider,
    TableEmbedder,
    build_genome,
    unit_vec,
)


# --- helpers / oracles -----------------------------------------------------------

# The hand-picked vectors of the genomes below, under tag texts unique to each.
VECTORS = TableEmbedder()
QUERY = "Compute 5 + 7."  # the query a crossover prompt quotes
_tag_ids = itertools.count()


def _tagged(wid, vecs, stats):
    tags = [f"{wid} tag {next(_tag_ids)}" for _ in vecs]
    VECTORS.table.update(zip(tags, vecs))
    return dataclasses.replace(build_genome(tags=tags), workflow_id=wid, stats=stats)


def _vec_genome(wid, profile_cos, mean_cost=0.0, perf=0.0, n_exec=1, dim=8):
    """One-tag genome with a hand-picked tag vector and stats."""
    return _tagged(wid, [unit_vec(dim, profile_cos)],
                   RunStats(exec_count=n_exec, mean_cost=mean_cost, mean_perf=perf))


def _rand_tag_genome(rng, wid, dim=8, n_tags=3):
    vecs = []
    for _ in range(n_tags):
        v = rng.normal(size=dim)
        vecs.append(v / np.linalg.norm(v))
    return _tagged(wid, vecs, RunStats(exec_count=1, mean_cost=float(rng.random() * 5),
                                       mean_perf=float(rng.random())))


def oracle_select_parents(members, query_vec, k):
    scored = []
    for m in members:
        s = 0.0
        for t in m.tags:
            s += float(np.dot(VECTORS.table[t], query_vec))
        scored.append((-s, m.workflow_id))
    scored.sort()
    return [wid for _, wid in scored[:k]]


def oracle_combined_ranks(members, offspring):
    off = tag_profile(offspring, VECTORS)
    kappa = len(offspring.tags)
    sims = {m.workflow_id: kappa * float(np.dot(off, tag_profile(m, VECTORS))) for m in members}
    dists = {
        m.workflow_id: abs(offspring.stats.mean_cost - m.stats.mean_cost)
        for m in members
    }
    by_sim = sorted(members, key=lambda g: (-sims[g.workflow_id], g.workflow_id))
    by_cost = sorted(members, key=lambda g: (dists[g.workflow_id], g.workflow_id))
    rs = {g.workflow_id: i for i, g in enumerate(by_sim)}
    rc = {g.workflow_id: i for i, g in enumerate(by_cost)}
    return {m.workflow_id: rs[m.workflow_id] + rc[m.workflow_id] for m in members}


def oracle_fitness(points, phi):
    ids = sorted(points)
    perfs = [points[i].perf for i in ids]
    costs = [points[i].cost for i in ids]
    pmin, pmax, cmin, cmax = min(perfs), max(perfs), min(costs), max(costs)

    def g(p):
        g1 = 0.5 if pmax == pmin else (p.perf - pmin) / (pmax - pmin)
        g2 = 0.5 if cmax == cmin else 1.0 - (p.cost - cmin) / (cmax - cmin)
        return g1, g2

    inds = {}
    for y in ids:
        for x in ids:
            if x != y:
                gy, gx = g(points[y]), g(points[x])
                inds[(y, x)] = max(gx[0] - gy[0], gx[1] - gy[1])
    imax = max(abs(v) for v in inds.values())
    div = phi * imax if imax > 0 else 1.0
    return {
        x: sum(math.exp(-inds[(y, x)] / div) for y in ids if y != x) for x in ids
    }


# --- config ------------------------------------------------------------------------

def test_config_defaults_match_reference_hyperparameters():
    cfg = EvolutionConfig()
    assert cfg.population_size == 15
    assert cfg.parents_k == 3
    assert cfg.kappa == 5
    assert cfg.niche_size == 5
    assert cfg.phi == pytest.approx(0.05)


@pytest.mark.parametrize("field,value", [
    ("population_size", 1),
    ("parents_k", 0),
    ("parents_k", 99),
    ("niche_size", 0),
    ("kappa", 0),
    ("phi", 0.0),
    ("m_max", 0),
])
def test_config_check_rejects_bad_values(field, value):
    with pytest.raises(ConfigError):
        dataclasses.replace(EvolutionConfig(), **{field: value})


# --- initialization ------------------------------------------------------------------

def test_init_population_is_valid_and_reproducible(pool, embedder):
    cfg = EvolutionConfig(population_size=10)
    p1 = init_population(cfg, DEFAULT_OPERATOR_REPO, pool, embedder,
                         np.random.default_rng([3, 0]), seed=3)
    p2 = init_population(cfg, DEFAULT_OPERATOR_REPO, pool, embedder,
                         np.random.default_rng([3, 0]), seed=3)
    assert len(p1.members) == 10
    assert [serialize(m) for m in p1.members] == [serialize(m) for m in p2.members]
    for m in p1.members:
        assert validate(m, pool, 5) == []
        assert 1 <= len(m.operators) <= cfg.m_max
        assert len(m.tags) == cfg.kappa
    assert len(p1.ids) == 10


def test_init_population_covers_the_model_pool(pool, embedder):
    cfg = EvolutionConfig(population_size=40)
    p = init_population(cfg, DEFAULT_OPERATOR_REPO, pool, embedder,
                        np.random.default_rng([9, 0]), seed=9)
    used = {n.model_id for m in p.members for op in m.operators for n in op.invoking_nodes}
    assert used == set(pool.model_ids)


def test_init_population_single_template_repo(pool, embedder):
    p = init_population(EvolutionConfig(population_size=5), ["CoT"], pool, embedder,
                        np.random.default_rng([1, 0]), seed=1)
    assert all(op.kind == "CoT" for m in p.members for op in m.operators)


def test_init_population_rejects_empty_inputs(pool, embedder):
    with pytest.raises(ConfigError):
        init_population(EvolutionConfig(), [], pool, embedder, np.random.default_rng(0), seed=0)


# --- parent retrieval ------------------------------------------------------------------

def test_select_parents_matches_oracle_small():
    rng = np.random.default_rng(2)
    members = [_rand_tag_genome(rng, f"w{i:02d}") for i in range(20)]
    q = rng.normal(size=8)
    q = q / np.linalg.norm(q)
    got = [g.workflow_id for g in select_parents(members, q, 4, VECTORS)]
    assert got == oracle_select_parents(members, q, 4)


def test_select_parents_breaks_ties_by_id():
    a = _vec_genome("bbb", 0.8)
    b = _vec_genome("aaa", 0.8)
    got = select_parents([a, b], unit_vec(8, 1.0), 1, VECTORS)
    assert got[0].workflow_id == "aaa"


def test_select_parents_k_equals_population():
    rng = np.random.default_rng(3)
    members = [_rand_tag_genome(rng, f"w{i}") for i in range(5)]
    q = unit_vec(8, 1.0)
    assert len(select_parents(members, q, 5, VECTORS)) == 5


# --- crossover -----------------------------------------------------------------------

def test_crossover_fallback_grafts_a_segment(pool):
    p1 = build_genome(kinds=("CoT", "StepBack"), wid=None)
    p2 = build_genome(kinds=("Debate", "Ensemble", "ReAct"))
    cfg = EvolutionConfig()
    child = crossover([p1, p2], None, cfg, np.random.default_rng(5), pool, set(), QUERY)
    kinds1 = [op.kind for op in p1.operators]
    kinds2 = [op.kind for op in p2.operators]
    child_kinds = [op.kind for op in child.operators]
    assert len(p1.operators) + 1 <= len(child.operators) <= len(p1.operators) + len(p2.operators)
    # every parent-1 operator survives; the extras are a contiguous parent-2 slice
    for k in kinds1:
        child_kinds.remove(k)
    assert child_kinds == kinds2[kinds2.index(child_kinds[0]):
                                 kinds2.index(child_kinds[0]) + len(child_kinds)]
    assert child.lineage["mode"] == "fallback"
    assert child.lineage["parents"] == [p1.workflow_id, p2.workflow_id]
    assert validate(child.with_tags([f"t{i}" for i in range(5)]), pool, 5) == []
    # offspring is rewired as a chain with sequential ids
    assert child.op_ids == [f"op{i}" for i in range(len(child.operators))]
    assert child.inter_edges == chain_edges(child.operators)


def test_crossover_single_parent_clones_with_fresh_id(pool):
    p1 = build_genome(kinds=("CoT",))
    child = crossover([p1], None, EvolutionConfig(), np.random.default_rng(0), pool,
                      {p1.workflow_id}, QUERY)
    assert [op.kind for op in child.operators] == ["CoT"]
    assert child.workflow_id != p1.workflow_id
    assert child.stats == RunStats()


def test_crossover_is_rng_deterministic(pool):
    p1 = build_genome(kinds=("CoT", "Debate"))
    p2 = build_genome(kinds=("Ensemble", "StepBack"))
    c1 = crossover([p1, p2], None, EvolutionConfig(), np.random.default_rng(7), pool,
                   set(), QUERY)
    c2 = crossover([p1, p2], None, EvolutionConfig(), np.random.default_rng(7), pool,
                   set(), QUERY)
    assert serialize(c1) == serialize(c2)


def test_crossover_requires_a_parent(pool):
    with pytest.raises(ConfigError):
        crossover([], None, EvolutionConfig(), np.random.default_rng(0), pool, set(), QUERY)


def test_llm_crossover_uses_a_valid_reply(pool):
    p1 = build_genome(kinds=("CoT",))
    p2 = build_genome(kinds=("StepBack",))
    proposal = build_genome(kinds=("Ensemble", "CoT"))
    provider = ScriptedProvider(["Here you go:\n" + serialize(proposal)])
    evolver = Evolver(provider, "big")
    child = crossover([p1, p2], evolver, EvolutionConfig(), np.random.default_rng(0), pool,
                      set(), QUERY)
    assert [op.kind for op in child.operators] == ["Ensemble", "CoT"]
    assert child.lineage["mode"] == "llm"


def test_llm_crossover_falls_back_after_malformed_replies(pool):
    p1 = build_genome(kinds=("CoT",))
    p2 = build_genome(kinds=("StepBack",))
    provider = ScriptedProvider(["still { not json", serialize(p1)])
    evolver = Evolver(provider, "big")
    child = crossover([p1, p2], evolver, EvolutionConfig(), np.random.default_rng(0), pool,
                      set(), QUERY)
    assert child.lineage["mode"] == "fallback"
    assert len(provider.requests) == 1


def test_llm_crossover_falls_back_on_a_reply_with_bad_params(pool):
    p1 = build_genome(kinds=("CoT",))
    p2 = build_genome(kinds=("StepBack",))
    proposal = to_document(build_genome(kinds=("SelfConsistency",)))
    proposal["operators"][0]["params"] = {"samples": 0}
    provider = ScriptedProvider([json.dumps(proposal)])
    child = crossover([p1, p2], Evolver(provider, "big"), EvolutionConfig(),
                      np.random.default_rng(0), pool, set(), QUERY)
    assert child.lineage["mode"] == "fallback"
    assert len(provider.requests) == 1


# --- mutations -------------------------------------------------------------------------

def test_mutate_llm_noop_cases(pool):
    from nicheflow.genome import ModelPool, ModelSpec

    g = build_genome(kinds=("CoT",))
    single = ModelPool([ModelSpec("tiny", 0.1, 0.1)])
    assert mutate_llm(g, LlmExperiencePool(), single, np.random.default_rng(0), "easy",
                      rho=1.0) is g
    assert mutate_llm(g, LlmExperiencePool(), pool, np.random.default_rng(0), "easy", rho=0.0) is g


def test_mutate_llm_always_swaps_at_rho_one(pool):
    g = build_genome(kinds=("CoT",), model="tiny")
    out = mutate_llm(g, LlmExperiencePool(), pool, np.random.default_rng(1), "easy", rho=1.0)
    assert out.operators[0].invoking_nodes[0].model_id != "tiny"
    assert out.operators[0].invoking_nodes[0].model_id in pool


def test_mutate_llm_prefers_historically_positive_models(pool):
    llm_pool = LlmExperiencePool()
    for _ in range(30):
        for model, positive in [("big", True), ("mid", False), ("small", False)]:
            llm_pool.append(model, positive, "easy")
    g = build_genome(kinds=("CoT",), model="tiny")
    rng = np.random.default_rng(123)
    picks = {"big": 0, "mid": 0, "small": 0}
    for _ in range(300):
        out = mutate_llm(g, llm_pool, pool, rng, domain="easy", rho=1.0)
        picks[out.operators[0].invoking_nodes[0].model_id] += 1
    assert picks["big"] >= 3 * (picks["mid"] + picks["small"])


def test_mutate_llm_only_touches_model_ids(pool):
    g = build_genome(kinds=("Debate",))
    out = mutate_llm(g, LlmExperiencePool(), pool, np.random.default_rng(2), "easy", rho=1.0)
    for a, b in zip(g.operators[0].invoking_nodes, out.operators[0].invoking_nodes):
        assert a.prompt == b.prompt
        assert a.node_id == b.node_id
    assert validate(out.with_tags([f"t{i}" for i in range(5)]), pool, 5) == []


def test_mutate_llm_keeps_each_operator_none_of_whose_nodes_changed(pool):
    g = build_genome(kinds=("CoT",) * 6)
    out = mutate_llm(g, LlmExperiencePool(), pool, np.random.default_rng(4), "easy", rho=0.5)
    kept = [b is a for a, b in zip(g.operators, out.operators)]
    assert any(kept) and not all(kept)
    for a, b, same in zip(g.operators, out.operators, kept):
        assert same == (a.invoking_nodes == b.invoking_nodes)


def _two_model_genome():
    """Debate and CoT on ``tiny`` around an Ensemble on ``small``."""
    g = build_genome(kinds=("Debate", "Ensemble", "CoT"), model="tiny")
    middle = g.operators[1]
    nodes = tuple(dataclasses.replace(n, model_id="small") for n in middle.invoking_nodes)
    ops = (g.operators[0], dataclasses.replace(middle, invoking_nodes=nodes), g.operators[2])
    return dataclasses.replace(g, operators=ops)


def _nodes(genome):
    return [n for op in genome.operators for n in op.invoking_nodes]


def test_mutate_llm_takes_the_evolvers_pick(pool):
    g = _two_model_genome()
    provider = ScriptedProvider(["I would use mid"])
    out = mutate_llm(g, LlmExperiencePool(), pool, np.random.default_rng(1), "easy", rho=0.5,
                     evolver=Evolver(provider, "big"))
    models = [n.model_id for n in _nodes(out)]
    assert set(models) == {"tiny", "small", "mid"}
    # every picked node swaps; the evolver is asked once per distinct
    # current model among them, as the prompt names only that model
    picked = {a.model_id for a, b in zip(_nodes(g), _nodes(out)) if b.model_id == "mid"}
    assert picked == {"tiny", "small"}
    assert len(provider.requests) == len(picked)
    assert {r.model_id for r in provider.requests} == {"big"}


def test_mutate_llm_falls_back_when_the_evolver_names_no_pool_model(pool):
    g = _two_model_genome()
    provider = ScriptedProvider(["Understood. Proceeding with the given instructions."])
    with_evolver = mutate_llm(g, LlmExperiencePool(), pool, np.random.default_rng(3), "easy",
                              rho=0.5, evolver=Evolver(provider, "big"))
    without = mutate_llm(g, LlmExperiencePool(), pool, np.random.default_rng(3), "easy", rho=0.5)
    assert serialize(with_evolver) == serialize(without) != serialize(g)
    # the fallback swaps every picked node, and the evolver was asked once
    # per distinct current model among them
    picked = {a.model_id for a, b in zip(_nodes(g), _nodes(without)) if a.model_id != b.model_id}
    assert len(picked) == 2
    assert len(provider.requests) == len(picked)


def test_mutate_prompt_noop_at_rho_zero():
    g = build_genome(kinds=("CoT",))
    assert mutate_prompt(g, WorkflowExperiencePool(), np.random.default_rng(0), rho=0.0) is g


def test_mutate_prompt_preserves_placeholders(pool):
    g = build_genome(kinds=("Debate", "ReAct"))
    out = mutate_prompt(g, WorkflowExperiencePool(), np.random.default_rng(4), rho=1.0)
    changed = 0
    for op_a, op_b in zip(g.operators, out.operators):
        for a, b in zip(op_a.invoking_nodes, op_b.invoking_nodes):
            import re

            ph = set(re.findall(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}", a.prompt))
            ph_after = set(re.findall(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}", b.prompt))
            assert ph <= ph_after
            changed += a.prompt != b.prompt
    assert changed > 0


def test_mutate_prompt_discards_llm_edit_that_drops_placeholder(pool):
    g = build_genome(kinds=("CoT",))
    evolver = Evolver(ScriptedProvider(["a rewrite with no placeholders at all"]), "big")
    out = mutate_prompt(g, WorkflowExperiencePool(), np.random.default_rng(0), rho=1.0,
                        evolver=evolver)
    assert out.operators[0].invoking_nodes[0].prompt == g.operators[0].invoking_nodes[0].prompt


def test_mutate_prompt_accepts_llm_edit_that_keeps_placeholders(pool):
    g = build_genome(kinds=("CoT",))
    evolver = Evolver(ScriptedProvider(["Improved: {task} {context} -- answer carefully."]), "big")
    out = mutate_prompt(g, WorkflowExperiencePool(), np.random.default_rng(0), rho=1.0,
                        evolver=evolver)
    assert out.operators[0].invoking_nodes[0].prompt.startswith("Improved:")


def test_mutate_operator_results_always_validate(pool, embedder):
    cfg = EvolutionConfig(population_size=8)
    pop = init_population(cfg, DEFAULT_OPERATOR_REPO, pool, embedder,
                          np.random.default_rng([4, 0]), seed=4)
    rng = np.random.default_rng(42)
    for _ in range(300):
        g = pop.members[int(rng.integers(len(pop.members)))]
        out = mutate_operator(g, rng, pool=pool, cfg=cfg, repo=DEFAULT_OPERATOR_REPO)
        assert validate(out, pool, 5) == []


def test_mutate_operator_add_inserts_one(pool, monkeypatch):
    g = build_genome(kinds=("CoT",))
    monkeypatch.setattr(evolution, "MUTATION_WEIGHTS", np.array([1.0, 0.0, 0.0]))
    out = mutate_operator(g, np.random.default_rng(0), pool, EvolutionConfig(),
                          DEFAULT_OPERATOR_REPO)
    assert len(out.operators) == 2
    assert out.inter_edges == chain_edges(out.operators)


def test_mutate_operator_delete_keeps_single_op(pool, monkeypatch):
    g = build_genome(kinds=("CoT",))
    monkeypatch.setattr(evolution, "MUTATION_WEIGHTS", np.array([0.0, 1.0, 0.0]))
    out = mutate_operator(g, np.random.default_rng(0), pool, EvolutionConfig(),
                          DEFAULT_OPERATOR_REPO)
    assert out is g


def test_mutate_operator_delete_removes_non_sink(pool, monkeypatch):
    g = build_genome(kinds=("CoT", "Debate", "StepBack"))
    monkeypatch.setattr(evolution, "MUTATION_WEIGHTS", np.array([0.0, 1.0, 0.0]))
    out = mutate_operator(g, np.random.default_rng(1), pool, EvolutionConfig(),
                          DEFAULT_OPERATOR_REPO)
    assert len(out.operators) == 2
    # the original sink's kind survives
    assert out.operators[-1].kind == "StepBack"
    assert validate(out, pool, 5) == []


def test_mutate_operator_rewire_adds_forward_edge(pool, monkeypatch):
    g = build_genome(kinds=("CoT", "Debate", "StepBack"))
    monkeypatch.setattr(evolution, "MUTATION_WEIGHTS", np.array([0.0, 0.0, 1.0]))
    out = mutate_operator(g, np.random.default_rng(2), pool, EvolutionConfig(),
                          DEFAULT_OPERATOR_REPO)
    assert len(out.inter_edges) == len(g.inter_edges) + 1
    assert validate(out, pool, 5) == []


def test_renumber_operators_remaps_intra_edges():
    g = build_genome(kinds=("StepBack", "StepBack"))
    renumbered = renumber_operators(tuple(reversed(g.operators)))
    assert [op.op_id for op in renumbered] == ["op0", "op1"]
    for op in renumbered:
        node_ids = {n.node_id for n in op.invoking_nodes}
        for a, b in op.intra_edges:
            assert a in node_ids and b in node_ids


# --- niching ---------------------------------------------------------------------------

def test_niching_area_worked_example():
    off = _vec_genome("off", 1.0, mean_cost=0.5)
    a = _vec_genome("a", 0.9, mean_cost=0.7)
    b = _vec_genome("b", 0.5, mean_cost=0.6)
    c = _vec_genome("c", 0.1, mean_cost=0.2)
    pop = Population(members=[a, b, c])
    ranks = combined_ranks(pop, off, VECTORS)
    assert ranks == {"a": 1, "b": 1, "c": 4}
    niche = niching_area(pop, off, e=2, embedder=VECTORS)
    assert [g.workflow_id for g in niche.area] == ["a", "b"]


def test_niching_identical_member_ranks_zero():
    off = _vec_genome("off", 0.7, mean_cost=1.25)
    twin = _vec_genome("twin", 0.7, mean_cost=1.25)
    other = _vec_genome("other", -0.2, mean_cost=9.0)
    pop = Population(members=[other, twin])
    ranks = combined_ranks(pop, off, VECTORS)
    assert ranks["twin"] == 0
    niche = niching_area(pop, off, e=1, embedder=VECTORS)
    assert niche.area[0].workflow_id == "twin"


def test_niching_area_whole_population():
    rng = np.random.default_rng(8)
    members = [_rand_tag_genome(rng, f"w{i}") for i in range(6)]
    off = _rand_tag_genome(rng, "off")
    niche = niching_area(Population(members=members), off, e=6, embedder=VECTORS)
    assert {g.workflow_id for g in niche.area} == {m.workflow_id for m in members}


def test_niching_matches_oracle_on_random_instances():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        members = [_rand_tag_genome(rng, f"w{i:02d}") for i in range(n)]
        off = _rand_tag_genome(rng, "off")
        e = int(rng.integers(1, n + 1))
        ranks = oracle_combined_ranks(members, off)
        expected = sorted(members, key=lambda g: (ranks[g.workflow_id], g.workflow_id))[:e]
        got = niching_area(Population(members=members), off, e=e, embedder=VECTORS)
        assert [g.workflow_id for g in got.area] == [g.workflow_id for g in expected]


def test_niching_pool_dedup_and_candidates():
    a = _vec_genome("a", 0.9)
    b = _vec_genome("b", 0.5)
    off = _vec_genome("off", 1.0)
    niche = NichingPool(offspring=off, parents=(a,), area=(a, b))
    assert [g.workflow_id for g in niche.exec_members] == ["a", "b", "off"]
    assert [g.workflow_id for g in niche.selection_candidates] == ["a", "b", "off"]
    niche2 = NichingPool(offspring=off, parents=(a,), area=(b,))
    assert [g.workflow_id for g in niche2.exec_members] == ["b", "a", "off"]
    assert [g.workflow_id for g in niche2.selection_candidates] == ["b", "off"]


# --- stats -----------------------------------------------------------------------------

def test_update_stats_first_observation():
    g = build_genome()
    out = update_stats(g, 0.25, 1.0)
    assert out.stats == RunStats(exec_count=1, mean_cost=0.25, mean_perf=1.0)


def test_update_stats_running_mean():
    g = build_genome()
    for cost, perf in [(1.0, 1.0), (2.0, 0.0), (4.0, 1.0)]:
        g = update_stats(g, cost, perf)
    assert g.stats.exec_count == 3
    assert g.stats.mean_cost == pytest.approx(7 / 3, abs=1e-12)
    assert g.stats.mean_perf == pytest.approx(2 / 3, abs=1e-12)


def test_update_stats_validates_inputs():
    g = build_genome()
    with pytest.raises(ConfigError):
        update_stats(g, -0.1, 1.0)
    with pytest.raises(ConfigError):
        update_stats(g, 0.1, 1.5)


def test_update_stats_matches_batch_mean():
    rng = np.random.default_rng(6)
    g = build_genome()
    costs = rng.random(1000) * 10
    perfs = rng.random(1000)
    for c, p in zip(costs, perfs):
        g = update_stats(g, float(c), float(p))
    assert g.stats.mean_cost == pytest.approx(float(np.mean(costs)), abs=1e-9)
    assert g.stats.mean_perf == pytest.approx(float(np.mean(perfs)), abs=1e-9)


# --- dominance and indicator ------------------------------------------------------------

def test_dominates_examples():
    assert dominates(ObjectivePoint(0.9, 1.0), ObjectivePoint(0.8, 1.0))
    assert dominates(ObjectivePoint(0.9, 0.5), ObjectivePoint(0.9, 1.0))
    assert not dominates(ObjectivePoint(0.9, 1.0), ObjectivePoint(0.9, 1.0))
    assert not dominates(ObjectivePoint(0.9, 2.0), ObjectivePoint(0.8, 1.0))
    assert not dominates(ObjectivePoint(0.8, 1.0), ObjectivePoint(0.9, 2.0))


def test_dominance_axioms_random():
    rng = np.random.default_rng(12)
    pts = [ObjectivePoint(float(rng.random()), float(rng.random() * 4)) for _ in range(200)]
    for p in pts:
        assert not dominates(p, p)  # irreflexive
    for i in range(0, 198, 2):
        a, b = pts[i], pts[i + 1]
        assert not (dominates(a, b) and dominates(b, a))  # asymmetric


def test_epsilon_indicator_examples():
    box = NormBox(0.0, 1.0, 0.0, 1.0)
    a = ObjectivePoint(1.0, 1.0)  # g = (1, 0)
    b = ObjectivePoint(0.5, 0.5)  # g = (0.5, 0.5)
    assert epsilon_indicator(a, b, box) == pytest.approx(0.5)
    assert epsilon_indicator(b, a, box) == pytest.approx(0.5)
    assert epsilon_indicator(a, a, box) == pytest.approx(0.0)


def test_dominating_point_has_smaller_indicator():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 200:
        a = ObjectivePoint(float(rng.random()), float(rng.random()))
        b = ObjectivePoint(float(rng.random()), float(rng.random()))
        if not dominates(a, b):
            continue
        box = NormBox.from_points([a, b])
        assert epsilon_indicator(a, b, box) < epsilon_indicator(b, a, box)
        checked += 1


def test_normbox_degenerate_axis_pins_half():
    box = NormBox.from_points([ObjectivePoint(0.5, 1.0), ObjectivePoint(0.5, 3.0)])
    g1, g2 = box.maximize_coords(ObjectivePoint(0.5, 1.0))
    assert g1 == 0.5
    assert g2 == 1.0


# --- fitness -----------------------------------------------------------------------------

WORKED_POINTS = {
    "A": ObjectivePoint(1.0, 1.0),   # normalized (1, 0)
    "B": ObjectivePoint(0.5, 0.5),   # normalized (0.5, 0.5)
    "C": ObjectivePoint(0.0, 0.0),   # normalized (0, 1)
}


def test_fitness_worked_example_values():
    fit = fitness(WORKED_POINTS, phi=0.05)
    assert fit["A"] == pytest.approx(math.exp(-10) + math.exp(-20), abs=1e-9)
    assert fit["B"] == pytest.approx(2 * math.exp(-10), abs=1e-9)
    assert fit["C"] == pytest.approx(math.exp(-10) + math.exp(-20), abs=1e-9)
    assert max(fit, key=fit.get) == "B"


def test_fitness_equals_oracle_random_pools():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        points = {
            f"w{i}": ObjectivePoint(float(rng.random()), float(rng.random() * 3))
            for i in range(n)
        }
        got = fitness(points, phi=0.05)
        want = oracle_fitness(points, 0.05)
        for k in points:
            assert got[k] == pytest.approx(want[k], abs=1e-9)


def test_fitness_identical_points_use_unit_divisor():
    points = {f"w{i}": ObjectivePoint(0.5, 1.0) for i in range(4)}
    fit = fitness(points, phi=0.05)
    assert all(v == pytest.approx(3.0) for v in fit.values())


def test_fitness_requires_two_points():
    with pytest.raises(ConfigError):
        fitness({"only": ObjectivePoint(1.0, 1.0)}, phi=0.05)


def test_fitness_point_dominated_by_all_is_worst():
    rng = np.random.default_rng(15)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        points = {
            f"w{i}": ObjectivePoint(float(0.5 + rng.random() * 0.5),
                                    float(rng.random()))
            for i in range(n)
        }
        points["loser"] = ObjectivePoint(0.01, 5.0)
        fit = fitness(points, phi=0.05)
        assert max(fit, key=fit.get) == "loser"


def test_fitness_is_scale_invariant_in_cost():
    rng = np.random.default_rng(16)
    points = {
        f"w{i}": ObjectivePoint(float(rng.random()), float(rng.random() * 2))
        for i in range(8)
    }
    scaled = {k: ObjectivePoint(p.perf, p.cost * 1000.0) for k, p in points.items()}
    f1, f2 = fitness(points, 0.05), fitness(scaled, 0.05)
    for k in points:
        assert f1[k] == pytest.approx(f2[k], rel=1e-9)


# --- environmental selection ---------------------------------------------------------------

def _stat_genome(wid, perf, cost):
    return _vec_genome(wid, 0.5, mean_cost=cost, perf=perf, n_exec=1)


def test_environmental_selection_worked_example_rejects_middle():
    a = _stat_genome("A", 1.0, 1.0)
    b = _stat_genome("B", 0.5, 0.5)
    c = _stat_genome("C", 0.0, 0.0)
    pop = Population(members=[a, c])
    niche = NichingPool(offspring=b, parents=(), area=(a, c))
    new_pop, eliminated = environmental_selection(pop, niche, phi=0.05)
    assert eliminated == "B"
    assert new_pop.ids == {"A", "C"}


def test_environmental_selection_admits_dominating_offspring():
    a = _stat_genome("A", 1.0, 1.0)
    b = _stat_genome("B", 0.5, 0.5)
    c = _stat_genome("C", 0.0, 0.0)
    d = _stat_genome("D", 1.0, 0.0)  # dominates everything
    pop = Population(members=[a, b, c])
    niche = NichingPool(offspring=d, parents=(), area=(a, b, c))
    new_pop, eliminated = environmental_selection(pop, niche, phi=0.05)
    assert "D" in new_pop.ids
    assert eliminated != "D"
    assert len(new_pop.members) == 3


def test_environmental_selection_keeps_population_size():
    rng = np.random.default_rng(17)
    for trial in range(30):
        members = [
            _stat_genome(f"w{i}", float(rng.random()), float(rng.random() * 2))
            for i in range(6)
        ]
        off = _stat_genome("off", float(rng.random()), float(rng.random() * 2))
        pop = Population(members=list(members))
        niche = NichingPool(offspring=off, parents=(), area=tuple(members[:4]))
        new_pop, eliminated = environmental_selection(pop, niche, phi=0.05)
        assert len(new_pop.members) == 6
        if eliminated == "off":
            assert new_pop.ids == pop.ids
        else:
            assert "off" in new_pop.ids and eliminated not in new_pop.ids


def test_environmental_selection_tiebreak_descending_id():
    # two identical objective points tie on fitness and cost; the later id loses
    a = _stat_genome("aaa", 0.5, 1.0)
    b = _stat_genome("bbb", 0.5, 1.0)
    c = _stat_genome("ccc", 1.0, 0.5)
    pop = Population(members=[a, b])
    niche = NichingPool(offspring=c, parents=(), area=(a, b))
    new_pop, eliminated = environmental_selection(pop, niche, phi=0.05)
    assert eliminated == "bbb"
    assert new_pop.ids == {"aaa", "ccc"}


def test_environmental_selection_rejects_unexecuted_candidates():
    a = _stat_genome("A", 1.0, 1.0)
    fresh = _vec_genome("F", 0.5, n_exec=0)
    pop = Population(members=[a])
    niche = NichingPool(offspring=fresh, parents=(), area=(a,))
    with pytest.raises(ConfigError):
        environmental_selection(pop, niche, phi=0.05)


def test_elimination_matches_oracle_argmax():
    rng = np.random.default_rng(18)
    for _ in range(50):
        n = int(rng.integers(3, 10))
        members = [
            _stat_genome(f"w{i:02d}", float(rng.random()), float(rng.random() * 2))
            for i in range(n)
        ]
        off = _stat_genome("zz-off", float(rng.random()), float(rng.random() * 2))
        pop = Population(members=list(members))
        niche = NichingPool(offspring=off, parents=(), area=tuple(members))
        _, eliminated = environmental_selection(pop, niche, phi=0.05)
        cands = list(members) + [off]
        fit = oracle_fitness(
            {g.workflow_id: ObjectivePoint(g.stats.mean_perf, g.stats.mean_cost)
             for g in cands},
            0.05,
        )
        expected = max(
            cands,
            key=lambda g: (fit[g.workflow_id], g.stats.mean_cost, g.workflow_id),
        ).workflow_id
        assert eliminated == expected


# --- the full step ---------------------------------------------------------------------

def _make_deps(pool, sim_provider, embedder, **cfg_kwargs):
    cfg = EvolutionConfig(population_size=8, niche_size=3, parents_k=2, **cfg_kwargs)
    return EvolveDeps(
        cfg=cfg,
        pool=pool,
        provider=sim_provider,
        embedder=embedder,
    )


def _task(i=0, domain="easy", gold="12"):
    env = make_task_envelope(f"q{i}", domain, gold)
    return TaskQuery(f"q{i}", f"Compute 5 + 7. {env}", domain=domain,
                     gold=gold, metric="numeric")


def test_evolve_step_preserves_size_and_advances_generation(pool, sim_provider, embedder):
    deps = _make_deps(pool, sim_provider, embedder)
    pop = init_population(deps.cfg, DEFAULT_OPERATOR_REPO, pool, embedder,
                          np.random.default_rng([21, 0]), seed=21)
    new_pop, report = evolve_step(pop, _task(), deps, np.random.default_rng([21, 1000]))
    assert len(new_pop.members) == 8
    assert new_pop.generation == 1
    assert len(new_pop.ids) == 8
    # at most E + K + 1 genomes executed
    assert len(report.evaluations) <= 3 + 2 + 1
    assert report.eliminated_id in report.evaluations or not report.accepted
    for m in new_pop.members:
        assert validate(m, pool, 5) == []


def test_evolve_step_leaves_its_input_population_as_it_was(pool, sim_provider, embedder):
    deps = _make_deps(pool, sim_provider, embedder)
    pop = init_population(deps.cfg, DEFAULT_OPERATOR_REPO, pool, embedder,
                          np.random.default_rng([21, 0]), seed=21)
    members = list(pop.members)
    new_pop, report = evolve_step(pop, _task(), deps, np.random.default_rng([21, 1000]))
    assert all(a is b for a, b in zip(pop.members, members, strict=True))
    assert pop.generation == 0
    # the executed incumbents come back as updated copies
    kept = [m for m in new_pop.members if m.workflow_id in report.evaluations
            and m.workflow_id != report.offspring_id]
    assert kept and all(m not in members for m in kept)


def test_evolve_step_raises_on_an_invalid_offspring(pool, sim_provider, embedder, monkeypatch):
    deps = _make_deps(pool, sim_provider, embedder)
    pop = init_population(deps.cfg, DEFAULT_OPERATOR_REPO, pool, embedder,
                          np.random.default_rng([21, 0]), seed=21)
    monkeypatch.setattr(evolution, "validate", lambda *a, **k: ["patched violation"])
    with pytest.raises(InvalidState, match="patched violation"):
        evolve_step(pop, _task(), deps, np.random.default_rng([21, 1000]))


def test_evolve_step_is_deterministic(pool, embedder):
    from nicheflow.provider import SimulatedProvider
    from conftest import SIM_PROFILES

    results = []
    for _ in range(2):
        deps = _make_deps(pool, SimulatedProvider(SIM_PROFILES, seed=7), embedder)
        pop = init_population(deps.cfg, DEFAULT_OPERATOR_REPO, pool, embedder,
                              np.random.default_rng([5, 0]), seed=5)
        for step in range(5):
            pop, report = evolve_step(pop, _task(step), deps,
                                      np.random.default_rng([5, 1000 + step]))
        results.append((sorted(serialize(m) for m in pop.members), report.to_doc()))
    assert results[0] == results[1]


@pytest.mark.parametrize("llm_evolution", [True, False])
def test_evolve_step_asks_the_configured_evolver_only_when_enabled(
    pool, sim_provider, embedder, llm_evolution
):
    provider = RecordingProvider(sim_provider)
    deps = _make_deps(pool, provider, embedder,
                      llm_evolution=llm_evolution, evolver_model="tiny")
    pop = init_population(deps.cfg, DEFAULT_OPERATOR_REPO, pool, embedder,
                          np.random.default_rng([25, 0]), seed=25)
    for step in range(3):
        provider.requests.clear()
        pop, _ = evolve_step(pop, _task(step), deps, np.random.default_rng([25, 1000 + step]))
        evolver_models = {
            r.model_id for r in provider.requests
            if parse_task_envelope(r.messages[0]["content"]) is None
        }
        assert evolver_models == ({"tiny"} if llm_evolution else set())


def test_make_evolver_rejects_an_evolver_model_outside_the_pool(pool, sim_provider):
    cfg = EvolutionConfig(llm_evolution=True, evolver_model="nope")
    with pytest.raises(ConfigError, match="nope"):
        make_evolver(cfg, sim_provider, pool)
    # the gate is read first: with llm_evolution off the field is never used
    assert make_evolver(dataclasses.replace(cfg, llm_evolution=False), sim_provider, pool) is None
    assert make_evolver(dataclasses.replace(cfg, evolver_model="tiny"),
                        sim_provider, pool).model_id == "tiny"


_TIED_SPECS = [
    ModelSpec("a", prompt_price=9.0, completion_price=9.0),
    ModelSpec("c", prompt_price=1.0, completion_price=2.0),
    ModelSpec("b", prompt_price=2.0, completion_price=1.0),
]


@pytest.mark.parametrize("specs, evolver_model, expected", [
    (MODEL_SPECS, None, "tiny"),  # not "big", the first id and the dearest
    (_TIED_SPECS, None, "b"),  # "b" and "c" tie on price; "a" sorts first
    (MODEL_SPECS, "big", "big"),  # an explicit choice wins
])
def test_make_evolver_defaults_to_the_cheapest_model(sim_provider, specs, evolver_model,
                                                     expected):
    cfg = EvolutionConfig(llm_evolution=True, evolver_model=evolver_model)
    assert make_evolver(cfg, sim_provider, ModelPool(specs)).model_id == expected


def test_evolve_step_updates_executed_stats(pool, sim_provider, embedder):
    deps = _make_deps(pool, sim_provider, embedder)
    pop = init_population(deps.cfg, DEFAULT_OPERATOR_REPO, pool, embedder,
                          np.random.default_rng([22, 0]), seed=22)
    new_pop, report = evolve_step(pop, _task(), deps, np.random.default_rng([22, 1000]))
    executed = {wid for wid in report.evaluations}
    for m in new_pop.members:
        if m.workflow_id in executed:
            assert m.stats.exec_count >= 1


def test_evolve_step_appends_llm_experiences(pool, sim_provider, embedder):
    deps = _make_deps(pool, sim_provider, embedder)
    pop = init_population(deps.cfg, DEFAULT_OPERATOR_REPO, pool, embedder,
                          np.random.default_rng([23, 0]), seed=23)
    evolve_step(pop, _task(), deps, np.random.default_rng([23, 1000]))
    total = sum(
        deps.llm_pool.query_summary(m, "easy").positive_count
        + deps.llm_pool.query_summary(m, "easy").negative_count
        for m in pool.model_ids
    )
    assert total > 0


def test_evolve_step_survives_tight_call_budget(pool, sim_provider, embedder):
    deps = _make_deps(pool, sim_provider, embedder, call_budget=2)
    pop = init_population(deps.cfg, DEFAULT_OPERATOR_REPO, pool, embedder,
                          np.random.default_rng([24, 0]), seed=24)
    new_pop, report = evolve_step(pop, _task(), deps, np.random.default_rng([24, 1000]))
    assert len(new_pop.members) == 8
    # genomes that blew the budget were scored zero
    assert any(v["perf"] == 0.0 for v in report.evaluations.values())


# --- inference -------------------------------------------------------------------------

def test_choose_workflow_best_mode_matches_similarity():
    strong = _vec_genome("strong", 0.95, mean_cost=2.0)
    weak = _vec_genome("weak", 0.1, mean_cost=0.1)
    pop = Population(members=[weak, strong])
    got = choose_workflow(pop, unit_vec(8, 1.0), VECTORS, mode="best")
    assert got.workflow_id == "strong"


def test_choose_workflow_budget_mode_filters_cost():
    strong = _vec_genome("strong", 0.95, mean_cost=2.0)
    weak = _vec_genome("weak", 0.1, mean_cost=0.1)
    pop = Population(members=[weak, strong])
    got = choose_workflow(pop, unit_vec(8, 1.0), VECTORS, mode="budget", budget=1.0)
    assert got.workflow_id == "weak"
    # nothing affordable -> cheapest member
    got = choose_workflow(pop, unit_vec(8, 1.0), VECTORS, mode="budget", budget=0.01)
    assert got.workflow_id == "weak"


def test_choose_workflow_validates_mode():
    pop = Population(members=[_vec_genome("a", 0.5)])
    with pytest.raises(ConfigError):
        choose_workflow(pop, unit_vec(8, 1.0), VECTORS, mode="budget")
    with pytest.raises(ConfigError):
        choose_workflow(pop, unit_vec(8, 1.0), VECTORS, mode="wat")


def test_choose_workflow_budget_matches_oracle():
    rng = np.random.default_rng(19)
    for _ in range(50):
        members = [_rand_tag_genome(rng, f"w{i:02d}") for i in range(8)]
        budget = float(rng.random() * 5)
        q = rng.normal(size=8)
        q = q / np.linalg.norm(q)
        got = choose_workflow(Population(members=members), q, VECTORS, mode="budget",
                              budget=budget)
        affordable = [m for m in members if m.stats.mean_cost <= budget]
        cands = affordable or [min(members, key=lambda g: (g.stats.mean_cost, g.workflow_id))]
        best = min(
            cands,
            key=lambda g: (
                -sum(float(np.dot(VECTORS.table[t], q)) for t in g.tags),
                g.stats.mean_cost,
                g.workflow_id,
            ),
        )
        assert got.workflow_id == best.workflow_id


def test_infer_runs_the_chosen_workflow(pool, sim_provider, embedder):
    cfg = EvolutionConfig(population_size=5)
    pop = init_population(cfg, DEFAULT_OPERATOR_REPO, pool, embedder,
                          np.random.default_rng([30, 0]), seed=30)
    genome, trace = infer(pop, _task(), embedder, sim_provider, pool, call_budget=cfg.call_budget)
    assert genome.workflow_id in pop.ids
    assert trace.call_count >= 1
    assert trace.answer


_TAG_WORDS = ("math proof", "code review", "budget tier", "debate")


def _vocab_genome(rng, wid):
    """A genome whose tags and mean cost come from small sets, so that exact
    similarity and cost ties happen."""
    tags = [str(rng.choice(_TAG_WORDS)) for _ in range(int(rng.integers(1, 4)))]
    cost = float(rng.choice([0.0, 0.5, 1.0]))
    return build_genome(tags=tags, wid=wid, stats=RunStats(exec_count=1, mean_cost=cost))


def test_infer_chooses_what_choose_workflow_chooses_over_fresh_vectors(pool, sim_provider):
    rng = np.random.default_rng(31)
    pop = Population(members=[_vocab_genome(rng, f"w{i}") for i in range(6)])
    for _ in range(40):
        for i in range(len(pop.members)):  # rewrite some members between calls
            if rng.random() < 0.1:
                pop.members[i] = _vocab_genome(rng, pop.members[i].workflow_id)
        dim = int(rng.choice([16, 64]))
        mode = str(rng.choice(["best", "budget"]))
        budget = float(rng.choice([0.0, 0.25, 0.5, 2.0])) if mode == "budget" else None
        query = TaskQuery(query_id="q", text=" ".join(rng.choice(_TAG_WORDS, size=2)))
        served = Population(members=list(pop.members))
        genome, _ = infer(served, query, HashingEmbedder(dim=dim), sim_provider, pool,
                          mode=mode, budget=budget, call_budget=64)
        assert served.members == pop.members  # pop is not modified
        assert any(genome is m for m in pop.members)

        fresh = FreshEmbedder(dim)
        want = choose_workflow(Population(members=list(pop.members)), fresh.embed(query.text),
                               fresh, mode=mode, budget=budget)
        assert genome == want
        cached = HashingEmbedder(dim=dim)
        assert all(np.array_equal(cached.embed(t), fresh.embed(t)) for t in genome.tags)
