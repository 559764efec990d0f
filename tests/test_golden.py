"""Golden determinism: output bytes pinned across commits.

Criterion 5 compares two runs made by the same code, so it cannot notice a
change that moves every run the same way. These digests pin the bytes
themselves; a refactor that claims to keep behaviour must keep them. The
step log is the run's only record besides the snapshot: the experience pools
are folded from it.
"""

import hashlib
import json

import numpy as np

from nicheflow import canonical
from nicheflow.bench import DomainSpec, generate_suite, interleave_tasks
from nicheflow.cli import main
from nicheflow.embedding import HashingEmbedder
from nicheflow.evolution import EvolutionConfig, EvolveDeps, evolve_step, init_population
from nicheflow.genome import ModelPool, serialize
from nicheflow.provider import SimulatedProvider, parse_task_envelope
from nicheflow.templates import DEFAULT_OPERATOR_REPO

from conftest import (
    MODEL_SPECS,
    SIM_PROFILES,
    InFlightProvider,
    RecordingProvider,
    library_setup,
)
from test_acceptance import _cli_config_doc

CLI_RUN_SHA256 = "32ea0c13df6e41dc69f814967abfdc9093728366a446173c6fb3709e2855e6b0"
LLM_RUN_SHA256 = "77a6a1a40538c4b7a37aeb2b5203a0a4f9dfb1023469165d715839274e673a3b"


def _digest(named_chunks) -> str:
    h = hashlib.sha256()
    for name, data in named_chunks:
        h.update(name.encode("utf-8") + b"\0" + data + b"\0")
    return h.hexdigest()


def test_cli_run_bytes_are_pinned(tmp_path):
    """Criterion 5's configuration: init, then 50 evolve steps."""
    run_dir = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_cli_config_doc(run_dir)))
    assert main(["--config", str(config), "init"]) == 0
    assert main(["--config", str(config), "evolve", "--steps", "50"]) == 0
    files = sorted((run_dir / "population").iterdir()) + [run_dir / "steps.jsonl"]
    assert _digest((p.name, p.read_bytes()) for p in files) == CLI_RUN_SHA256


def test_llm_route_run_is_pinned():
    """16 library steps with ``llm_evolution`` on: crossover, both mutations
    and tagging ask the evolver model first, then fall back."""
    seed, steps = 3, 16
    cfg = EvolutionConfig(llm_evolution=True)
    pool = ModelPool(MODEL_SPECS)
    provider = SimulatedProvider(SIM_PROFILES, seed=seed)
    embedder = HashingEmbedder(dim=64)
    deps = EvolveDeps(cfg=cfg, pool=pool, provider=provider, embedder=embedder)
    domains = [DomainSpec("easy", 0.2), DomainSpec("hard", 0.8)]
    tasks = interleave_tasks(generate_suite(domains, 20, seed=seed))
    pop = init_population(cfg, DEFAULT_OPERATOR_REPO, pool, embedder,
                          np.random.default_rng([seed, 0]), provider=provider, seed=seed)
    reports = []
    for step in range(steps):
        pop, report = evolve_step(pop, tasks[step % len(tasks)], deps,
                                  np.random.default_rng([seed, 1000 + step]))
        reports.append(report.to_doc())
    chunks = [(f"step{i}", canonical.dumps(r).encode("utf-8")) for i, r in enumerate(reports)]
    chunks += [(m.workflow_id, serialize(m).encode("utf-8")) for m in pop.members]
    assert _digest(chunks) == LLM_RUN_SHA256


def test_llm_route_run_keeps_its_bytes_with_members_in_flight():
    """The pinned 16-step run again, through a backend that waits per call:
    the niche members then run concurrently, and every byte stays."""
    seed, steps = 3, 16
    provider = InFlightProvider(SimulatedProvider(SIM_PROFILES, seed=seed))
    pop, deps, tasks = library_setup(
        EvolutionConfig(llm_evolution=True), provider, seed
    )
    reports = []
    for step in range(steps):
        pop, report = evolve_step(pop, tasks[step % len(tasks)], deps,
                                  np.random.default_rng([seed, 1000 + step]))
        reports.append(report.to_doc())
    chunks = [(f"step{i}", canonical.dumps(r).encode("utf-8")) for i, r in enumerate(reports)]
    chunks += [(m.workflow_id, serialize(m).encode("utf-8")) for m in pop.members]
    assert _digest(chunks) == LLM_RUN_SHA256
    assert provider.peak >= 2


def test_llm_route_run_asks_the_cheapest_model():
    """The pinned 16-step run, counting its evolver requests (those without a
    task envelope). With ``evolver_model`` unset they all go to ``tiny``, the
    pool's cheapest model. Each request is sent once: 263 were sent while
    tagging resent a request whose reply did not parse, up to 3 times, and
    the 62 resends are gone (30 while tagging the initial population, 32 over
    the 16 steps). Crossover resent too, but its prompt quotes the query's
    task envelope, so its requests are not in this count."""
    seed, steps = 3, 16
    provider = RecordingProvider(SimulatedProvider(SIM_PROFILES, seed=seed))
    pop, deps, tasks = library_setup(
        EvolutionConfig(llm_evolution=True), provider, seed
    )
    for step in range(steps):
        pop, _ = evolve_step(pop, tasks[step % len(tasks)], deps,
                             np.random.default_rng([seed, 1000 + step]))
    evolver_models = [
        r.model_id for r in provider.requests
        if parse_task_envelope(r.messages[0]["content"]) is None
    ]
    assert set(evolver_models) == {"tiny"}
    assert len(evolver_models) == 201
