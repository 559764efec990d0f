"""The traced benchmark run replaces functions and methods of the package by
name; a rename in ``src/`` must fail here, not only in that run."""

import importlib
from pathlib import Path

import numpy as np

from nicheflow import evolution
from nicheflow.memory import LlmExperiencePool, WorkflowExperiencePool
from nicheflow.provider import SimulatedProvider

from conftest import SIM_PROFILES, InFlightProvider, library_setup

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_hook_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = tracing._targets(SimulatedProvider)
    assert targets
    missing = [name for owner, attr, name in targets if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_traced_pools_give_one_span_per_call_and_are_restored(monkeypatch):
    """Each pool class is wrapped on its own; were one a subclass of the
    other, its calls would pass through both wrappers and count twice."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = {cls: dict(cls.__dict__) for cls in (LlmExperiencePool, WorkflowExperiencePool)}
    tracer = tracing.Tracer(SimulatedProvider)
    tracer.install()
    try:
        LlmExperiencePool().append("m", True, "easy")
        WorkflowExperiencePool().append("wf", True, "easy", "c")
    finally:
        tracer.uninstall()
    names = [tracer.names[span[1]] for span in tracer.spans]
    assert names.count("memory.load") == 2
    assert names.count("memory.append") == 2
    assert {cls: dict(cls.__dict__) for cls in before} == before


def test_traced_step_keeps_each_execution_call_under_its_execution(monkeypatch):
    """Niche members run on worker threads when the backend waits; the
    tracer keeps a span stack per thread, so every executed model call must
    still sit under its ``executor.execute`` span."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    seed = 0
    provider = InFlightProvider(SimulatedProvider(SIM_PROFILES, seed=seed))
    pop, deps, tasks = library_setup(evolution.EvolutionConfig(), provider, seed)
    tracer = tracing.Tracer(InFlightProvider)
    tracer.install()
    try:
        _, report = evolution.evolve_step(pop, tasks[0], deps, np.random.default_rng([seed, 1000]))
    finally:
        tracer.uninstall()
    spans, ids = tracer.spans, tracer._name_ids
    chats = [s for s in spans if s[1] == ids["provider.chat"]]
    executions = [s for s in spans if s[1] == ids["executor.execute"]]
    assert chats
    assert all(tracing._has_ancestor(s, ids["executor.execute"], spans) for s in chats)
    assert len(executions) == len(report.evaluations)
