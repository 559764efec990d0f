"""The traced benchmark run replaces functions and methods of the package by
name; a rename in ``src/`` must fail here, not only in that run."""

import importlib
from pathlib import Path

from nicheflow.memory import (
    LlmExperiencePool,
    LlmExperienceRecord,
    WorkflowExperiencePool,
    WorkflowExperienceRecord,
)
from nicheflow.provider import SimulatedProvider

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
        LlmExperiencePool().append(LlmExperienceRecord("m", "wf", "q", "Positive", "c", "easy"))
        WorkflowExperiencePool().append(
            WorkflowExperienceRecord("wf", "q", "Positive", "c", 1.0, 0.1))
    finally:
        tracer.uninstall()
    names = [tracer.names[span[1]] for span in tracer.spans]
    assert names.count("memory.load") == 2
    assert names.count("memory.append") == 2
    assert {cls: dict(cls.__dict__) for cls in before} == before
