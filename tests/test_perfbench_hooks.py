"""The traced benchmark run replaces functions and methods of the package by
name; a rename in ``src/`` must fail here, not only in that run."""

import importlib
from pathlib import Path

from nicheflow.provider import SimulatedProvider

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_hook_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = tracing._targets(SimulatedProvider)
    assert targets
    missing = [name for owner, attr, name in targets if not callable(getattr(owner, attr, None))]
    assert missing == []
