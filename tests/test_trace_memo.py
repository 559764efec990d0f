"""On the pure simulated backend, ``evolve_step`` replays the trace of a
member that already ran the query in this run, and keeps only the traces of
the live population. Any other backend sees every call."""

import numpy as np

from nicheflow import evolution, executor
from nicheflow.errors import BudgetExceeded
from nicheflow.evolution import EvolutionConfig, evolve_step
from nicheflow.provider import SimulatedProvider

from conftest import SIM_PROFILES, RecordingProvider, library_setup

SEED = 1
STEPS = 60  # the 40-query stream comes round again from step 41


class _PureRecording(SimulatedProvider):
    """The simulated backend, keeping each request it answers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests = []

    def chat(self, req):
        self.requests.append(req)
        return super().chat(req)


def _run(provider, monkeypatch):
    """(reports, deps, calls each execution made or replayed) of the library
    loop; with ``llm_evolution`` off every model call is an execution's."""
    calls = []
    original = executor.execute

    def counted(genome, query, *args, **kwargs):
        try:
            trace = original(genome, query, *args, **kwargs)
        except BudgetExceeded:
            calls.append(kwargs["call_budget"])
            raise
        calls.append(trace.call_count)
        return trace

    monkeypatch.setattr(evolution, "execute", counted)
    pop, deps, tasks = library_setup(EvolutionConfig(), provider, SEED)
    reports = []
    for step in range(STEPS):
        pop, report = evolve_step(pop, tasks[step % len(tasks)], deps,
                                  np.random.default_rng([SEED, 1000 + step]))
        reports.append(report.to_doc())
    return reports, deps, calls


def test_only_the_simulated_backend_replays_and_no_report_moves(monkeypatch):
    inner = SimulatedProvider(SIM_PROFILES, seed=SEED)
    counting = RecordingProvider(inner)  # not a SimulatedProvider: never memoised
    reports, deps, calls = _run(counting, monkeypatch)
    assert deps._traces == {}
    assert len(counting.requests) == sum(calls)

    pure = _PureRecording(SIM_PROFILES, seed=SEED)
    pure_reports, pure_deps, pure_calls = _run(pure, monkeypatch)
    assert pure_reports == reports
    # one execute per member per step, replayed or not (threads finish in any order)
    assert sorted(pure_calls) == sorted(calls)
    assert pure_deps._traces
    assert len(pure.requests) < sum(pure_calls)


def test_the_memo_holds_only_the_live_population():
    pop, deps, tasks = library_setup(
        EvolutionConfig(), SimulatedProvider(SIM_PROFILES, seed=SEED), SEED
    )
    queries = set()
    for step in range(STEPS):
        query = tasks[step % len(tasks)]
        pop, report = evolve_step(pop, query, deps, np.random.default_rng([SEED, 1000 + step]))
        queries.add(query.text)
        kept = {wid for wid, _ in deps._traces}
        assert report.eliminated_id in report.evaluations  # it ran, so it had a trace
        assert report.eliminated_id not in kept
        assert kept <= pop.ids
        assert len(deps._traces) <= len(pop.members) * len(queries)
