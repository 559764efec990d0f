"""``evolve_step`` runs the niche members concurrently unless the backend is
the simulated one, starting the parents before breeding, on worker threads
that live as long as the run's ``EvolveDeps``; on either path a step that
fails leaves the experience pools as they were."""

import copy
import dataclasses
import threading

import numpy as np
import pytest

from nicheflow import evolution
from nicheflow.embedding import TAG_GENERATION_PROMPT
from nicheflow.errors import ProviderError
from nicheflow.evolution import EvolutionConfig, evolve_step
from nicheflow.provider import SimulatedProvider

from conftest import SIM_PROFILES, InFlightProvider, library_setup

# On this seed, two niche members run before the first one that calls "big".
SEED = 0
TIMEOUT_S = 10


class _BigIsDown(SimulatedProvider):
    """Every call to ``big`` fails as an unreachable endpoint would."""

    def chat(self, req):
        if req.model_id == "big":
            raise ProviderError("big is down", attempts=3)
        return super().chat(req)


class _BreedingFailed(Exception):
    pass


@pytest.mark.parametrize("case", ["serial", "concurrent", "concurrent-breeding"])
def test_a_failing_step_leaves_the_pools_unchanged(case, monkeypatch):
    """A member's provider error, or breeding that raises while the parents
    run; the step raises only once no call is in flight."""
    pop, deps, tasks = library_setup(
        EvolutionConfig(), SimulatedProvider(SIM_PROFILES, seed=SEED), SEED
    )
    for step in range(3):  # pools with some experience in them
        pop, _ = evolve_step(pop, tasks[step], deps, np.random.default_rng([SEED, 1000 + step]))
    before = copy.deepcopy((deps.llm_pool._summaries, deps.wf_pool._summaries))
    assert all(before)
    if case == "serial":
        provider, error = _BigIsDown(SIM_PROFILES, seed=SEED), ProviderError
    elif case == "concurrent":
        provider, error = InFlightProvider(_BigIsDown(SIM_PROFILES, seed=SEED)), ProviderError
    else:
        provider = InFlightProvider(SimulatedProvider(SIM_PROFILES, seed=SEED), delay_s=0.005)
        error = _BreedingFailed

        def mutate_operator(*args, **kwargs):
            assert provider.first_call.wait(TIMEOUT_S)  # a parent is running
            raise _BreedingFailed

        monkeypatch.setattr(evolution, "mutate_operator", mutate_operator)
    failing = dataclasses.replace(deps, provider=provider)
    with pytest.raises(error):
        evolve_step(pop, tasks[3], failing, np.random.default_rng([SEED, 1003]))
    if case != "serial":
        assert provider.in_flight == 0
    assert (deps.llm_pool._summaries, deps.wf_pool._summaries) == before


def test_simulated_backend_answers_every_call_on_the_calling_thread():
    threads = set()

    class Recording(SimulatedProvider):
        def chat(self, req):
            threads.add(threading.get_ident())
            return super().chat(req)

    running = set(threading.enumerate())
    pop, deps, tasks = library_setup(EvolutionConfig(), Recording(SIM_PROFILES, seed=SEED), SEED)
    for step in range(2):
        pop, _ = evolve_step(pop, tasks[step], deps, np.random.default_rng([SEED, 1000 + step]))
    assert threads == {threading.get_ident()}
    assert set(threading.enumerate()) <= running  # no thread was started


def test_a_parent_runs_before_the_last_evolver_request():
    """The step's tag request, its last evolver request, waits for a call
    from a worker thread. Only the parents run during breeding, so it gets
    one only if they started before it."""
    caller = threading.get_ident()
    tag_head = TAG_GENERATION_PROMPT.split("\n", 1)[0]

    class TagWaitsForAMember(InFlightProvider):
        armed = False
        member_called = threading.Event()
        waits = []

        def chat(self, req):
            if threading.get_ident() != caller:
                self.member_called.set()
            elif self.armed and req.messages[0]["content"].startswith(tag_head):
                self.waits.append(self.member_called.wait(TIMEOUT_S))
            return super().chat(req)

    provider = TagWaitsForAMember(SimulatedProvider(SIM_PROFILES, seed=SEED))
    pop, deps, tasks = library_setup(EvolutionConfig(llm_evolution=True), provider, SEED)
    provider.armed = True
    evolve_step(pop, tasks[0], deps, np.random.default_rng([SEED, 1000]))
    assert provider.waits == [True]


def test_worker_threads_live_as_long_as_the_run():
    running = set(threading.enumerate())
    cfg = EvolutionConfig()
    provider = InFlightProvider(SimulatedProvider(SIM_PROFILES, seed=SEED))
    pop, deps, tasks = library_setup(cfg, provider, SEED)
    started = []
    for step in range(3):
        pop, _ = evolve_step(pop, tasks[step], deps, np.random.default_rng([SEED, 1000 + step]))
        started.append(set(threading.enumerate()) - running)
    # the first step's threads serve the later steps, up to one per member
    assert started[0] and started[0] <= started[1] <= started[2]
    assert len(started[2]) <= cfg.niche_size + cfg.parents_k + 1
    del deps
    for thread in started[2]:
        thread.join(TIMEOUT_S)
    assert not [t for t in started[2] if t.is_alive()]
