"""``evolve_step`` runs the niche members concurrently unless the backend is
the simulated one; on either path a step that fails leaves the experience
pools as they were."""

import copy
import dataclasses
import threading

import numpy as np
import pytest

from nicheflow.errors import ProviderError
from nicheflow.evolution import EvolutionConfig, evolve_step
from nicheflow.provider import SimulatedProvider

from conftest import SIM_PROFILES, InFlightProvider, library_setup

# On this seed, two niche members run before the first one that calls "big".
SEED = 0


class _BigIsDown(SimulatedProvider):
    """Every call to ``big`` fails as an unreachable endpoint would."""

    def chat(self, req):
        if req.model_id == "big":
            raise ProviderError("big is down", attempts=3)
        return super().chat(req)


@pytest.mark.parametrize("concurrent", [False, True], ids=["serial", "concurrent"])
def test_a_failing_step_leaves_the_pools_unchanged(concurrent):
    pop, deps, tasks = library_setup(
        EvolutionConfig(), SimulatedProvider(SIM_PROFILES, seed=SEED), SEED
    )
    for step in range(3):  # pools with some experience in them
        pop, _ = evolve_step(pop, tasks[step], deps, np.random.default_rng([SEED, 1000 + step]))
    before = copy.deepcopy((deps.llm_pool._summaries, deps.wf_pool._summaries))
    assert all(before)
    down = _BigIsDown(SIM_PROFILES, seed=SEED)
    failing = dataclasses.replace(deps, provider=InFlightProvider(down) if concurrent else down)
    with pytest.raises(ProviderError):
        evolve_step(pop, tasks[3], failing, np.random.default_rng([SEED, 1003]))
    assert (deps.llm_pool._summaries, deps.wf_pool._summaries) == before


def test_simulated_backend_answers_every_call_on_the_calling_thread():
    threads = set()

    class Recording(SimulatedProvider):
        def chat(self, req):
            threads.add(threading.get_ident())
            return super().chat(req)

    pop, deps, tasks = library_setup(EvolutionConfig(), Recording(SIM_PROFILES, seed=SEED), SEED)
    for step in range(2):
        pop, _ = evolve_step(pop, tasks[step], deps, np.random.default_rng([SEED, 1000 + step]))
    assert threads == {threading.get_ident()}
