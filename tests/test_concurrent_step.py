"""``evolve_step`` runs the niche members concurrently unless the backend is
the simulated one; on either path the step's records keep the serial order,
also when a member's execution fails."""

import threading

import numpy as np
import pytest

from nicheflow.errors import ProviderError
from nicheflow.evolution import EvolutionConfig, evolve_step
from nicheflow.memory import LlmExperiencePool, WorkflowExperiencePool
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


def _failed_step_logs(provider, run_dir):
    """Both experience logs after one step that fails with ProviderError."""
    llm_pool = LlmExperiencePool(run_dir / "llm_pool.log")
    wf_pool = WorkflowExperiencePool(run_dir / "wf_pool.log")
    pop, deps, tasks = library_setup(
        EvolutionConfig(), provider, SEED, llm_pool=llm_pool, wf_pool=wf_pool
    )
    try:
        with pytest.raises(ProviderError):
            evolve_step(pop, tasks[0], deps, np.random.default_rng([SEED, 1000]))
    finally:
        llm_pool.close()
        wf_pool.close()
    return llm_pool.path.read_bytes(), wf_pool.path.read_bytes()


def test_a_failing_member_leaves_the_serial_paths_records(tmp_path):
    (tmp_path / "serial").mkdir()
    (tmp_path / "concurrent").mkdir()
    serial = _failed_step_logs(_BigIsDown(SIM_PROFILES, seed=SEED), tmp_path / "serial")
    concurrent = _failed_step_logs(
        InFlightProvider(_BigIsDown(SIM_PROFILES, seed=SEED)), tmp_path / "concurrent"
    )
    assert concurrent == serial
    assert len(serial[1].splitlines()) == 2  # the members before the failing one


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
