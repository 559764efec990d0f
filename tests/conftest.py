import threading
import time

import numpy as np
import pytest

from nicheflow.bench import DomainSpec, generate_suite, interleave_tasks
from nicheflow.embedding import HashingEmbedder, _check_unit
from nicheflow.errors import ProviderError
from nicheflow.evolution import EvolveDeps, init_population
from nicheflow.genome import (
    ModelPool,
    ModelSpec,
    RunStats,
    WorkflowGenome,
    fresh_workflow_id,
)
from nicheflow.provider import ChatResponse, SimModelProfile, SimulatedProvider
from nicheflow.templates import DEFAULT_OPERATOR_REPO, build_operator


MODEL_SPECS = [
    ModelSpec("tiny", prompt_price=0.05, completion_price=0.1),
    ModelSpec("small", prompt_price=0.3, completion_price=0.6),
    ModelSpec("mid", prompt_price=1.0, completion_price=2.0),
    ModelSpec("big", prompt_price=5.0, completion_price=10.0, latency_hint=2.0),
]

SIM_PROFILES = [
    SimModelProfile("tiny", {"easy": 0.55, "hard": 0.15}, prompt_tokens=120, completion_tokens=60),
    SimModelProfile("small", {"easy": 0.7, "hard": 0.35}, prompt_tokens=150, completion_tokens=80),
    SimModelProfile("mid", {"easy": 0.85, "hard": 0.6}, prompt_tokens=200, completion_tokens=100),
    SimModelProfile("big", {"easy": 0.97, "hard": 0.9}, prompt_tokens=300, completion_tokens=150),
]


@pytest.fixture
def pool():
    return ModelPool(MODEL_SPECS)


@pytest.fixture
def sim_provider():
    return SimulatedProvider(SIM_PROFILES, seed=7)


@pytest.fixture
def embedder():
    return HashingEmbedder(dim=64)


def build_genome(kinds=("CoT",), model="tiny", tags=None, stats=None, wid=None, kappa=5):
    """Small chain genome with default templates, one model everywhere."""
    from nicheflow.templates import template_node_count

    ops = [
        build_operator(kind, f"op{i}", [model] * template_node_count(kind))
        for i, kind in enumerate(kinds)
    ]
    edges = tuple((ops[i].op_id, ops[i + 1].op_id) for i in range(len(ops) - 1))
    genome = WorkflowGenome(
        workflow_id="pending",
        operators=tuple(ops),
        inter_edges=edges,
        tags=tuple(tags) if tags is not None else tuple(f"tag {i}" for i in range(kappa)),
        stats=stats or RunStats(),
    )
    genome = genome.with_stats(genome.stats)
    wid = wid or fresh_workflow_id(genome, set())
    genome = WorkflowGenome(
        workflow_id=wid,
        operators=genome.operators,
        inter_edges=genome.inter_edges,
        tags=genome.tags,
        stats=genome.stats,
    )
    return genome


class ScriptedProvider:
    """Replays canned replies in order (last reply repeats); records requests."""

    def __init__(self, replies, prompt_tokens=100, completion_tokens=50, fail_after=None):
        self.replies = list(replies)
        self.prompt_tokens = prompt_tokens
        self.completion_tokens = completion_tokens
        self.requests = []
        self.fail_after = fail_after

    def chat(self, req):
        if self.fail_after is not None and len(self.requests) >= self.fail_after:
            raise ProviderError("scripted transport failure", attempts=3)
        self.requests.append(req)
        idx = min(len(self.requests) - 1, len(self.replies) - 1)
        return ChatResponse(
            content=self.replies[idx],
            prompt_tokens=self.prompt_tokens,
            completion_tokens=self.completion_tokens,
        )


class RecordingProvider:
    """Pass-through to another backend that records every request."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def chat(self, req):
        self.requests.append(req)
        return self.inner.chat(req)


class TableEmbedder:
    """Serves hand-picked vectors: ``embed`` looks its text up in ``table``."""

    def __init__(self):
        self.table = {}

    def embed(self, text):
        return self.table[text]


class FreshEmbedder:
    """Embeds every text anew through the miss path, never the shared cache:
    a reference for what the cache serves."""

    def __init__(self, dim):
        self.embedder = HashingEmbedder(dim=dim)

    def embed(self, text):
        return _check_unit(self.embedder._embed_uncached(text.strip()))


def unit_vec(dim, angle_cos, rng=None):
    """2-sparse unit vector with a chosen cosine against e0."""
    v = np.zeros(dim)
    v[0] = angle_cos
    v[1] = np.sqrt(max(0.0, 1.0 - angle_cos**2))
    return v


class InFlightProvider:
    """Thread-safe pass-through to another backend that waits ``delay_s``
    per call, as a hosted model would, and records the peak number of calls
    in flight at once. Not a ``SimulatedProvider``, so ``evolve_step`` runs
    the niche members through it concurrently."""

    def __init__(self, inner, delay_s=0.0002):
        self.inner = inner
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self._in_flight = 0
        self.peak = 0

    def chat(self, req):
        with self._lock:
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
        try:
            time.sleep(self.delay_s)
            return self.inner.chat(req)
        finally:
            with self._lock:
                self._in_flight -= 1


def library_setup(cfg, provider, seed):
    """Set-up of the README's library loop on the two-domain suite: the
    initial population, the step dependencies and the query stream."""
    pool = ModelPool(MODEL_SPECS)
    embedder = HashingEmbedder(dim=64)
    deps = EvolveDeps(cfg=cfg, pool=pool, provider=provider, embedder=embedder)
    domains = [DomainSpec("easy", 0.2), DomainSpec("hard", 0.8)]
    tasks = interleave_tasks(generate_suite(domains, 20, seed=seed))
    pop = init_population(cfg, DEFAULT_OPERATOR_REPO, pool, embedder,
                          np.random.default_rng([seed, 0]), provider=provider, seed=seed)
    return pop, deps, tasks
