"""The benchmark's three closed-loop workloads, each driven by one client
thread through the program's public entry points.

* ``evolve``: ``cli.cmd_init`` then one uninterrupted ``cli.cmd_evolve`` of
  200 steps on the acceptance configuration, file-backed, CPU-bound.
* ``evolve-latency``: the README's library loop (``init_population`` and
  ``evolve_step``) with ``llm_evolution`` on, in-memory experience pools and
  a provider that sleeps a per-model latency before it answers.
* ``infer``: one ``cli.cmd_infer`` per held-out query against a population
  evolved during set-up, alternating best mode and budget mode.

A run repeats whole rounds. Every round of a workload does the same work, so
the outputs of later rounds must repeat those of the first exactly.
"""

import hashlib
import json
import shutil
import statistics
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
from nicheflow import cli, evolution
from nicheflow.bench import DomainSpec, generate_suite, interleave_tasks, population_hypervolume
from nicheflow.config import load_config
from nicheflow.embedding import HashingEmbedder
from nicheflow.errors import BudgetExceeded
from nicheflow.genome import ModelPool, ModelSpec, to_document
from nicheflow.memory import LlmExperiencePool, WorkflowExperiencePool
from nicheflow.provider import SimModelProfile, SimulatedProvider

# The README's model pool: prices per 1e6 tokens, simulated success rates.
MODELS = [
    {"model_id": "tiny", "prompt_price": 0.05, "completion_price": 0.1,
     "sim": {"success_by_domain": {"easy": 0.55, "hard": 0.15},
             "prompt_tokens": 120, "completion_tokens": 60}},
    {"model_id": "small", "prompt_price": 0.3, "completion_price": 0.6,
     "sim": {"success_by_domain": {"easy": 0.7, "hard": 0.35},
             "prompt_tokens": 150, "completion_tokens": 80}},
    {"model_id": "mid", "prompt_price": 1.0, "completion_price": 2.0,
     "sim": {"success_by_domain": {"easy": 0.85, "hard": 0.6},
             "prompt_tokens": 200, "completion_tokens": 100}},
    {"model_id": "big", "prompt_price": 5.0, "completion_price": 10.0,
     "sim": {"success_by_domain": {"easy": 0.97, "hard": 0.9},
             "prompt_tokens": 300, "completion_tokens": 150}},
]
DOMAINS = [{"label": "easy", "difficulty": 0.2}, {"label": "hard", "difficulty": 0.8}]
TASKS_PER_DOMAIN = 20
EMBEDDING_DIM = 64
POPULATION_SIZE, KAPPA, CALL_BUDGET = 15, 5, 64  # the program's defaults
# Seconds the latency provider waits per call: the price tier order.
LATENCY_S = {"tiny": 0.00025, "small": 0.0005, "mid": 0.001, "big": 0.002}

# Evolution is chaotic: between evolution seeds, the spend and speed of a run
# differ by 15-30%, and the queries its offspring solve from 10 to 77 of 200:
# more than the changes the benchmark must resolve. So a round runs, besides
# the run's own evolution seed, fixed ones, as the acceptance suite does, and
# the quality metrics (spend, hypervolume, queries solved) are taken over the
# fixed seeds alone; the run's own trajectory is timed and checked.
EVOLVE_STEPS = 200
EVOLVE_SEEDS = 6  # evolution seeds per round of ``evolve``
# A set-up of ``evolve`` (config and cmd_init) takes about 12 ms, short enough
# for the host's swings in speed to show, so each seed sets up this often.
INIT_REPEATS = 4
LATENCY_STEPS = 16
LATENCY_SEEDS = 10  # evolution seeds per round of ``evolve-latency``
SERVE_SEED = 8  # evolution seed of the population ``infer`` serves
SERVE_SETUPS = 2  # times ``infer`` evolves that population in set-up
HELDOUT_SEED = 2**32 - 1  # suite seed of the held-out queries
HELDOUT_PER_DOMAIN = 50


def round_seeds(seed, count):
    """The run's own evolution seed first, then ``count - 1`` fixed ones."""
    return [own_seed(seed)] + list(range(count - 1))


def own_seed(seed):
    """The run's own evolution seed, never one of the fixed ones."""
    return 1000 + seed


def config_doc(seed, run_dir):
    """The acceptance configuration as a run config: default hyperparameters."""
    return {
        "seed": seed,
        "run_dir": str(run_dir),
        "backend": "simulated",
        "embedding_dim": EMBEDDING_DIM,
        "models": MODELS,
        "suite": {"domains": DOMAINS, "tasks_per_domain": TASKS_PER_DOMAIN},
        "checkpoint_interval": 10,
    }


def model_pool():
    return ModelPool(
        [ModelSpec(m["model_id"], m["prompt_price"], m["completion_price"]) for m in MODELS]
    )


def sim_provider(seed):
    return SimulatedProvider(
        [
            SimModelProfile(
                m["model_id"],
                m["sim"]["success_by_domain"],
                prompt_tokens=m["sim"]["prompt_tokens"],
                completion_tokens=m["sim"]["completion_tokens"],
            )
            for m in MODELS
        ],
        seed=seed,
    )


def domains():
    return [DomainSpec(d["label"], d["difficulty"]) for d in DOMAINS]


def heldout_queries():
    suite = generate_suite(domains(), HELDOUT_PER_DOMAIN, seed=HELDOUT_SEED)
    return interleave_tasks(suite)


class LatencyProvider:
    """Sleeps a fixed per-model latency, then answers through the simulated
    backend. The sleep holds no lock; the counters are kept under one."""

    def __init__(self, inner):
        self.inner = inner
        self.prices = {m["model_id"]: (m["prompt_price"], m["completion_price"]) for m in MODELS}
        self._lock = threading.Lock()
        self.wait_s = 0.0
        self.usd = 0.0

    def chat(self, req):
        t = time.perf_counter()
        time.sleep(LATENCY_S[req.model_id])
        waited = time.perf_counter() - t
        resp = self.inner.chat(req)
        prompt_price, completion_price = self.prices[req.model_id]
        usd = (resp.prompt_tokens * prompt_price + resp.completion_tokens * completion_price) / 1e6
        with self._lock:
            self.wait_s += waited
            self.usd += usd
        return resp


def _digest(*texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
    return h.hexdigest()


def _snapshot(run_dir):
    """(manifest, member documents, digest of every snapshot file)."""
    target = Path(run_dir) / "population"
    manifest_text = (target / "manifest.json").read_text(encoding="utf-8")
    manifest = json.loads(manifest_text)
    texts = [(target / f"{wid}.json").read_text(encoding="utf-8") for wid in manifest["members"]]
    return manifest, [json.loads(t) for t in texts], _digest(manifest_text, *texts)


class Workload:
    """Shared bookkeeping: samples of each round and the first round's
    outputs, which every later round must reproduce."""

    provider_cls = SimulatedProvider

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work = Path(work_dir)
        self.errors: list[str] = []
        self.setup_s: list[float] = []
        self.op_s: list[float] = []
        self.busy_s = 0.0  # time spent in ops
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.reference = None  # outputs of the first round
        self.populations = []  # final populations of the last round
        self.wait_s = 0.0  # provider wait added by the latency model
        self.quality = {}  # usd, ops, hv and solved of the first round

    def check_repeat(self, outputs):
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            self.errors.append(f"round {self.rounds + 1} did not reproduce the first round")

    def check_population(self, pop, members):
        """Invariants of a final population; returns its hypervolume."""
        self.errors += checks.population_errors(
            members, POPULATION_SIZE, KAPPA, [m["model_id"] for m in MODELS]
        )
        own = checks.hypervolume(checks.member_points(members))
        program = population_hypervolume(pop)
        if abs(own - program) > 1e-9:
            self.errors.append(f"hypervolume {program} != benchmark's {own}")
        return program

    def round(self, tracer=None, seeds=None):
        raise NotImplementedError

    def metrics(self):
        q = self.quality
        return {
            "ops_per_s": (len(self.op_s) / self.busy_s, "op/s"),
            "op_ms_p50": (statistics.median(self.op_s) * 1e3, "ms"),
            "op_ms_p95": (statistics.quantiles(self.op_s, n=20)[18] * 1e3, "ms"),
            "usd_per_op": (q["usd"] / q["ops"], "USD"),
            "front_hv": (q["hv"], "1"),
            "queries_solved": (q["solved"], "query"),
            "setup_s": (statistics.median(self.setup_s), "s"),
        }


class Evolution(Workload):
    """An evolution workload: every answer a step's executions give is kept
    (from ``evolution.execute``, which ``evolve_step`` looks up) and scored
    by the benchmark, and the step's query counts as solved when the
    offspring answered it exactly."""

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self._step = 0
        self._answers = {}  # (step, workflow id) -> (query text, answer)
        original = evolution.execute

        def recorded(genome, query, *args, **kwargs):
            trace = original(genome, query, *args, **kwargs)
            self._answers[(self._step, genome.workflow_id)] = (query.text, trace.answer)
            return trace

        evolution.execute = recorded

    def score_steps(self, docs):
        """Check each step report against the kept answers; returns how many
        step queries the offspring solved."""
        solved = 0
        for step, d in enumerate(docs):
            for wid, evaluation in d["evaluations"].items():
                if (step, wid) not in self._answers:  # the execution ran out of calls
                    if evaluation["perf"] != 0.0:
                        self.errors.append(f"step {step + 1}: {wid} scored without an answer")
                    continue
                text, answer = self._answers[(step, wid)]
                expr, gold = checks.parse_query(text)
                exact = checks.exact_value(expr)
                if exact != Fraction(gold):
                    self.errors.append(f"step {step + 1}: gold {gold} != {expr}")
                correct = checks.final_number(answer) == exact
                if evaluation["perf"] != float(correct):
                    self.errors.append(f"step {step + 1}: {wid} scored {evaluation['perf']}, "
                                       f"the benchmark scores {float(correct)}")
                solved += correct and wid == d["offspring_id"]
        self._answers.clear()
        return solved

    def finish_round(self, outputs, scores, pops):
        """``scores`` holds (evolution seed, usd, steps, hv, solved) of each
        trajectory; the quality metrics come from the fixed seeds'."""
        fixed = [q for q in scores if q[0] != own_seed(self.seed)]
        if self.reference is None and fixed:
            self.quality = {"usd": sum(q[1] for q in fixed), "ops": sum(q[2] for q in fixed),
                            "hv": statistics.mean(q[3] for q in fixed),
                            "solved": sum(q[4] for q in fixed)}
        self.check_repeat(outputs)
        self.populations = pops
        self.rounds += 1


class Evolve(Evolution):
    """Per round, ``EVOLVE_SEEDS`` fresh runs of cmd_init + cmd_evolve."""

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.seeds = round_seeds(seed, EVOLVE_SEEDS)
        self._starts: list[float] = []
        original = cli.evolve_step

        def clocked(*args, **kwargs):  # marks where each step begins
            self._step = len(self._starts)
            self._starts.append(time.perf_counter())
            return original(*args, **kwargs)

        cli.evolve_step = clocked

    def round(self, tracer=None, seeds=None):
        outputs, scores, pops = [], [], []
        for s in seeds or self.seeds:
            run_dir = self.work / f"evolve-{s}"
            for _ in range(INIT_REPEATS):  # the last set-up is the one evolved
                shutil.rmtree(run_dir, ignore_errors=True)
                t = time.perf_counter()
                config = self.work / f"evolve-{s}.json"
                config.write_text(json.dumps(config_doc(s, run_dir)), encoding="utf-8")
                cfg = load_config(config)
                cli.cmd_init(cfg)
                self.setup_s.append(time.perf_counter() - t)

            self._starts = []
            if tracer:
                tracer.install()
            t = time.perf_counter()
            pop = cli.cmd_evolve(cfg, EVOLVE_STEPS)
            end = time.perf_counter()
            if tracer:
                tracer.uninstall()
            marks = [t] + self._starts[1:] + [end]
            self.op_s += [b - a for a, b in zip(marks, marks[1:])]
            self.busy_s += end - t
            self.attempted += EVOLVE_STEPS
            pops.append(pop)

            lines = (run_dir / "steps.jsonl").read_text(encoding="utf-8").splitlines()
            docs = [json.loads(line) for line in lines]
            if len(docs) != EVOLVE_STEPS:
                self.errors.append(f"seed {s}: {len(docs)} step lines for {EVOLVE_STEPS} steps")
            self.errors += checks.step_log_errors(docs)
            solved = self.score_steps(docs)
            usd = sum(e["cost"] for d in docs for e in d["evaluations"].values())
            manifest, members, snap = _snapshot(run_dir)
            if manifest["generation"] != EVOLVE_STEPS or set(manifest["members"]) != pop.ids:
                self.errors.append(f"seed {s}: snapshot does not hold the final population")
            hv = self.check_population(pop, members)
            scores.append((s, usd, EVOLVE_STEPS, hv, solved))
            outputs.append((_digest(*lines), snap))
            shutil.rmtree(run_dir)
            config.unlink()
        self.finish_round(outputs, scores, pops)


class EvolveLatency(Evolution):
    """Per round, ``LATENCY_SEEDS`` library runs of ``LATENCY_STEPS``
    steps each, every model call delayed by the latency provider."""

    provider_cls = LatencyProvider

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.seeds = round_seeds(seed, LATENCY_SEEDS)

    def round(self, tracer=None, seeds=None):
        outputs, scores, pops = [], [], []
        for s in seeds or self.seeds:
            t = time.perf_counter()
            cfg = evolution.EvolutionConfig(llm_evolution=True)
            pool = model_pool()
            provider = LatencyProvider(sim_provider(s))
            deps = evolution.EvolveDeps(
                cfg=cfg, pool=pool, provider=provider, embedder=HashingEmbedder(dim=EMBEDDING_DIM),
                llm_pool=LlmExperiencePool(), wf_pool=WorkflowExperiencePool(),
            )
            tasks = interleave_tasks(generate_suite(domains(), TASKS_PER_DOMAIN, seed=s))
            pop = evolution.init_population(
                cfg, deps.repo, pool, deps.embedder, np.random.default_rng([s, 0]),
                provider=provider, seed=s,
            )
            self.setup_s.append(time.perf_counter() - t)

            usd_before, wait_before = provider.usd, provider.wait_s
            reports = []
            if tracer:
                tracer.install()
            for step in range(LATENCY_STEPS):
                self._step = step
                t = time.perf_counter()
                pop, report = evolution.evolve_step(
                    pop, tasks[step % len(tasks)], deps, np.random.default_rng([s, 1000 + step])
                )
                self.op_s.append(time.perf_counter() - t)
                reports.append(report.to_doc())
            if tracer:
                tracer.uninstall()
            self.busy_s += sum(self.op_s[-LATENCY_STEPS:])
            self.attempted += LATENCY_STEPS
            self.wait_s += provider.wait_s - wait_before
            pops.append(pop)

            self.errors += checks.step_log_errors(reports)
            solved = self.score_steps(reports)
            step_usd = sum(e["cost"] for d in reports for e in d["evaluations"].values())
            usd = provider.usd - usd_before
            if step_usd > usd + 1e-12:
                self.errors.append(f"seed {s}: steps report more spend than the provider saw")
            members = [to_document(m) for m in pop.members]
            hv = self.check_population(pop, members)
            scores.append((s, usd, LATENCY_STEPS, hv, solved))
            outputs.append(_digest(json.dumps([reports, members], sort_keys=True)))
        self.finish_round(outputs, scores, pops)


class Infer(Workload):
    """Set-up evolves the served population; each op is one cmd_infer for a
    held-out query, every query once in best and once in budget mode."""

    def __init__(self, seed, work_dir, setups=SERVE_SETUPS):
        super().__init__(seed, work_dir)
        snapshots = []
        for i in range(setups):
            run_dir = self.work / f"serve-{i}"
            t = time.perf_counter()
            config = self.work / f"serve-{i}.json"
            config.write_text(json.dumps(config_doc(SERVE_SEED, run_dir)), encoding="utf-8")
            cfg = load_config(config)
            cli.cmd_init(cfg)
            cli.cmd_evolve(cfg, EVOLVE_STEPS)
            self.setup_s.append(time.perf_counter() - t)
            snapshots.append(_snapshot(run_dir))
            if i == 0:
                self.cfg = cfg
            else:
                shutil.rmtree(run_dir)
                config.unlink()
        if any(snap[2] != snapshots[0][2] for snap in snapshots):
            self.errors.append("set-up runs of one seed gave different snapshots")
        _, self.members, _ = snapshots[0]
        pop, _ = cli.load_population(self.cfg.run_dir)
        self.populations = [pop]
        self.budget = statistics.median(m["stats"]["mean_cost"] for m in self.members)
        self.retrieval = checks.Retrieval(self.members, EMBEDDING_DIM)
        self.quality = {"hv": self.check_population(pop, self.members)}

        queries = heldout_queries()
        for q in queries:
            expr, gold = checks.parse_query(q.text)
            if checks.exact_value(expr) != Fraction(gold):
                self.errors.append(f"held-out {q.query_id}: gold {gold} != {expr}")
        order = np.random.default_rng(seed).permutation(len(queries))
        self.servings = [(queries[i].text, mode) for i in order for mode in ("best", "budget")]

    def expected_choice(self, text, mode):
        """The member the benchmark's own retrieval picks."""
        sims = self.retrieval.similarities(text)
        if mode == "best":
            return self.retrieval.argmax(sims)
        affordable = self.retrieval.affordable(self.budget)
        return self.retrieval.argmax(sims, affordable) if affordable else self.retrieval.cheapest()

    def round(self, tracer=None, seeds=None):
        solved, usd, outcomes = 0, 0.0, []
        if tracer:
            tracer.install()
        for text, mode in self.servings:
            t = time.perf_counter()
            try:
                out = cli.cmd_infer(self.cfg, text, mode=mode,
                                    budget=self.budget if mode == "budget" else None)
            except BudgetExceeded as e:
                out = {"failed": e.partial_cost}
            self.op_s.append(time.perf_counter() - t)
            outcomes.append(out)
        if tracer:
            tracer.uninstall()
        self.busy_s += sum(self.op_s[-len(outcomes):])
        self.attempted += len(outcomes)

        for (text, mode), out in zip(self.servings, outcomes):
            expected = self.expected_choice(text, mode)
            where = f"{text[:48]!r} ({mode})"
            if "failed" in out:
                self.failed += 1
                usd += out["failed"]
                if checks.call_bounds(self.retrieval.members[expected])[1] <= CALL_BUDGET:
                    self.errors.append(f"{where}: BudgetExceeded, but {expected} cannot exceed "
                                       f"{CALL_BUDGET} calls")
                continue
            wid = out["workflow_id"]
            usd += out["cost"]
            if wid != expected:
                self.errors.append(f"{where}: chose {wid}, the benchmark picks {expected}")
            over_budget = self.retrieval.cost(wid) > self.budget
            if mode == "budget" and over_budget and wid != self.retrieval.cheapest():
                self.errors.append(f"{where}: chose {wid}, above the budget {self.budget}")
            if checks.call_bounds(self.retrieval.members[wid])[0] > CALL_BUDGET:
                self.errors.append(f"{where}: {wid} ran although it needs over {CALL_BUDGET} calls")
            expr, _ = checks.parse_query(text)
            solved += checks.final_number(out["answer"]) == checks.exact_value(expr)
        if self.reference is None:
            self.quality.update(usd=usd, ops=len(outcomes), solved=solved)
        self.check_repeat(outcomes)
        self.rounds += 1


WORKLOADS = {"evolve": Evolve, "evolve-latency": EvolveLatency, "infer": Infer}
