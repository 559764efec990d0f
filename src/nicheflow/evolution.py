"""The niching evolutionary engine: population initialization, tag-based
parent retrieval, crossover, the three mutation classes, niching-area
construction, running-stat updates, indicator fitness, environmental
selection, the per-query evolution step, and inference-time retrieval.
"""

import json
import re
import weakref
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import embedding as emb
from .errors import BudgetExceeded, ConfigError, InvalidState
from .executor import TaskQuery, evaluate, execute
from .genome import (
    InvokingNode,
    ModelPool,
    OperatorNode,
    RunStats,
    WorkflowGenome,
    build_operator,
    from_document,
    fresh_workflow_id,
    serialize,
    validate,
)
from .memory import LlmExperiencePool, WorkflowExperiencePool, fold_report
from .operators import DEFAULT_OPERATOR_REPO, OPERATORS, topological_order
from .provider import Evolver, SimulatedProvider


@dataclass(frozen=True)
class EvolutionConfig:
    population_size: int = 15  # N
    parents_k: int = 3  # K
    kappa: int = 5
    niche_size: int = 5  # E
    phi: float = 0.05
    rho_llm: float = 0.3
    rho_prompt: float = 0.3
    m_max: int = 4
    call_budget: int = 64
    skip_edge_prob: float = 0.25
    llm_evolution: bool = False
    evolver_model: Optional[str] = None

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ConfigError("population size must be >= 2")
        if not (1 <= self.parents_k <= self.population_size):
            raise ConfigError("parents_k must be in [1, N]")
        if not (1 <= self.niche_size <= self.population_size):
            raise ConfigError("niche_size must be in [1, N]")
        if self.kappa < 1:
            raise ConfigError("kappa must be >= 1")
        if self.phi <= 0:
            raise ConfigError("phi must be > 0")
        if self.m_max < 1:
            raise ConfigError("m_max must be >= 1")
        if self.call_budget < 1:
            raise ConfigError("call_budget must be >= 1")
        for name in ("rho_llm", "rho_prompt", "skip_edge_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")


def make_evolver(cfg: EvolutionConfig, provider, pool: ModelPool) -> Optional[Evolver]:
    """The model that crossover, model pick, prompt rewrite and tagging ask,
    or None when ``llm_evolution`` is off or there is no provider, in which
    case every route takes its rule-based path. ``evolver_model`` defaults to
    the pool's cheapest model by ``unit_price``, the lower id on a tie; one
    that names no pool model is a ``ConfigError``."""
    if not cfg.llm_evolution or provider is None:
        return None
    model_id = cfg.evolver_model or min(
        pool.model_ids, key=lambda m: (pool.get(m).unit_price, m)
    )
    if model_id not in pool:
        raise ConfigError(f"evolver_model {model_id!r} names no pool model")
    return Evolver(provider, model_id)


@dataclass
class Population:
    members: list[WorkflowGenome]
    generation: int = 0
    seed: int = 0

    @property
    def ids(self) -> set[str]:
        return {m.workflow_id for m in self.members}


@dataclass(frozen=True)
class ObjectivePoint:
    perf: float
    cost: float


def objective_point(genome: WorkflowGenome) -> ObjectivePoint:
    return ObjectivePoint(genome.stats.mean_perf, genome.stats.mean_cost)


@dataclass(frozen=True)
class NichingPool:
    offspring: WorkflowGenome
    parents: tuple[WorkflowGenome, ...]
    area: tuple[WorkflowGenome, ...]

    def _dedup(self, genomes) -> list[WorkflowGenome]:
        seen: set[str] = set()
        out = []
        for g in genomes:
            if g.workflow_id not in seen:
                seen.add(g.workflow_id)
                out.append(g)
        return out

    @property
    def exec_members(self) -> list[WorkflowGenome]:
        """Everything executed this step: area ∪ parents ∪ offspring."""
        return self._dedup(list(self.area) + list(self.parents) + [self.offspring])

    @property
    def selection_candidates(self) -> list[WorkflowGenome]:
        """Elimination candidates: area ∪ offspring."""
        return self._dedup(list(self.area) + [self.offspring])


# --- structural helpers -------------------------------------------------------

def renumber_operators(operators: Sequence[OperatorNode]) -> tuple[OperatorNode, ...]:
    """Reassign sequential op/node ids so composed genomes never collide."""
    out = []
    for idx, op in enumerate(operators):
        op_id = f"op{idx}"
        id_map = {
            n.node_id: f"{op_id}.n{i}" for i, n in enumerate(op.invoking_nodes)
        }
        nodes = tuple(
            replace(n, node_id=id_map[n.node_id]) for n in op.invoking_nodes
        )
        edges = tuple(
            (id_map[a], id_map[b])
            for a, b in op.intra_edges
            if a in id_map and b in id_map
        )
        out.append(replace(op, op_id=op_id, invoking_nodes=nodes, intra_edges=edges))
    return tuple(out)


def chain_edges(operators: Sequence[OperatorNode]) -> tuple[tuple[str, str], ...]:
    return tuple(
        (operators[i].op_id, operators[i + 1].op_id)
        for i in range(len(operators) - 1)
    )


def _assemble(
    operators: Sequence[OperatorNode],
    inter_edges,
    tags,
    lineage,
    taken: set[str],
) -> WorkflowGenome:
    genome = WorkflowGenome(
        workflow_id="pending",
        operators=tuple(operators),
        inter_edges=tuple(inter_edges),
        tags=tuple(tags),
        stats=RunStats(),
        lineage=dict(lineage),
    )
    return replace(genome, workflow_id=fresh_workflow_id(genome, taken))


# --- initialization -----------------------------------------------------------

def _random_operator(repo: Sequence[str], pool: ModelPool, op_id: str, rng) -> OperatorNode:
    """A uniform kind from ``repo``, then a uniform pool model per template node."""
    kind = repo[int(rng.integers(len(repo)))]
    model_ids = pool.model_ids
    chosen = [model_ids[int(rng.integers(len(model_ids)))] for _ in OPERATORS[kind].prompts]
    return build_operator(kind, op_id, chosen)


def init_population(
    cfg: EvolutionConfig,
    operator_repo: Sequence[str],
    pool: ModelPool,
    embedder,
    rng: np.random.Generator,
    provider=None,
    *,
    seed: int,
) -> Population:
    """Sample N genomes: uniform operator templates, uniform model choices,
    chain wiring plus optional skip edges, then tag every genome. ``embedder``
    is unused: tag vectors are embedded when a tag is scored."""
    if not operator_repo:
        raise ConfigError("operator repository must be nonempty")
    if len(pool) == 0:
        raise ConfigError("model pool must be nonempty")
    evolver = make_evolver(cfg, provider, pool)
    members: list[WorkflowGenome] = []
    taken: set[str] = set()
    for _ in range(cfg.population_size):
        m = int(rng.integers(1, cfg.m_max + 1))
        ops = [_random_operator(operator_repo, pool, f"op{i}", rng) for i in range(m)]
        edges = list(chain_edges(ops))
        for i in range(m):
            for j in range(i + 2, m):
                if rng.random() < cfg.skip_edge_prob:
                    edges.append((ops[i].op_id, ops[j].op_id))
        genome = _assemble(ops, edges, [], {"parents": [], "mode": "init"}, taken)
        tags = emb.generate_tags(genome, evolver, pool, kappa=cfg.kappa)
        genome = genome.with_tags(tags)
        violations = validate(genome, pool, kappa=cfg.kappa)
        if violations:
            raise ConfigError(f"initialization produced invalid genome: {violations}")
        taken.add(genome.workflow_id)
        members.append(genome)
    return Population(members=members, generation=0, seed=seed)


# --- retrieval ----------------------------------------------------------------

def select_parents(
    members: Sequence[WorkflowGenome], query_vec: np.ndarray, k: int, embedder
) -> list[WorkflowGenome]:
    """The k members with largest tag-similarity score; ties by ascending id."""
    scored = sorted(
        members,
        key=lambda g: (-emb.similarity_score(g, query_vec, embedder), g.workflow_id),
    )
    return scored[:k]


# --- crossover ----------------------------------------------------------------

def _extract_json_document(reply: str) -> dict:
    start = reply.find("{")
    end = reply.rfind("}")
    if start < 0 or end <= start:
        raise ValueError("no JSON object in reply")
    return json.loads(reply[start : end + 1])


CROSSOVER_PROMPT = """You design multi-agent workflows as JSON documents.

Task to target:
{QUERY}

Reference workflows (parents):
{PARENTS}

Combine the strongest parts of the parents into one new workflow that is
accurate and cheap to run. Reply with a single JSON workflow document using
the same schema as the parents, and nothing else.
"""


def _llm_offspring_structure(
    parents, evolver: Evolver, cfg: EvolutionConfig, pool: ModelPool, query_text: str
):
    prompt = CROSSOVER_PROMPT.format(
        QUERY=query_text,
        PARENTS="\n\n".join(serialize(p) for p in parents),
    )

    def parse(reply: str):
        try:
            candidate = from_document(_extract_json_document(reply))
        except Exception:  # noqa: BLE001 - a malformed reply means the fallback
            return None
        ops = renumber_operators(candidate.operators)
        remap = {
            old.op_id: new.op_id
            for old, new in zip(candidate.operators, ops)
        }
        edges = tuple(
            (remap[a], remap[b])
            for a, b in candidate.inter_edges
            if a in remap and b in remap
        )
        trial = WorkflowGenome(
            workflow_id="trial", operators=ops, inter_edges=edges,
            tags=tuple(f"t{i}" for i in range(cfg.kappa)),
        )
        if validate(trial, pool, kappa=cfg.kappa):
            return None
        return ops, edges

    return evolver.ask(prompt, parse)


def crossover(
    parents: Sequence[WorkflowGenome],
    evolver: Optional[Evolver],
    cfg: EvolutionConfig,
    rng: np.random.Generator,
    pool: ModelPool,
    taken: set[str],
    query_text: str,
) -> WorkflowGenome:
    """Recombine the parents into an offspring sketch.

    The evolver's route is tried first (when given); any parse or
    validation failure falls back to a structured graft so the evolution step
    never aborts.
    """
    if not parents:
        raise ConfigError("crossover needs at least one parent")
    lineage = {"parents": [p.workflow_id for p in parents], "mode": "fallback"}

    if evolver is not None:
        result = _llm_offspring_structure(parents, evolver, cfg, pool, query_text)
        if result is not None:
            ops, edges = result
            lineage["mode"] = "llm"
            return _assemble(ops, edges, [], lineage, taken)

    base = parents[0]
    ops = list(base.operators)
    if len(parents) >= 2:
        donor = parents[1]
        i = int(rng.integers(len(donor.operators)))
        j = int(rng.integers(i, len(donor.operators)))
        segment = list(donor.operators[i : j + 1])
        k = int(rng.integers(len(ops) + 1))
        ops = ops[:k] + segment + ops[k:]
    ops = renumber_operators(ops)
    return _assemble(ops, chain_edges(ops), [], lineage, taken)


# --- mutations ------------------------------------------------------------

# Draw weights of operator mutation's add, delete and rewire actions.
MUTATION_WEIGHTS = np.full(3, 1 / 3)


def _edit_nodes(genome: WorkflowGenome, rng: np.random.Generator, rho: float, edit) -> WorkflowGenome:
    """Offer each invoking node to ``edit`` with probability rho; ``edit``
    returns the node's replacement, or None to keep it. One ``rng.random()``
    per node comes before any draw ``edit`` makes."""
    new_nodes: dict[str, InvokingNode] = {}
    for op in genome.operators:
        for node in op.invoking_nodes:
            if rng.random() >= rho:
                continue
            edited = edit(node)
            if edited is not None:
                new_nodes[node.node_id] = edited
    if not new_nodes:
        return genome
    ops = tuple(
        replace(
            op,
            invoking_nodes=tuple(new_nodes.get(n.node_id, n) for n in op.invoking_nodes),
        )
        if any(n.node_id in new_nodes for n in op.invoking_nodes)
        else op
        for op in genome.operators
    )
    return replace(genome, operators=ops)


def mutate_llm(
    genome: WorkflowGenome,
    llm_pool: LlmExperiencePool,
    pool: ModelPool,
    rng: np.random.Generator,
    domain: str,
    rho: float,
    evolver: Optional[Evolver] = None,
) -> WorkflowGenome:
    """Swap invoking-node model backbones: the evolver's pick when it names a
    pool model, else a draw weighted by each candidate model's historical
    positive rate in the query's domain."""
    model_ids = pool.model_ids
    if len(model_ids) < 2:
        return genome
    weights_of = {m: llm_pool.query_summary(m, domain).positive_rate for m in model_ids}

    def swap(node: InvokingNode) -> Optional[InvokingNode]:
        replacement = None
        if evolver is not None:
            replacement = _llm_pick_model(node, llm_pool, pool, domain, evolver)
        if replacement is None:
            candidates = [m for m in model_ids if m != node.model_id]
            weights = np.array([weights_of[m] for m in candidates])
            weights = weights / weights.sum()
            replacement = candidates[int(rng.choice(len(candidates), p=weights))]
        if replacement != node.model_id and replacement in pool:
            return replace(node, model_id=replacement)
        return None

    return _edit_nodes(genome, rng, rho, swap)


LLM_MUTATION_PROMPT = """You pick a model backbone for one agent node.

Available models: {MODELS}
Recent per-model outcomes in domain {DOMAIN}:
{HISTORY}

Current model: {CURRENT}
Reply with just the model id to use instead (or the current one to keep it).
"""


def _llm_pick_model(node, llm_pool, pool, domain, evolver: Evolver) -> Optional[str]:
    history = []
    for m in pool.model_ids:
        s = llm_pool.query_summary(m, domain)
        history.append(f"{m}: {s.positive_count} positive / {s.negative_count} negative")
    prompt = LLM_MUTATION_PROMPT.format(
        MODELS=", ".join(pool.model_ids),
        DOMAIN=domain,
        HISTORY="\n".join(history),
        CURRENT=node.model_id,
    )

    def parse(reply: str) -> Optional[str]:
        words = reply.split()
        return words[-1] if words and words[-1] in pool else None

    return evolver.ask(prompt, parse)


PROMPT_MUTATION_PROMPT = """You improve a single agent prompt.

Recent outcomes for this workflow:
{HISTORY}

Current prompt:
{PROMPT}

Rewrite the prompt to be clearer or add brief guidance. Keep every
{{placeholder}} that appears in the original. Reply with the new prompt only.
"""

# Deterministic prompt-mutation edits; each preserves existing placeholders
# because it only appends or prepends text.
PROMPT_EDITS = (
    lambda p: p + "\nWork through the problem step by step before answering.",
    lambda p: p + "\nState the final answer on its own last line.",
    lambda p: "You are a meticulous domain expert.\n" + p,
)

_PLACEHOLDER_CHECK = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


def _placeholders(prompt: str) -> set[str]:
    return set(_PLACEHOLDER_CHECK.findall(prompt))


def mutate_prompt(
    genome: WorkflowGenome,
    wf_pool: WorkflowExperiencePool,
    rng: np.random.Generator,
    rho: float,
    evolver: Optional[Evolver] = None,
) -> WorkflowGenome:
    """Rewrite node prompts, by the evolver when it replies, else by a random
    rule-based edit; an edit that drops any original placeholder is discarded
    and the original prompt kept."""

    def rewrite(node: InvokingNode) -> Optional[InvokingNode]:
        rewritten = None
        if evolver is not None:
            rewritten = _llm_rewrite_prompt(node, genome, wf_pool, evolver)
        if rewritten is None:
            edit = PROMPT_EDITS[int(rng.integers(len(PROMPT_EDITS)))]
            rewritten = edit(node.prompt)
        if rewritten == node.prompt or not _placeholders(node.prompt) <= _placeholders(rewritten):
            return None  # unchanged, or the edit dropped a placeholder
        return replace(node, prompt=rewritten)

    return _edit_nodes(genome, rng, rho, rewrite)


def _llm_rewrite_prompt(node, genome, wf_pool, evolver: Evolver) -> Optional[str]:
    # An offspring inherits its prompts from its first parent, so that
    # parent's outcomes are the history of the prompt being rewritten.
    first_parent = (genome.lineage.get("parents") or [genome.workflow_id])[0]
    history = "\n".join(wf_pool.query_summary(first_parent).recent_commentaries) or "(none)"
    prompt = PROMPT_MUTATION_PROMPT.format(HISTORY=history, PROMPT=node.prompt)
    return evolver.ask(prompt, lambda reply: reply.strip() or None)


def mutate_operator(
    genome: WorkflowGenome,
    rng: np.random.Generator,
    pool: ModelPool,
    cfg: EvolutionConfig,
    repo: Sequence[str],
) -> WorkflowGenome:
    """Add an operator, delete a non-sink operator, or rewire one inter-edge,
    drawn with ``MUTATION_WEIGHTS``; any result failing validation is
    discarded."""
    action = int(rng.choice(3, p=MUTATION_WEIGHTS))
    ops = list(genome.operators)
    edges = list(genome.inter_edges)

    if action == 0:  # add
        new_op = _random_operator(repo, pool, "opX", rng)
        ops.insert(int(rng.integers(len(ops) + 1)), new_op)
        new_ops = renumber_operators(ops)
        candidate = replace(genome, operators=new_ops, inter_edges=chain_edges(new_ops))
    elif action == 1:  # delete a non-sink operator
        if len(ops) <= 1:
            return genome
        has_out = {a for a, _ in edges}
        non_sink = [i for i, op in enumerate(ops) if op.op_id in has_out]
        if not non_sink:
            return genome
        del ops[non_sink[int(rng.integers(len(non_sink)))]]
        new_ops = renumber_operators(ops)
        candidate = replace(
            genome, operators=new_ops, inter_edges=chain_edges(new_ops)
        )
    else:  # rewire: add one forward skip edge
        order = topological_order([op.op_id for op in ops], edges)
        if order is None or len(ops) < 3:
            return genome
        pos = {oid: i for i, oid in enumerate(order)}
        existing = set(edges)
        candidates = [
            (a, b)
            for a in order
            for b in order
            if pos[a] + 1 < pos[b] and (a, b) not in existing
        ]
        if not candidates:
            return genome
        edges.append(candidates[int(rng.integers(len(candidates)))])
        candidate = replace(genome, inter_edges=tuple(edges))

    if validate(candidate, pool, kappa=cfg.kappa):
        return genome
    return candidate


# --- niching, stats, indicator fitness -----------------------------------------

def niching_area(
    pop: Population,
    offspring: WorkflowGenome,
    e: int,
    embedder,
    parents: Sequence[WorkflowGenome] = (),
) -> NichingPool:
    """Select the E members minimizing combined rank: position in descending
    tag-similarity order plus position in ascending cost-distance order."""
    ranks = combined_ranks(pop, offspring, embedder)
    chosen = sorted(pop.members, key=lambda g: (ranks[g.workflow_id], g.workflow_id))[:e]
    return NichingPool(offspring=offspring, parents=tuple(parents), area=tuple(chosen))


def combined_ranks(
    pop: Population, offspring: WorkflowGenome, embedder
) -> dict[str, int]:
    """Rank_S + Rank_c per member: similarity rank plus cost-distance rank."""
    members = list(pop.members)
    off_profile = emb.tag_profile(offspring, embedder)
    kappa = len(offspring.tags)
    sims = {
        m.workflow_id: kappa * emb.cosine(off_profile, emb.tag_profile(m, embedder))
        for m in members
    }
    cost_dist = {
        m.workflow_id: abs(offspring.stats.mean_cost - m.stats.mean_cost)
        for m in members
    }
    by_sim = sorted(members, key=lambda g: (-sims[g.workflow_id], g.workflow_id))
    by_cost = sorted(members, key=lambda g: (cost_dist[g.workflow_id], g.workflow_id))
    rank_s = {g.workflow_id: i for i, g in enumerate(by_sim)}
    rank_c = {g.workflow_id: i for i, g in enumerate(by_cost)}
    return {m.workflow_id: rank_s[m.workflow_id] + rank_c[m.workflow_id] for m in members}


def update_stats(genome: WorkflowGenome, observed_cost: float, observed_perf: float) -> WorkflowGenome:
    """Incremental mean update of cost and performance."""
    if not (0.0 <= observed_perf <= 1.0):
        raise ConfigError(f"observed_perf {observed_perf} out of [0,1]")
    if observed_cost < 0:
        raise ConfigError(f"observed_cost {observed_cost} negative")
    n = genome.stats.exec_count
    new = RunStats(
        exec_count=n + 1,
        mean_cost=(genome.stats.mean_cost * n + observed_cost) / (n + 1),
        mean_perf=(genome.stats.mean_perf * n + observed_perf) / (n + 1),
    )
    return genome.with_stats(new)


def dominates(a: ObjectivePoint, b: ObjectivePoint) -> bool:
    """Higher performance and lower cost, strictly better in at least one."""
    return (
        a.perf >= b.perf
        and a.cost <= b.cost
        and (a.perf > b.perf or a.cost < b.cost)
    )


@dataclass(frozen=True)
class NormBox:
    perf_min: float
    perf_max: float
    cost_min: float
    cost_max: float

    @classmethod
    def from_points(cls, points: Sequence[ObjectivePoint]) -> "NormBox":
        perfs = [p.perf for p in points]
        costs = [p.cost for p in points]
        return cls(min(perfs), max(perfs), min(costs), max(costs))

    def maximize_coords(self, p: ObjectivePoint) -> tuple[float, float]:
        """Both coordinates to-maximize in [0,1]; degenerate axes pin to 0.5."""
        if self.perf_max > self.perf_min:
            g1 = (p.perf - self.perf_min) / (self.perf_max - self.perf_min)
        else:
            g1 = 0.5
        if self.cost_max > self.cost_min:
            g2 = 1.0 - (p.cost - self.cost_min) / (self.cost_max - self.cost_min)
        else:
            g2 = 0.5
        return g1, g2


def epsilon_indicator(a: ObjectivePoint, b: ObjectivePoint, normbox: NormBox) -> float:
    """Additive epsilon indicator I(a,b): the smallest uniform shift of a's
    normalized objectives that makes a weakly dominate b."""
    ga = normbox.maximize_coords(a)
    gb = normbox.maximize_coords(b)
    return max(gb[0] - ga[0], gb[1] - ga[1])


def fitness(points: dict[str, ObjectivePoint], phi: float) -> dict[str, float]:
    """Indicator fitness: F(x) = sum over y != x of exp(-I(y,x) / (phi*Imax)).

    Smaller is better; the largest value marks the elimination candidate.
    """
    ids = sorted(points)
    if len(ids) < 2:
        raise ConfigError("fitness needs a pool of at least 2")
    normbox = NormBox.from_points([points[i] for i in ids])
    indicator: dict[tuple[str, str], float] = {}
    for y in ids:
        for x in ids:
            if x == y:
                continue
            indicator[(y, x)] = epsilon_indicator(points[y], points[x], normbox)
    imax = max(abs(v) for v in indicator.values())
    divisor = phi * imax if imax > 0 else 1.0
    return {
        x: sum(
            float(np.exp(-indicator[(y, x)] / divisor)) for y in ids if y != x
        )
        for x in ids
    }


def environmental_selection(
    pop: Population, pool: NichingPool, phi: float
) -> tuple[Population, str]:
    """Eliminate the worst-fitness candidate; the offspring only enters the
    population when an incumbent is eliminated instead."""
    candidates = pool.selection_candidates
    for g in candidates:
        if g.stats.exec_count < 1:
            raise ConfigError(
                f"candidate {g.workflow_id!r} entered selection without execution"
            )
    points = {g.workflow_id: objective_point(g) for g in candidates}
    fit = fitness(points, phi)
    worst = max(
        candidates,
        key=lambda g: (fit[g.workflow_id], g.stats.mean_cost, g.workflow_id),
    )
    if worst.workflow_id == pool.offspring.workflow_id:
        return Population(list(pop.members), pop.generation, pop.seed), worst.workflow_id
    members = [m for m in pop.members if m.workflow_id != worst.workflow_id]
    members.append(pool.offspring)
    return Population(members, pop.generation, pop.seed), worst.workflow_id


# --- the per-query evolution step ----------------------------------------------

@dataclass
class EvolveDeps:
    cfg: EvolutionConfig
    pool: ModelPool
    provider: object
    embedder: object
    repo: Sequence[str] = DEFAULT_OPERATOR_REPO
    llm_pool: LlmExperiencePool = field(default_factory=LlmExperiencePool)
    wf_pool: WorkflowExperiencePool = field(default_factory=WorkflowExperiencePool)
    # (workflow id, query text) -> trace, filled for a SimulatedProvider
    # only; ``evolve_step`` keeps the entries of the live population alone.
    # The provider, pool and call budget must stay those of the run.
    _traces: dict = field(default_factory=dict, init=False, repr=False)
    # The run's worker threads on a backend that waits; see ``_worker_pool``.
    _workers: Optional[ThreadPoolExecutor] = field(default=None, init=False, repr=False)

    def _worker_pool(self) -> ThreadPoolExecutor:
        """One thread per member a step can execute, E+K+1, made on first
        use and kept for the run; the threads end when this object is
        dropped."""
        if self._workers is None:
            self._workers = ThreadPoolExecutor(
                max_workers=self.cfg.niche_size + self.cfg.parents_k + 1,
                thread_name_prefix="nicheflow-member",
            )
            weakref.finalize(self, self._workers.shutdown, wait=False)
        return self._workers


@dataclass
class StepReport:
    """One line of ``steps.jsonl``: the only record of a step, from which
    the experience pools are folded (``memory.fold_report``). Each
    evaluation holds the member's perf, cost and sorted model ids."""

    generation: int
    query_id: str
    domain: str
    offspring_id: str
    accepted: bool
    eliminated_id: str
    evaluations: dict[str, dict]

    def to_doc(self) -> dict:
        """The report's fields; the evaluations are the report's own, not copies."""
        return dict(vars(self))


def _breed(
    pop: Population,
    parents: list[WorkflowGenome],
    query: TaskQuery,
    deps: EvolveDeps,
    evolver: Optional[Evolver],
    rng: np.random.Generator,
) -> WorkflowGenome:
    """The step's offspring: crossover, the three mutations, then tags and
    a fresh id."""
    cfg = deps.cfg
    offspring = crossover(
        parents, evolver, cfg, rng, deps.pool, pop.ids, query_text=query.text
    )
    offspring = mutate_llm(
        offspring, deps.llm_pool, deps.pool, rng,
        domain=query.domain, rho=cfg.rho_llm, evolver=evolver,
    )
    offspring = mutate_prompt(offspring, deps.wf_pool, rng, rho=cfg.rho_prompt, evolver=evolver)
    offspring = mutate_operator(offspring, rng, repo=deps.repo, pool=deps.pool, cfg=cfg)
    tags = emb.generate_tags(offspring, evolver, deps.pool, kappa=cfg.kappa)
    offspring = offspring.with_tags(tags)
    offspring = replace(offspring, workflow_id=fresh_workflow_id(offspring, pop.ids))
    violations = validate(offspring, deps.pool, kappa=cfg.kappa)
    if violations:  # every route keeps valid parents valid
        raise InvalidState(f"offspring {offspring.workflow_id!r} is invalid: {violations}")
    return offspring


def evolve_step(
    pop: Population,
    query: TaskQuery,
    deps: EvolveDeps,
    rng: np.random.Generator,
) -> tuple[Population, StepReport]:
    """One full evolution iteration on a single query: retrieve parents,
    breed and mutate an offspring, build the niching pool, execute and update
    stats, then environmentally select. It returns a new population and
    leaves ``pop`` as it was.

    Unless the provider is a ``SimulatedProvider``, the niche members run on
    the worker threads of ``deps``, one each. The K parents' runs depend only
    on (genome, query), so they start before breeding and overlap its
    evolver requests; the rest start after niching. The step returns or
    raises only once every run it started has finished. The simulated
    backend is pure, so there the members run one after another on the
    calling thread, and a member that already ran the query in this run
    replays its trace from ``deps``, which keeps only the new population's
    traces. Results are taken in workflow-id order either way, and the
    step's report is folded into the experience pools last, so a step that
    raises leaves them as they were."""
    cfg = deps.cfg
    evolver = make_evolver(cfg, deps.provider, deps.pool)
    query_vec = deps.embedder.embed(query.text)

    parents = select_parents(pop.members, query_vec, cfg.parents_k, deps.embedder)

    # The simulated backend never waits and holds the GIL for each call, so
    # threads would only add switching, and it answers a request the same
    # every time, so a rerun would only repeat the same calls.
    pure = isinstance(deps.provider, SimulatedProvider)
    traces = deps._traces if pure else None

    def run(genome: WorkflowGenome) -> tuple[float, float]:
        try:
            trace = execute(genome, query, deps.provider, deps.pool,
                            call_budget=cfg.call_budget, traces=traces)
            return evaluate(trace.answer, query), trace.total_cost
        except BudgetExceeded as e:
            # over-budget genomes score zero but still pay for their calls
            return 0.0, e.partial_cost

    started: dict[str, Future] = {}

    def start(genomes: Sequence[WorkflowGenome]) -> None:
        if not pure:
            for g in genomes:
                if g.workflow_id not in started:
                    started[g.workflow_id] = deps._worker_pool().submit(run, g)

    start(parents)
    try:
        offspring = _breed(pop, parents, query, deps, evolver, rng)
        niche = niching_area(pop, offspring, cfg.niche_size, deps.embedder, parents=parents)
        # Results are consumed in id order on this thread, so stats and the
        # report keep the serial order whichever way the members ran.
        members = sorted(niche.exec_members, key=lambda g: g.workflow_id)
        start(members)
    finally:
        wait(started.values())
    if pure:
        results = [run(g) for g in members]
    else:
        results = [started[g.workflow_id].result() for g in members]
    evaluations: dict[str, dict] = {}
    updated: dict[str, WorkflowGenome] = {}
    for genome, (perf, cost) in zip(members, results):
        new_genome = update_stats(genome, cost, perf)
        updated[new_genome.workflow_id] = new_genome
        models = sorted({n.model_id for op in genome.operators for n in op.invoking_nodes})
        evaluations[new_genome.workflow_id] = {"perf": perf, "cost": cost, "models": models}

    stepped = Population(
        [updated.get(m.workflow_id, m) for m in pop.members], pop.generation + 1, pop.seed
    )
    offspring = updated[offspring.workflow_id]
    niche = NichingPool(
        offspring=offspring,
        parents=tuple(updated[p.workflow_id] for p in parents),
        area=tuple(updated[a.workflow_id] for a in niche.area),
    )

    new_pop, eliminated = environmental_selection(stepped, niche, cfg.phi)
    if pure:
        live = new_pop.ids
        for key in [k for k in traces if k[0] not in live]:
            del traces[key]
    report = StepReport(
        generation=new_pop.generation,
        query_id=query.query_id,
        domain=query.domain,
        offspring_id=offspring.workflow_id,
        accepted=eliminated != offspring.workflow_id,
        eliminated_id=eliminated,
        evaluations=evaluations,
    )
    fold_report(vars(report), deps.llm_pool, deps.wf_pool)
    return new_pop, report


# --- inference ------------------------------------------------------------

def choose_workflow(
    pop: Population,
    query_vec: np.ndarray,
    embedder,
    mode: str = "best",
    budget: Optional[float] = None,
) -> WorkflowGenome:
    """best: argmax tag similarity (ties: lower mean cost, then id).
    budget: same among members with mean_cost <= budget; empty set falls back
    to the cheapest member."""
    members = list(pop.members)
    if mode == "budget":
        if budget is None:
            raise ConfigError("budget mode requires a budget")
        affordable = [m for m in members if m.stats.mean_cost <= budget]
        if not affordable:
            return min(members, key=lambda g: (g.stats.mean_cost, g.workflow_id))
        members = affordable
    elif mode != "best":
        raise ConfigError(f"unknown inference mode {mode!r}")
    return min(
        members,
        key=lambda g: (
            -emb.similarity_score(g, query_vec, embedder),
            g.stats.mean_cost,
            g.workflow_id,
        ),
    )


def infer(
    pop: Population,
    query: TaskQuery,
    embedder,
    provider,
    pool: ModelPool,
    mode: str = "best",
    budget: Optional[float] = None,
    *,
    call_budget: int,
):
    """Run the member ``choose_workflow`` picks for ``query``; ``pop`` is not
    modified. Tag vectors come from the embedder's shared cache, so a process
    serving many queries embeds a tag text again, at a given dimension, only
    after the bounded cache has dropped it."""
    query_vec = embedder.embed(query.text)
    genome = choose_workflow(pop, query_vec, embedder, mode=mode, budget=budget)
    trace = execute(genome, query, provider, pool, call_budget=call_budget)
    return genome, trace
