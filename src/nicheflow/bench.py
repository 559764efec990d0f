"""Synthetic task suites, Pareto-front extraction, and 2-D hypervolume,
enabling desk-scale quantitative experiments with the simulated model pool.
"""

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, InvalidInput
from .evolution import ObjectivePoint, Population, dominates
from .executor import TaskQuery
from .operators import OPERATORS, safe_arithmetic_eval
from .provider import make_task_envelope


@dataclass(frozen=True)
class DomainSpec:
    label: str
    difficulty: float  # in [0,1]; controls expression depth

    def __post_init__(self):
        if not (0.0 <= self.difficulty <= 1.0):
            raise ConfigError(f"difficulty {self.difficulty} out of [0,1]")


@dataclass
class SyntheticSuite:
    domains: list[DomainSpec]
    tasks: list[TaskQuery]
    seed: int


def _random_expression(rng: np.random.Generator, depth: int) -> str:
    if depth <= 0:
        return str(int(rng.integers(1, 10)))
    op = ["+", "-", "*"][int(rng.integers(3))]
    left = _random_expression(rng, depth - 1)
    right = _random_expression(rng, depth - 1)
    return f"({left} {op} {right})"


def generate_suite(
    domains: Sequence[DomainSpec], tasks_per_domain: int, seed: int
) -> SyntheticSuite:
    """Arithmetic-expression tasks whose gold answers come from an exact
    evaluator; difficulty maps to expression depth; generation is
    seed-deterministic."""
    if not domains:
        raise ConfigError("suite needs at least one domain")
    tasks: list[TaskQuery] = []
    for d_idx, domain in enumerate(domains):
        rng = np.random.default_rng([seed, d_idx])
        depth = int(round(domain.difficulty * 4))
        for i in range(tasks_per_domain):
            expr = _random_expression(rng, depth)
            gold = str(safe_arithmetic_eval(expr))
            query_id = f"{domain.label}-{i:04d}"
            envelope = make_task_envelope(query_id, domain.label, gold)
            tasks.append(
                TaskQuery(
                    query_id=query_id,
                    text=f"Compute the value of {expr}. {envelope}",
                    domain=domain.label,
                    gold=gold,
                    metric="numeric",
                )
            )
    return SyntheticSuite(domains=list(domains), tasks=tasks, seed=seed)


def interleave_tasks(suite: SyntheticSuite) -> list[TaskQuery]:
    """Round-robin over domains so the query stream alternates domains."""
    by_domain: dict[str, list[TaskQuery]] = {}
    for t in suite.tasks:
        by_domain.setdefault(t.domain, []).append(t)
    streams = [by_domain[d.label] for d in suite.domains]
    out: list[TaskQuery] = []
    for i in range(max(len(s) for s in streams)):
        for s in streams:
            if i < len(s):
                out.append(s[i])
    return out


# --- Pareto front and hypervolume ----------------------------------------------

def pareto_front(points: Iterable[ObjectivePoint]) -> list[ObjectivePoint]:
    """Exactly the non-dominated points, duplicates collapsed to one
    representative, ordered by ascending cost."""
    unique = sorted(set(points), key=lambda p: (p.cost, -p.perf))
    front = [
        p
        for p in unique
        if not any(dominates(q, p) for q in unique if q != p)
    ]
    return front


def hypervolume(front: Sequence[ObjectivePoint], ref: ObjectivePoint) -> float:
    """Exact 2-D sweep: area of the objective region between the front and a
    reference point that every front point dominates."""
    if not front:
        return 0.0
    for p in front:
        if not dominates(p, ref):
            raise InvalidInput(
                f"front point {p} does not dominate the reference {ref}"
            )
    pts = pareto_front(front)
    pts.sort(key=lambda p: p.cost)  # ascending cost => ascending perf on a front
    area = 0.0
    for i, p in enumerate(pts):
        next_cost = pts[i + 1].cost if i + 1 < len(pts) else ref.cost
        area += (next_cost - p.cost) * (p.perf - ref.perf)
    return area


def population_points(pop: Population) -> dict[str, ObjectivePoint]:
    """Objective points of executed members, with cost normalized by the
    population's max observed mean cost."""
    executed = [m for m in pop.members if m.stats.exec_count > 0]
    if not executed:
        return {}
    max_cost = max(m.stats.mean_cost for m in executed)
    scale = max_cost if max_cost > 0 else 1.0
    return {
        m.workflow_id: ObjectivePoint(m.stats.mean_perf, m.stats.mean_cost / scale)
        for m in executed
    }


POP_HV_REF = ObjectivePoint(perf=-1e-9, cost=1.0 + 1e-9)


def population_hypervolume(pop: Population, ref: ObjectivePoint = POP_HV_REF) -> float:
    """Scalar progress metric for a population on the cost-performance plane.

    Points that do not dominate the reference contribute nothing.
    """
    points = [p for p in population_points(pop).values() if dominates(p, ref)]
    if not points:
        return 0.0
    return hypervolume(pareto_front(points), ref)


def front_table(pop: Population) -> list[dict]:
    points = population_points(pop)
    front = set(pareto_front(points.values()))
    rows = []
    for m in sorted(pop.members, key=lambda g: g.workflow_id):
        if m.workflow_id not in points:
            continue
        p = points[m.workflow_id]
        rows.append(
            {
                "workflow_id": m.workflow_id,
                "perf": m.stats.mean_perf,
                "cost": m.stats.mean_cost,
                "on_front": int(p in front),
            }
        )
    return rows


def export_front(pop: Population, path) -> Path:
    """Comma-separated front table: workflow_id,perf,cost,on_front."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["workflow_id", "perf", "cost", "on_front"])
        writer.writeheader()
        for row in front_table(pop):
            writer.writerow(row)
    return path


# --- workflow complexity tiers ---------------------------------------------------

def nominal_call_count(genome) -> int:
    """Static per-execution call estimate, used to bucket genome complexity."""
    return sum(
        OPERATORS[op.kind].calls or len(op.invoking_nodes) for op in genome.operators
    )


def call_count_tier(count: int) -> str:
    if count <= 2:
        return "simple"
    if count <= 8:
        return "medium"
    return "complex"
