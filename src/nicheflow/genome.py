"""Workflow genome data model: invoking nodes, operator nodes, the workflow DAG,
validation, and canonical serialization.

Genomes are immutable values; every evolutionary operation produces a new
genome rather than editing in place.
"""

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Sequence

from . import canonical
from .errors import GenomeParseError, InvalidInput
from .operators import OPERATORS, arity_violation, topological_order

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ModelSpec:
    """A model backbone with pricing (per 1e6 tokens) and advisory metadata."""

    model_id: str
    prompt_price: float
    completion_price: float
    latency_hint: float = 0.0

    @property
    def unit_price(self) -> float:
        """Prompt plus completion price: the figure models are ranked by."""
        return self.prompt_price + self.completion_price


class ModelPool:
    """Registry of model specs keyed by model_id."""

    def __init__(self, specs: Iterable[ModelSpec]):
        self._specs: dict[str, ModelSpec] = {}
        for spec in specs:
            if not spec.model_id:
                raise InvalidInput("model_id must be nonempty")
            if spec.model_id in self._specs:
                raise InvalidInput(f"model_id must be unique: {spec.model_id!r} repeats")
            for name in ("prompt_price", "completion_price"):
                if getattr(spec, name) < 0:
                    raise InvalidInput(f"{name} must be >= 0 for model {spec.model_id!r}")
            self._specs[spec.model_id] = spec

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def get(self, model_id: str) -> ModelSpec:
        try:
            return self._specs[model_id]
        except KeyError:
            raise InvalidInput(f"unknown model {model_id!r}") from None

    @property
    def model_ids(self) -> list[str]:
        return sorted(self._specs)


@dataclass(frozen=True)
class InvokingNode:
    node_id: str
    model_id: str
    prompt: str
    temperature: float = 1.0


@dataclass(frozen=True)
class OperatorNode:
    op_id: str
    kind: str
    invoking_nodes: tuple[InvokingNode, ...]
    intra_edges: tuple[tuple[str, str], ...] = ()
    params: Mapping[str, Any] = field(default_factory=dict)

    def node(self, node_id: str) -> InvokingNode:
        for n in self.invoking_nodes:
            if n.node_id == node_id:
                return n
        raise InvalidInput(f"operator {self.op_id!r} has no node {node_id!r}")


@dataclass(frozen=True)
class RunStats:
    exec_count: int = 0
    mean_cost: float = 0.0
    mean_perf: float = 0.0


@dataclass(frozen=True)
class WorkflowGenome:
    workflow_id: str
    operators: tuple[OperatorNode, ...]
    inter_edges: tuple[tuple[str, str], ...] = ()
    tags: tuple[str, ...] = ()
    stats: RunStats = RunStats()
    lineage: Mapping[str, Any] = field(default_factory=dict)

    def operator(self, op_id: str) -> OperatorNode:
        for op in self.operators:
            if op.op_id == op_id:
                return op
        raise InvalidInput(f"genome {self.workflow_id!r} has no operator {op_id!r}")

    @property
    def op_ids(self) -> list[str]:
        return [op.op_id for op in self.operators]

    def with_stats(self, stats: RunStats) -> "WorkflowGenome":
        return replace(self, stats=stats)

    def with_tags(self, tags: Sequence[str]) -> "WorkflowGenome":
        return replace(self, tags=tuple(tags))


def sink_operators(genome: WorkflowGenome) -> list[str]:
    has_out = {a for a, _ in genome.inter_edges}
    return [op.op_id for op in genome.operators if op.op_id not in has_out]


def validate(genome: WorkflowGenome, pool: ModelPool, kappa: int) -> list[str]:
    """Return every invariant violation, deterministically ordered.

    Violations are data, not failures: an empty list means the genome is valid.
    """
    v: list[str] = []

    if not genome.operators:
        v.append("no operators")
        return v

    op_ids = genome.op_ids
    seen: set[str] = set()
    for oid in op_ids:
        if oid in seen:
            v.append(f"duplicate op_id {oid!r}")
        seen.add(oid)

    all_node_ids: set[str] = set()
    for op in genome.operators:
        if op.kind not in OPERATORS:
            v.append(f"operator {op.op_id!r}: unknown kind {op.kind!r}")
            continue
        problem = arity_violation(op)
        if problem is not None:
            v.append(problem)
        for name, value in op.params.items():
            if name not in OPERATORS[op.kind].params:
                v.append(f"operator {op.op_id!r}: kind {op.kind} has no param {name!r}")
            elif isinstance(value, bool) or not isinstance(value, int) or value < 1:
                v.append(f"operator {op.op_id!r}: param {name!r} is {value!r}, not an integer >= 1")
        if not op.invoking_nodes:
            continue
        node_ids = [n.node_id for n in op.invoking_nodes]
        for nid in node_ids:
            if nid in all_node_ids:
                v.append(f"duplicate node_id {nid!r}")
            all_node_ids.add(nid)
        for n in op.invoking_nodes:
            if n.model_id not in pool:
                v.append(f"node {n.node_id!r}: dangling model_id {n.model_id!r}")
            if not (0.0 <= n.temperature <= 1.0):
                v.append(f"node {n.node_id!r}: temperature {n.temperature} out of [0,1]")
        node_set = set(node_ids)
        for a, b in op.intra_edges:
            if a not in node_set or b not in node_set:
                v.append(f"operator {op.op_id!r}: intra edge ({a},{b}) outside its nodes")
        if topological_order(node_ids, [e for e in op.intra_edges
                                        if e[0] in node_set and e[1] in node_set]) is None:
            v.append(f"operator {op.op_id!r}: intra-edge cycle")

    op_set = set(op_ids)
    bad_edge = False
    for a, b in genome.inter_edges:
        if a not in op_set or b not in op_set:
            v.append(f"inter edge ({a},{b}) references unknown operator")
            bad_edge = True
    if not bad_edge:
        if topological_order(op_ids, genome.inter_edges) is None:
            cyc = sorted({a for a, _ in genome.inter_edges} & {b for _, b in genome.inter_edges})
            v.append("cycle: " + "<->".join(cyc) if cyc else "cycle in inter edges")
        else:
            sinks = sink_operators(genome)
            if len(sinks) != 1:
                v.append(f"expected exactly one sink operator, found {len(sinks)}: {sorted(sinks)}")

    if len(genome.tags) != kappa:
        v.append(f"tag count {len(genome.tags)} != {kappa}")

    s = genome.stats
    if s.exec_count < 0:
        v.append("exec_count negative")
    if s.exec_count == 0 and (s.mean_cost != 0.0 or s.mean_perf != 0.0):
        v.append("exec_count 0 requires zero means")
    if not (0.0 <= s.mean_perf <= 1.0):
        v.append(f"mean_perf {s.mean_perf} out of [0,1]")
    if s.mean_cost < 0:
        v.append(f"mean_cost {s.mean_cost} negative")

    return v


# --- serialization -----------------------------------------------------------

def to_document(genome: WorkflowGenome) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "workflow_id": genome.workflow_id,
        "operators": [
            {
                "op_id": op.op_id,
                "kind": op.kind,
                "params": dict(op.params),
                "invoking_nodes": [
                    {
                        "node_id": n.node_id,
                        "model_id": n.model_id,
                        "prompt": n.prompt,
                        "temperature": n.temperature,
                    }
                    for n in op.invoking_nodes
                ],
                "intra_edges": [list(e) for e in op.intra_edges],
            }
            for op in genome.operators
        ],
        "inter_edges": [list(e) for e in genome.inter_edges],
        "tags": list(genome.tags),
        "stats": {
            "exec_count": genome.stats.exec_count,
            "mean_cost": genome.stats.mean_cost,
            "mean_perf": genome.stats.mean_perf,
        },
        "lineage": dict(genome.lineage),
    }


def serialize(genome: WorkflowGenome) -> str:
    return canonical.dumps(to_document(genome))


def _require(doc: Mapping[str, Any], field_name: str, typ) -> Any:
    if field_name not in doc:
        raise GenomeParseError(f"missing field {field_name!r}", field=field_name)
    value = doc[field_name]
    if typ is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise GenomeParseError(f"field {field_name!r} must be a number", field=field_name)
        return float(value)
    if not isinstance(value, typ):
        raise GenomeParseError(
            f"field {field_name!r} must be {typ.__name__}", field=field_name
        )
    return value


def from_document(doc: Mapping[str, Any]) -> WorkflowGenome:
    if not isinstance(doc, Mapping):
        raise GenomeParseError("top-level document must be an object")
    version = _require(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise GenomeParseError(
            f"unsupported schema_version {version}", field="schema_version"
        )
    operators = []
    for op_doc in _require(doc, "operators", list):
        if not isinstance(op_doc, Mapping):
            raise GenomeParseError("operator entries must be objects", field="operators")
        nodes = []
        for n_doc in _require(op_doc, "invoking_nodes", list):
            nodes.append(
                InvokingNode(
                    node_id=_require(n_doc, "node_id", str),
                    model_id=_require(n_doc, "model_id", str),
                    prompt=_require(n_doc, "prompt", str),
                    temperature=_require(n_doc, "temperature", float),
                )
            )
        operators.append(
            OperatorNode(
                op_id=_require(op_doc, "op_id", str),
                kind=_require(op_doc, "kind", str),
                invoking_nodes=tuple(nodes),
                intra_edges=tuple(
                    (str(e[0]), str(e[1])) for e in op_doc.get("intra_edges", [])
                ),
                params=dict(op_doc.get("params", {})),
            )
        )
    stats_doc = _require(doc, "stats", Mapping)
    return WorkflowGenome(
        workflow_id=_require(doc, "workflow_id", str),
        operators=tuple(operators),
        inter_edges=tuple((str(e[0]), str(e[1])) for e in _require(doc, "inter_edges", list)),
        tags=tuple(str(t) for t in _require(doc, "tags", list)),
        stats=RunStats(
            exec_count=_require(stats_doc, "exec_count", int),
            mean_cost=_require(stats_doc, "mean_cost", float),
            mean_perf=_require(stats_doc, "mean_perf", float),
        ),
        lineage=dict(doc.get("lineage", {})),
    )


def deserialize(text: str) -> WorkflowGenome:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GenomeParseError(f"malformed document: {e.msg}", position=e.pos) from e
    return from_document(doc)


def content_hash(genome: WorkflowGenome) -> str:
    """Hash of the canonical structure, excluding identity, stats, and lineage.

    Structural clones share a hash, which makes duplicates detectable.
    """
    doc = to_document(genome)
    for transient in ("workflow_id", "stats", "lineage"):
        doc.pop(transient, None)
    digest = hashlib.sha256(canonical.dumps(doc).encode("utf-8")).hexdigest()
    return digest[:16]


def fresh_workflow_id(genome: WorkflowGenome, taken: set[str]) -> str:
    """Content hash, suffixed with a counter when the hash is already in use."""
    base = content_hash(genome)
    if base not in taken:
        return base
    i = 1
    while f"{base}-{i}" in taken:
        i += 1
    return f"{base}-{i}"
