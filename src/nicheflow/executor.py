"""Workflow execution: topological scheduling of operator nodes over a model
provider, call metering, and answer scoring. A trace keeps the answer and the
cost of each call; each operator's own semantics come from the operator registry.
"""

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .errors import BudgetExceeded, InvalidInput, StructureError
from .genome import ModelPool, WorkflowGenome
from .operators import extract_number, parse_number, run_operator, topological_order
from .provider import ChatRequest, ChatResponse, call_cost

DEFAULT_CALL_BUDGET = 64


@dataclass(frozen=True)
class TaskQuery:
    query_id: str
    text: str
    domain: str = "general"
    gold: Optional[str] = None
    metric: str = "exact"  # exact | numeric | custom
    scorer: Optional[Callable[[str, "TaskQuery"], float]] = None

    def __post_init__(self):
        if not self.text.strip():
            raise InvalidInput("query text must be nonempty")


@dataclass(frozen=True)
class CallRecord:
    cost: float


@dataclass(frozen=True)
class OperatorRecord:
    op_id: str
    kind: str
    calls: tuple[CallRecord, ...]


@dataclass(frozen=True)
class ExecutionTrace:
    records: tuple[OperatorRecord, ...]
    total_cost: float
    answer: str

    @property
    def call_count(self) -> int:
        return sum(len(r.calls) for r in self.records)


class _Caller:
    """Issues model calls for one execution, enforcing the call budget and
    accumulating per-operator call records."""

    def __init__(self, provider, pool: ModelPool, budget: int):
        self.provider = provider
        self.pool = pool
        self.budget = budget
        self.count = 0
        self.total_cost = 0.0
        self.records: list[CallRecord] = []

    def call(self, node, rendered_prompt: str) -> str:
        if self.count >= self.budget:
            raise BudgetExceeded(
                f"call budget {self.budget} exceeded",
                partial_cost=self.total_cost,
            )
        self.count += 1
        req = ChatRequest(
            model_id=node.model_id,
            messages=({"role": "user", "content": rendered_prompt},),
            temperature=node.temperature,
        )
        resp: ChatResponse = self.provider.chat(req)
        cost = call_cost(resp, self.pool.get(node.model_id))
        self.total_cost += cost
        self.records.append(CallRecord(cost))
        return resp.content

    def take_records(self) -> tuple[CallRecord, ...]:
        recs = tuple(self.records)
        self.records = []
        return recs


def execute(
    genome: WorkflowGenome,
    query: TaskQuery,
    provider,
    pool: ModelPool,
    call_budget: int = DEFAULT_CALL_BUDGET,
    tools: Optional[Mapping[str, Callable]] = None,
) -> ExecutionTrace:
    """Run every operator once in a topological order, threading each
    operator's output to its inter-edge successors; the single sink's output
    is the answer."""
    order = topological_order(genome.op_ids, genome.inter_edges)
    if order is None:
        raise StructureError(f"genome {genome.workflow_id!r} has cyclic inter edges")
    preds: dict[str, list[str]] = {oid: [] for oid in genome.op_ids}
    for a, b in genome.inter_edges:
        preds[b].append(a)
    caller = _Caller(provider, pool, call_budget)
    outputs: dict[str, str] = {}
    records: list[OperatorRecord] = []
    for oid in order:
        op = genome.operator(oid)
        context = "\n".join(
            f"## Output of {p}:\n{outputs[p]}" for p in sorted(preds[oid])
        )
        outputs[oid] = run_operator(op, query.text, context, caller, tools)
        records.append(OperatorRecord(op_id=oid, kind=op.kind, calls=caller.take_records()))
    answer = outputs[order[-1]]
    total_cost = sum(c.cost for r in records for c in r.calls)
    return ExecutionTrace(records=tuple(records), total_cost=total_cost, answer=answer)


# --- answer scoring ----------------------------------------------------------

def _normalize_text(text: str) -> str:
    return " ".join(text.strip().lower().split())


def evaluate(answer: str, query: TaskQuery) -> float:
    """Score an answer in [0,1] per the query's metric."""
    if query.metric == "custom":
        if query.scorer is None:
            raise InvalidInput("custom metric requires a scorer callback")
        return float(query.scorer(answer, query))
    if query.gold is None:
        raise InvalidInput(f"query {query.query_id!r}: metric {query.metric} requires gold")
    if query.metric == "exact":
        return 1.0 if _normalize_text(answer) == _normalize_text(query.gold) else 0.0
    if query.metric == "numeric":
        gold = parse_number(query.gold)
        if gold is None:
            raise InvalidInput(f"query {query.query_id!r}: gold is not numeric")
        got = extract_number(answer)
        if got is None:
            return 0.0
        tol = 1e-6 * max(abs(gold), 1e-9)
        return 1.0 if abs(got - gold) <= tol else 0.0
    raise InvalidInput(f"unknown metric {query.metric!r}")

