"""Workflow execution: topological scheduling of operator nodes over a model
provider, call metering, and answer scoring. A trace is the answer, the total
cost and the call count; each operator's own semantics come from the operator
registry.
"""

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import BudgetExceeded, InvalidInput
from .genome import ModelPool, WorkflowGenome
from .operators import extract_number, parse_number, run_dag, run_operator
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
        if self.metric not in ("exact", "numeric", "custom"):
            raise InvalidInput(f"query {self.query_id!r}: unknown metric {self.metric!r}")
        if self.metric == "custom" and self.scorer is None:
            raise InvalidInput(f"query {self.query_id!r}: custom metric requires a scorer callback")


@dataclass(frozen=True)
class ExecutionTrace:
    """One run's outcome; ``answer`` is None when the run went over its call
    budget, and the cost and count are then those spent before it stopped."""

    answer: Optional[str]
    total_cost: float
    call_count: int


class _Caller:
    """Issues model calls for one execution, enforcing the call budget and
    metering their count and cost."""

    def __init__(self, provider, pool: ModelPool, budget: int):
        self.provider = provider
        self.pool = pool
        self.budget = budget
        self.count = 0
        self.total_cost = 0.0

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
        self.total_cost += call_cost(resp, self.pool.get(node.model_id))
        return resp.content


def execute(
    genome: WorkflowGenome,
    query: TaskQuery,
    provider,
    pool: ModelPool,
    call_budget: int = DEFAULT_CALL_BUDGET,
    *,
    traces: Optional[dict] = None,
) -> ExecutionTrace:
    """Run every operator once in a topological order, threading each
    operator's output to its inter-edge successors; the single sink's output
    is the answer. An over-budget run's ``BudgetExceeded`` names the genome.

    ``traces`` is a memo keyed by (workflow id, query text): a run kept there
    is replayed without a model call, and a new run is kept. It is sound only
    when the provider is a pure function of the request, the pool and call
    budget stay fixed, and each workflow id names one structure. An
    over-budget run is kept as a trace with no answer, not as the exception,
    whose traceback would pin the run's frames."""
    key = (genome.workflow_id, query.text)
    trace = traces.get(key) if traces is not None else None
    if trace is None:
        caller = _Caller(provider, pool, call_budget)
        try:
            answer = run_dag(
                genome.op_ids, genome.inter_edges, f"genome {genome.workflow_id!r}",
                lambda oid, context: run_operator(genome.operator(oid), query.text, context, caller),
            )
        except BudgetExceeded:
            answer = None
        trace = ExecutionTrace(answer, caller.total_cost, caller.count)
        if traces is not None:
            traces[key] = trace
    if trace.answer is None:
        raise BudgetExceeded(
            f"genome {genome.workflow_id!r}: call budget {call_budget} exceeded",
            partial_cost=trace.total_cost,
        )
    return trace


# --- answer scoring ----------------------------------------------------------

def _normalize_text(text: str) -> str:
    return " ".join(text.strip().lower().split())


def evaluate(answer: str, query: TaskQuery) -> float:
    """Score an answer in [0,1] per the query's metric."""
    if query.metric == "custom":
        return float(query.scorer(answer, query))
    if query.gold is None:
        raise InvalidInput(f"query {query.query_id!r}: metric {query.metric} requires gold")
    if query.metric == "exact":
        return 1.0 if _normalize_text(answer) == _normalize_text(query.gold) else 0.0
    gold = parse_number(query.gold)  # the numeric metric
    if gold is None:
        raise InvalidInput(f"query {query.query_id!r}: gold is not numeric")
    got = extract_number(answer)
    if got is None:
        return 0.0
    # under half a unit, so an integer gold needs that integer
    tol = min(1e-6 * max(abs(gold), 1e-9), 0.5)
    return 1.0 if abs(got - gold) <= tol else 0.0

