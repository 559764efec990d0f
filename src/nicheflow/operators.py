"""The operator registry: every fact about an operator kind in one table.

Each kind (CoT, Debate, ...) has one ``OperatorSpec`` holding its default node
prompts, default intra-operator wiring, default params, the runner that gives
it its semantics over a model provider, and its nominal call count, and
``operator_violations`` is the one check of an operator against its kind.
Genome validation, operator instantiation, execution and complexity tiers all
read this table, so the module sits below them and imports nothing else from
the package but its errors. ``run_dag`` is the one walk that runs a DAG: the
executor's over a workflow's operators, the Custom runner's over its nodes.
"""

import ast
import functools
import heapq
import operator as _op_mod
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import InvalidInput, StructureError, TemplateError

SELFREFINE_STOP_MARKER = "NO FURTHER REFINEMENT"


@functools.lru_cache(maxsize=256)
def _parse_template(prompt: str) -> tuple[tuple[str, Optional[str]], ...]:
    # a malformed template raises ValueError, which lru_cache does not keep
    return tuple((literal, name) for literal, name, _spec, _conv in string.Formatter().parse(prompt))


def render_prompt(prompt: str, mapping: Mapping[str, str], op_id: str) -> str:
    """Resolve named placeholders; any placeholder without a binding is an
    execution error, not a validation error. The parses of the most recently
    used template texts are kept; a malformed one raises on every call."""
    out = []
    try:
        parsed = _parse_template(prompt)
    except ValueError as e:
        raise TemplateError(op_id, f"<malformed: {e}>") from None
    for literal, field_name in parsed:
        out.append(literal)
        if field_name is None:
            continue
        if field_name not in mapping:
            raise TemplateError(op_id, field_name or "<empty>")
        out.append(str(mapping[field_name]))
    return "".join(out)


def topological_order(nodes: Sequence[str], edges: Iterable[tuple[str, str]]) -> Optional[list[str]]:
    """Kahn's algorithm with lexicographic tie-breaking; None if cyclic."""
    nodes = list(nodes)
    succ: dict[str, set[str]] = {n: set() for n in nodes}
    indeg: dict[str, int] = {n: 0 for n in nodes}
    for a, b in edges:
        if b not in succ[a]:
            succ[a].add(b)
            indeg[b] += 1
    ready = sorted(n for n in nodes if indeg[n] == 0)  # a sorted list is a heap
    order: list[str] = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in succ[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    if len(order) != len(nodes):
        return None
    return order


def run_dag(nodes: Sequence[str], edges: Iterable[tuple[str, str]], owner: str, run) -> str:
    """Run every node once in topological order, as ``run(node, inputs)`` with
    its sorted predecessors' outputs as ``## Output of {p}:`` sections; the
    last node's output is the result. A cycle is a ``StructureError``."""
    order = topological_order(nodes, edges)
    if order is None:
        raise StructureError(f"{owner} has cyclic edges")
    preds: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in edges:
        preds[b].append(a)
    outputs: dict[str, str] = {}
    for n in order:
        inputs = "\n".join(f"## Output of {p}:\n{outputs[p]}" for p in sorted(preds[n]))
        outputs[n] = run(n, inputs)
    return outputs[order[-1]]


# --- answer keys ---------------------------------------------------------------

_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?(?:\s*/\s*-?\d+)?")
_BOXED_RE = re.compile(r"boxed\{([^{}]*)\}")


def parse_number(text: str) -> Optional[float]:
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return float(num) / float(den)
        except (ValueError, ZeroDivisionError):
            return None
    try:
        return float(text)
    except ValueError:
        return None


def extract_number(answer: str) -> Optional[float]:
    """Boxed content when present, else the last number in the text."""
    boxed = _BOXED_RE.findall(answer)
    if boxed:
        value = parse_number(boxed[-1])
        if value is not None:
            return value
    matches = _NUMBER_RE.findall(answer)
    if not matches:
        return None
    return parse_number(matches[-1])


def extract_answer_key(answer: str) -> str:
    """Normalized vote key used by majority voting."""
    value = extract_number(answer)
    if value is not None:
        return f"num:{value:.9g}"
    return " ".join(answer.strip().lower().split())


# --- arithmetic tool (ReAct's eval) -------------------------------------------

_ALLOWED_BINOPS = {
    ast.Add: _op_mod.add,
    ast.Sub: _op_mod.sub,
    ast.Mult: _op_mod.mul,
    ast.Div: _op_mod.truediv,
    ast.FloorDiv: _op_mod.floordiv,
    ast.Mod: _op_mod.mod,
    ast.Pow: _op_mod.pow,
}


def safe_arithmetic_eval(expression: str):
    """Evaluate a pure arithmetic expression; anything else is rejected."""

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value
        if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
            return _ALLOWED_BINOPS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            value = walk(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        raise InvalidInput(f"disallowed expression element {type(node).__name__}")

    try:
        tree = ast.parse(expression.strip(), mode="eval")
    except SyntaxError as e:
        raise InvalidInput(f"malformed expression: {e.msg}") from None
    result = walk(tree)
    if isinstance(result, float) and result.is_integer():
        return int(result)
    return result


# --- runners: per-kind semantics over a caller ---------------------------------
#
# A runner takes (op, task, context, caller) and returns the operator's
# output; ``caller.call(node, prompt)`` makes one metered model call.

def _param(op, name: str) -> int:
    """The operator's own value of a param, else its kind's default."""
    return op.params.get(name, OPERATORS[op.kind].params[name])


def _ask(caller, op, node, **values) -> str:
    """One metered call of ``node``, its prompt rendered over ``values``."""
    return caller.call(node, render_prompt(node.prompt, values, op.op_id))


def _run_cot(op, task, context, caller):
    return _ask(caller, op, op.invoking_nodes[0], task=task, context=context)


def _run_debate(op, task, context, caller):
    debaters = op.invoking_nodes[:3]
    aggregator = op.invoking_nodes[3]
    rounds = _param(op, "rounds")
    positions = ""
    for rnd in range(1, rounds + 1):
        round_outputs = []
        for i, node in enumerate(debaters):
            reply = _ask(
                caller, op, node, task=task, context=context, positions=positions, round=rnd
            )
            round_outputs.append(f"[round {rnd} debater {i + 1}] {reply}")
        positions = (positions + "\n" if positions else "") + "\n".join(round_outputs)
    return _ask(caller, op, aggregator, task=task, positions=positions)


def _run_stepback(op, task, context, caller):
    principle_node, answer_node = op.invoking_nodes
    principle = _ask(caller, op, principle_node, task=task, context=context)
    return _ask(caller, op, answer_node, task=task, principle=principle)


def _run_self_consistency(op, task, context, caller):
    node = op.invoking_nodes[0]
    samples = _param(op, "samples")
    answers = [
        _ask(caller, op, node, task=task, context=context, sample=i)
        for i in range(1, samples + 1)
    ]
    # majority vote on extracted answers; ties broken by first-sampled order
    keys = [extract_answer_key(a) for a in answers]
    counts = Counter(keys)
    best = max(counts.values())
    for key, answer in zip(keys, answers):
        if counts[key] == best:
            return answer
    return answers[0]


def _run_self_refine(op, task, context, caller):
    generator, reflector = op.invoking_nodes
    answer = _ask(caller, op, generator, task=task, context=context)
    max_iter = _param(op, "max_iterations")
    for _ in range(max_iter):
        feedback = _ask(caller, op, reflector, task=task, response=answer)
        if SELFREFINE_STOP_MARKER in feedback:
            break
        revision_prompt = (
            render_prompt(generator.prompt, {"task": task, "context": context}, op.op_id)
            + f"\n\nPrevious answer:\n{answer}\n\nReviewer feedback:\n{feedback}\n"
            "Revise your answer accordingly."
        )
        revised = caller.call(generator, revision_prompt)
        if revised == answer:
            break
        answer = revised
    return answer


def _run_ensemble(op, task, context, caller):
    answerers = op.invoking_nodes[:3]
    ranker = op.invoking_nodes[3]
    answers = []
    for i, node in enumerate(answerers):
        reply = _ask(caller, op, node, task=task, context=context)
        answers.append(f"[candidate {i + 1}] {reply}")
    return _ask(caller, op, ranker, task=task, answers="\n".join(answers))


_TOOL_CALL_RE = re.compile(r"eval\(([^()]*(?:\([^()]*\)[^()]*)*)\)")


def _run_react(op, task, context, caller):
    node = op.invoking_nodes[0]
    max_iter = _param(op, "max_iterations")
    scratchpad = ""
    reply = ""
    for _ in range(max_iter):
        reply = _ask(caller, op, node, task=task, context=context, scratchpad=scratchpad)
        m = _TOOL_CALL_RE.search(reply)
        if m is None:
            return reply
        try:
            observation = str(safe_arithmetic_eval(m.group(1)))
        except Exception as e:  # noqa: BLE001 - tool errors become observations
            observation = f"tool error: {e}"
        scratchpad += f"\nAction: eval({m.group(1)})\nObservation: {observation}"
    return reply


def _run_expert(op, task, context, caller):
    router, expert = op.invoking_nodes
    persona = _ask(caller, op, router, task=task)
    return _ask(caller, op, expert, task=task, persona=persona.strip())


def _run_custom(op, task, context, caller):
    def run(nid, inner):
        ctx = (context + "\n" + inner).strip() if inner else context
        return _ask(caller, op, op.node(nid), task=task, context=ctx)

    nodes = [n.node_id for n in op.invoking_nodes]
    return run_dag(nodes, op.intra_edges, f"operator {op.op_id!r}", run)


# --- the registry --------------------------------------------------------------

@dataclass(frozen=True)
class OperatorSpec:
    """One operator kind.

    ``prompts`` are the default node prompts in node-role order; their count
    is the kind's arity, unless the kind is ``variable``, which takes any
    number of nodes >= 1. ``edges`` are the default intra-operator edges as
    (from_index, to_index) pairs over that order.

    ``calls`` is the nominal number of model calls per execution on the
    default params, used to bucket genome complexity; None means one per
    node. It is a nominal figure, not a maximum: SelfRefine nominally makes 3
    calls (draft, critique, unchanged revision) but can make up to 11, and
    ReAct nominally 1 (no tool call) but up to 5.
    """

    prompts: tuple[str, ...]
    runner: Callable[..., str]
    calls: Optional[int]
    edges: tuple[tuple[int, int], ...] = ()
    params: Mapping[str, int] = field(default_factory=dict)
    variable: bool = False

    @property
    def arity(self) -> Optional[int]:
        return None if self.variable else len(self.prompts)


OPERATORS: dict[str, OperatorSpec] = {
    "CoT": OperatorSpec(
        prompts=(
            "Solve the following task.\n{task}\n{context}\n"
            "Think step by step, then give the final answer.",
        ),
        runner=_run_cot,
        calls=1,
    ),
    "Debate": OperatorSpec(  # three debaters + aggregator
        prompts=(
            "You are debater 1. Task:\n{task}\n{context}\n"
            "Positions so far:\n{positions}\nArgue for the best answer.",
            "You are debater 2. Task:\n{task}\n{context}\n"
            "Positions so far:\n{positions}\nArgue for the best answer.",
            "You are debater 3. Task:\n{task}\n{context}\n"
            "Positions so far:\n{positions}\nArgue for the best answer.",
            "Task:\n{task}\nDebate positions:\n{positions}\n"
            "Weigh the arguments and give the final answer.",
        ),
        runner=_run_debate,
        calls=7,
        edges=((0, 3), (1, 3), (2, 3)),
        params={"rounds": 2},
    ),
    "StepBack": OperatorSpec(  # principle node + answer node
        prompts=(
            "Task:\n{task}\n{context}\n"
            "Before solving, state the general principles this task rests on.",
            "Task:\n{task}\nRelevant principles:\n{principle}\n"
            "Apply the principles and give the final answer.",
        ),
        runner=_run_stepback,
        calls=2,
        edges=((0, 1),),
    ),
    "SelfConsistency": OperatorSpec(  # one node sampled repeatedly
        prompts=(
            "Solve the following task (attempt {sample}).\n{task}\n{context}\n"
            "Reason step by step, then give the final answer.",
        ),
        runner=_run_self_consistency,
        calls=5,
        params={"samples": 5},
    ),
    "SelfRefine": OperatorSpec(  # generator + reflector
        prompts=(
            "Solve the following task.\n{task}\n{context}\n"
            "Reason step by step, then give the final answer.",
            "Task:\n{task}\nCandidate answer:\n{response}\n"
            "Critique the answer. If it needs no change, reply exactly "
            "'" + SELFREFINE_STOP_MARKER + "'.",
        ),
        runner=_run_self_refine,
        calls=3,
        edges=((0, 1),),
        params={"max_iterations": 5},
    ),
    "Ensemble": OperatorSpec(  # three answerers + pairwise ranker
        prompts=(
            "Solve the following task.\n{task}\n{context}\nGive the final answer.",
            "Solve the following task independently.\n{task}\n{context}\nGive the final answer.",
            "Solve the following task your own way.\n{task}\n{context}\nGive the final answer.",
            "Task:\n{task}\nCandidate answers:\n{answers}\n"
            "Compare the candidates pairwise and give the best final answer.",
        ),
        runner=_run_ensemble,
        calls=4,
        edges=((0, 3), (1, 3), (2, 3)),
    ),
    "ReAct": OperatorSpec(
        prompts=(
            "Task:\n{task}\n{context}\nScratchpad:\n{scratchpad}\n"
            "You may call a tool by writing eval(<arithmetic expression>). "
            "Otherwise give the final answer.",
        ),
        runner=_run_react,
        calls=1,
        params={"max_iterations": 5},
    ),
    "ExpertPrompt": OperatorSpec(  # router + expert
        prompts=(
            "Task:\n{task}\nName the single best expert persona for this task.",
            "You are {persona}. Task:\n{task}\nGive the final answer.",
        ),
        runner=_run_expert,
        calls=2,
        edges=((0, 1),),
    ),
    "Custom": OperatorSpec(  # a free intra-DAG
        prompts=("Solve the following task.\n{task}\n{context}\nGive the final answer.",),
        runner=_run_custom,
        calls=None,
        variable=True,
    ),
}


# The kinds that initialization and operator mutation draw from, in registry
# order; both index this tuple with the RNG.
DEFAULT_OPERATOR_REPO: tuple[str, ...] = tuple(
    kind for kind, spec in OPERATORS.items() if not spec.variable
)


def operator_violations(op) -> list[str]:
    """How ``op`` breaks its kind's rules: an unknown kind (alone), no nodes
    or a node count the kind does not take, and each param the kind does not
    have or whose value is not an integer >= 1 (a bool is not one)."""
    spec = OPERATORS.get(op.kind)
    if spec is None:
        return [f"operator {op.op_id!r}: unknown kind {op.kind!r}"]
    v = []
    n = len(op.invoking_nodes)
    if n == 0:
        v.append(f"operator {op.op_id!r}: no invoking nodes")
    elif spec.arity is not None and n != spec.arity:
        v.append(f"operator {op.op_id!r}: kind {op.kind} needs {spec.arity} nodes, has {n}")
    for name, value in op.params.items():
        if name not in spec.params:
            v.append(f"operator {op.op_id!r}: kind {op.kind} has no param {name!r}")
        elif isinstance(value, bool) or not isinstance(value, int) or value < 1:
            v.append(f"operator {op.op_id!r}: param {name!r} is {value!r}, not an integer >= 1")
    return v


def run_operator(op, task: str, context: str, caller) -> str:
    """Run one operator through its kind's runner; an operator that breaks
    its kind's rules is a ``StructureError`` naming its first violation."""
    problems = operator_violations(op)
    if problems:
        raise StructureError(problems[0])
    return OPERATORS[op.kind].runner(op, task, context, caller)
