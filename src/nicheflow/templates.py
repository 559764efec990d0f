"""Configurable text assets: the tag-generation template, the crossover /
mutation instruction templates, and operator instantiation from the operator
registry's per-kind defaults.

All templates use named placeholders; the executor resolves them at call time
and treats any leftover placeholder as an error.
"""

from .genome import InvokingNode, OperatorNode
from .operators import OPERATORS

TAG_GENERATION_PROMPT = """You summarize agentic workflows for retrieval.

Workflow name: {NAME}
Stages: {DESCRIPTION}
Definition:
{CODE}

A task this workflow handled:
{TASK}

Reply with exactly {KAPPA} short tags, comma separated, on a single line, and
nothing else. Tags should name the problem domains and the difficulty level
this workflow is suited for. Avoid generic tags.
"""

CROSSOVER_PROMPT = """You design multi-agent workflows as JSON documents.

Task to target:
{QUERY}

Reference workflows (parents):
{PARENTS}

Combine the strongest parts of the parents into one new workflow that is
accurate and cheap to run. Reply with a single JSON workflow document using
the same schema as the parents, and nothing else.
"""

PROMPT_MUTATION_PROMPT = """You improve a single agent prompt.

Recent outcomes for this workflow:
{HISTORY}

Current prompt:
{PROMPT}

Rewrite the prompt to be clearer or add brief guidance. Keep every
{{placeholder}} that appears in the original. Reply with the new prompt only.
"""

LLM_MUTATION_PROMPT = """You pick a model backbone for one agent node.

Available models: {MODELS}
Recent per-model outcomes in domain {DOMAIN}:
{HISTORY}

Current model: {CURRENT}
Reply with just the model id to use instead (or the current one to keep it).
"""

# Deterministic prompt-mutation edits; each preserves existing placeholders
# because it only appends or prepends text.
PROMPT_EDITS = (
    lambda p: p + "\nWork through the problem step by step before answering.",
    lambda p: p + "\nState the final answer on its own last line.",
    lambda p: "You are a meticulous domain expert.\n" + p,
)


def build_operator(kind: str, op_id: str, model_ids: list[str]) -> OperatorNode:
    """Instantiate an operator template with one model id per node."""
    spec = OPERATORS[kind]
    prompts = spec.prompts
    if len(model_ids) != len(prompts):
        raise ValueError(f"kind {kind} needs {len(prompts)} model ids, got {len(model_ids)}")
    nodes = tuple(
        InvokingNode(node_id=f"{op_id}.n{i}", model_id=model_ids[i], prompt=prompts[i])
        for i in range(len(prompts))
    )
    edges = tuple(
        (nodes[a].node_id, nodes[b].node_id) for a, b in spec.edges
    )
    return OperatorNode(
        op_id=op_id,
        kind=kind,
        invoking_nodes=nodes,
        intra_edges=edges,
        params=dict(spec.params),
    )


def template_node_count(kind: str) -> int:
    return len(OPERATORS[kind].prompts)


# The kinds that initialization and operator mutation draw from, in registry
# order; both index this tuple with the RNG.
DEFAULT_OPERATOR_REPO: tuple[str, ...] = tuple(
    kind for kind, spec in OPERATORS.items() if not spec.variable
)
