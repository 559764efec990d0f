"""The benchmark's own checkers, written apart from the program under test.

Nothing here imports nicheflow. Each checker works on plain data: member
documents in the snapshot's JSON layout (``workflow_id``, ``operators``,
``inter_edges``, ``tags``, ``stats``), query texts and answer strings.
"""

import hashlib
import re
from fractions import Fraction

import numpy as np

# --- Pareto front and hypervolume -------------------------------------------

HV_REF = (-1e-9, 1.0 + 1e-9)  # (perf, normalized cost) every front point beats


def dominates(a, b):
    """a = (perf, cost) is at least as good as b on both axes and better on one."""
    return a[0] >= b[0] and a[1] <= b[1] and (a[0] > b[0] or a[1] < b[1])


def pareto_filter(points):
    """Brute force: the distinct points that no other point dominates."""
    unique = sorted(set(points))
    return [p for p in unique if not any(dominates(q, p) for q in unique)]


def hypervolume(points, ref=HV_REF):
    """Area between the front and ``ref``, summed in horizontal slices from
    the best performance down (the program sums vertical slices)."""
    front = [p for p in pareto_filter(points) if dominates(p, ref)]
    front.sort(key=lambda p: -p[0])
    area = 0.0
    for i, (perf, cost) in enumerate(front):
        next_perf = front[i + 1][0] if i + 1 < len(front) else ref[0]
        area += (perf - next_perf) * (ref[1] - cost)
    return area


def member_points(members):
    """(mean perf, mean cost / max mean cost) of every executed member."""
    executed = [m["stats"] for m in members if m["stats"]["exec_count"] > 0]
    if not executed:
        return []
    scale = max(s["mean_cost"] for s in executed) or 1.0
    return [(s["mean_perf"], s["mean_cost"] / scale) for s in executed]


# --- population invariants ---------------------------------------------------

def is_single_sink_dag(op_ids, edges):
    """Acyclic (Kahn) with exactly one operator that has no outgoing edge."""
    if len(set(op_ids)) != len(op_ids):
        return False
    if any(a not in op_ids or b not in op_ids for a, b in edges):
        return False
    indeg = {o: 0 for o in op_ids}
    succ = {o: [] for o in op_ids}
    for a, b in set(edges):
        succ[a].append(b)
        indeg[b] += 1
    ready = [o for o in op_ids if indeg[o] == 0]
    seen = 0
    while ready:
        o = ready.pop()
        seen += 1
        for b in succ[o]:
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
    sinks = [o for o in op_ids if not succ[o]]
    return seen == len(op_ids) and len(sinks) == 1


def population_errors(members, size, kappa, model_ids):
    """Every way the population breaks the method's invariants."""
    errors = []
    ids = [m["workflow_id"] for m in members]
    if len(ids) != size or len(set(ids)) != size:
        errors.append(f"expected {size} distinct members, got ids {sorted(ids)}")
    for m in members:
        wid = m["workflow_id"]
        op_ids = [op["op_id"] for op in m["operators"]]
        if not op_ids or not is_single_sink_dag(op_ids, [tuple(e) for e in m["inter_edges"]]):
            errors.append(f"{wid}: not a single-sink DAG")
        if len(m["tags"]) != kappa:
            errors.append(f"{wid}: {len(m['tags'])} tags, expected {kappa}")
        models = {n["model_id"] for op in m["operators"] for n in op["invoking_nodes"]}
        if not models <= set(model_ids):
            errors.append(f"{wid}: models {sorted(models - set(model_ids))} not in the pool")
    return errors


def step_log_errors(docs, first_generation=1):
    """steps.jsonl: consecutive generations, acceptance consistent with the
    eliminated id, and the eliminated id among that step's evaluations."""
    errors = []
    for i, d in enumerate(docs):
        where = f"step line {i + 1}"
        if d["generation"] != first_generation + i:
            errors.append(f"{where}: generation {d['generation']}, expected {first_generation + i}")
        if d["accepted"] != (d["eliminated_id"] != d["offspring_id"]):
            errors.append(f"{where}: accepted={d['accepted']} disagrees with the eliminated id")
        if d["eliminated_id"] not in d["evaluations"]:
            errors.append(f"{where}: eliminated {d['eliminated_id']} was not evaluated")
    return errors


# --- arithmetic queries --------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[-+*/()])")


def exact_value(expression):
    """Evaluate + - * / and parentheses over integers with Fractions."""
    tokens = []
    pos = 0
    text = expression.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad character at {pos} in {expression!r}")
        tokens.append(m.group(1))
        pos = m.end()
    value, rest = _sum(tokens)
    if rest:
        raise ValueError(f"trailing tokens {rest} in {expression!r}")
    return value


def _sum(tokens):
    value, tokens = _product(tokens)
    while tokens and tokens[0] in "+-":
        op, (rhs, tokens) = tokens[0], _product(tokens[1:])
        value = value + rhs if op == "+" else value - rhs
    return value, tokens


def _product(tokens):
    value, tokens = _atom(tokens)
    while tokens and tokens[0] in "*/":
        op, (rhs, tokens) = tokens[0], _atom(tokens[1:])
        value = value * rhs if op == "*" else value / rhs
    return value, tokens


def _atom(tokens):
    if not tokens:
        raise ValueError("expression ends early")
    head, rest = tokens[0], tokens[1:]
    if head == "(":
        value, rest = _sum(rest)
        if not rest or rest[0] != ")":
            raise ValueError("unbalanced parentheses")
        return value, rest[1:]
    if head == "-":
        value, rest = _atom(rest)
        return -value, rest
    if head.isdigit():
        return Fraction(int(head)), rest
    raise ValueError(f"unexpected token {head!r}")


_QUERY = re.compile(r"^Compute the value of (.*)\. \[\[TASK id=\S+ domain=\S+ gold=(.*?)\]\]$")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:/\d+)?")


def parse_query(text):
    """(expression, gold string) of a synthetic suite query."""
    m = _QUERY.match(text)
    if m is None:
        raise ValueError(f"not a suite query: {text!r}")
    return m.group(1), m.group(2)


def final_number(answer):
    """The last number in the answer text, exactly, or None."""
    found = _NUMBER.findall(answer)
    return Fraction(found[-1]) if found else None


# --- workflow retrieval ------------------------------------------------------------

_WORD = re.compile(r"[a-z0-9]+")


def hashed_trigrams(text, dim):
    """Unit vector of feature-hashed character 3-grams of lowercased tokens."""
    vec = np.zeros(dim, dtype=np.float64)
    for token in _WORD.findall(text.lower()):
        padded = f"#{token}#"
        for i in range(max(1, len(padded) - 2)):
            gram = padded[i : i + 3].encode("utf-8")
            digest = hashlib.blake2b(gram, digest_size=8).digest()
            vec[int.from_bytes(digest, "big") % dim] += 1.0
    if not vec.any():
        digest = hashlib.blake2b(text.strip().encode("utf-8"), digest_size=8).digest()
        vec[int.from_bytes(digest, "big") % dim] = 1.0
    return vec / float(np.linalg.norm(vec))


class Retrieval:
    """Tag similarities of a served population, computed by the benchmark."""

    def __init__(self, members, dim):
        self.dim = dim
        self.members = {m["workflow_id"]: m for m in members}
        self.tag_vectors = {
            wid: [hashed_trigrams(t, dim) for t in m["tags"]] for wid, m in self.members.items()
        }

    def similarities(self, query_text):
        q = hashed_trigrams(query_text, self.dim)
        return {
            wid: sum(float(np.dot(v, q)) for v in vecs) for wid, vecs in self.tag_vectors.items()
        }

    def argmax(self, sims, candidates=None):
        """Highest similarity; ties by lower mean cost, then lower id."""
        pool = self.members if candidates is None else candidates
        return min(pool, key=lambda wid: (-sims[wid], self.cost(wid), wid))

    def cost(self, wid):
        return self.members[wid]["stats"]["mean_cost"]

    def affordable(self, budget):
        return [wid for wid in self.members if self.cost(wid) <= budget]

    def cheapest(self):
        return min(self.members, key=lambda wid: (self.cost(wid), wid))


# --- model-call counts -------------------------------------------------------------

def call_bounds(member):
    """(fewest, most) model calls one execution of the member can make."""
    low = high = 0
    for op in member["operators"]:
        kind, params, nodes = op["kind"], op.get("params", {}), len(op["invoking_nodes"])
        if kind == "Debate":
            n = 3 * int(params.get("rounds", 2)) + 1
            lo, hi = n, n
        elif kind == "SelfConsistency":
            n = int(params.get("samples", 5))
            lo, hi = n, n
        elif kind == "SelfRefine":
            rounds = int(params.get("max_iterations", 5))
            lo, hi = 1 + min(rounds, 1), 1 + 2 * rounds
        elif kind == "ReAct":
            n = int(params.get("max_iterations", 5))
            lo, hi = min(n, 1), n
        else:  # CoT, StepBack, Ensemble, ExpertPrompt, Custom: one call per node
            lo, hi = nodes, nodes
        low += lo
        high += hi
    return low, high
