"""Span tracing from outside the program.

``Tracer.install`` replaces, for the length of a traced pass, the module-level
functions and methods that ``evolve_step``, ``cmd_evolve`` and ``cmd_infer``
look up at call time with wrappers that record one span per call: name,
start, end, parent span and the op the span belongs to, plus a one-bit
outcome flag for layers that can waste work. Spans stay in memory; ``write``
puts them in a tab-separated file and ``layer_metrics`` turns them into
per-op figures.
"""

import itertools
import threading
import time

from nicheflow import canonical, cli, embedding, evolution, memory, provider
from nicheflow.bench import nominal_call_count
from nicheflow.errors import BudgetExceeded

ROOTS = ("evolution.evolve_step", "cli.cmd_infer")


def _changed(args, kwargs, result, exc):
    return exc is None and result is not args[0]


# span name -> flag(args, kwargs, result, exception) of the layers with a ratio
FLAGS = {
    "executor.execute": lambda a, k, r, e: isinstance(e, BudgetExceeded),
    "evolution.environmental_selection": (
        lambda a, k, r, e: e is None and r[1] != a[1].offspring.workflow_id
    ),
    "evolution.crossover": lambda a, k, r, e: e is None and r.lineage.get("mode") == "llm",
    "evolution.mutate_llm": _changed,
    "evolution.mutate_prompt": _changed,
    "evolution.mutate_operator": _changed,
    "genome.validate": lambda a, k, r, e: bool(r),
}


def _targets(provider_cls):
    """(owner, attribute, span name) of every traced layer."""
    ev = evolution
    return [
        (cli, "evolve_step", "evolution.evolve_step"),
        (ev, "evolve_step", "evolution.evolve_step"),
        (cli, "cmd_infer", "cli.cmd_infer"),
        (cli, "infer", "evolution.infer"),
        (cli, "load_population", "snapshot.load_population"),
        (cli, "save_population", "snapshot.save_population"),
        (cli, "append_step_report", "snapshot.append_step_report"),
        (ev, "select_parents", "evolution.select_parents"),
        (ev, "crossover", "evolution.crossover"),
        (ev, "mutate_llm", "evolution.mutate_llm"),
        (ev, "mutate_prompt", "evolution.mutate_prompt"),
        (ev, "mutate_operator", "evolution.mutate_operator"),
        (ev, "niching_area", "evolution.niching_area"),
        (ev, "update_stats", "evolution.update_stats"),
        (ev, "environmental_selection", "evolution.environmental_selection"),
        (ev, "choose_workflow", "evolution.choose_workflow"),
        (ev, "execute", "executor.execute"),
        (ev, "evaluate", "executor.evaluate"),
        (ev, "validate", "genome.validate"),
        (ev, "fresh_workflow_id", "genome.fresh_workflow_id"),
        (embedding, "generate_tags", "embedding.generate_tags"),
        (embedding, "structural_tags", "embedding.structural_tags"),
        (embedding.HashingEmbedder, "embed", "embedding.embed"),
        (embedding.HashingEmbedder, "_embed_uncached", "embedding.embed_miss"),
        (canonical, "dumps", "canonical.dumps"),
        (provider.ChatRequest, "digest", "provider.ChatRequest.digest"),
        (provider.ChatResponse, "digest", "provider.ChatResponse.digest"),
        (provider_cls, "chat", "provider.chat"),
        (memory.LlmExperiencePool, "__init__", "memory.load"),
        (memory.WorkflowExperiencePool, "__init__", "memory.load"),
        (memory.LlmExperiencePool, "append", "memory.append"),
        (memory.WorkflowExperiencePool, "append", "memory.append"),
    ]


class Tracer:
    """Spans of one traced pass. A span is a tuple
    ``(id, name id, op, parent id or -1, start_ns, end_ns, flag)``; ids count
    from 0 in start order. Finished spans are tuples of ints, which the
    cyclic garbage collector stops tracking, so a long trace does not slow
    the collections the program triggers."""

    def __init__(self, provider_cls):
        self.provider_cls = provider_cls
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._spans: list[tuple] = []
        self._ids = itertools.count()
        self.ops = 0
        self._local = threading.local()
        self._saved: list = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, flag):
        name_id = self._name_id(name)
        is_root = name in ROOTS
        clock = time.perf_counter_ns
        record = self._spans.append  # list.append and next() are atomic
        next_id = self._ids.__next__
        local = self._local

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if is_root and not stack:
                self.ops += 1
            span_id, op, parent = next_id(), self.ops, stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                end = clock()
                stack.pop()
                bit = flag is not None and flag(args, kwargs, None, e)
                record((span_id, name_id, op, parent, start, end, int(bit)))
                raise
            end = clock()
            stack.pop()
            bit = flag is not None and flag(args, kwargs, result, None)
            record((span_id, name_id, op, parent, start, end, int(bit)))
            return result

        return traced

    def install(self):
        for owner, attr, name in _targets(self.provider_cls):
            original = getattr(owner, attr)
            self._saved.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, self._wrap(original, name, FLAGS.get(name)))

    def uninstall(self):
        for owner, attr, own in reversed(self._saved):
            if own is None:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, own)
        self._saved = []

    @property
    def spans(self):
        """Finished spans in id order, so a span's parent id is its index."""
        return sorted(self._spans)

    def write(self, path):
        """One line per span: id, op, name, start_ns, end_ns, parent, flag."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id\top\tname\tstart_ns\tend_ns\tparent\tflag\n")
            for span_id, name_id, op, parent, start, end, flag in self.spans:
                name = self.names[name_id]
                fh.write(f"{span_id}\t{op}\t{name}\t{start}\t{end}\t{parent}\t{flag}\n")


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append(span[0])
    out = []
    for span_id, _, _, _, start, end, _ in spans:
        covered, last = 0, start
        for c in sorted(children.get(span_id, ()), key=lambda c: spans[c][4]):
            lo, hi = max(spans[c][4], last), min(spans[c][5], end)
            if hi > lo:
                covered += hi - lo
                last = hi
        out.append(end - start - covered)
    return out


def _has_ancestor(span, name_id, spans):
    parent = span[3]
    while parent >= 0:
        if spans[parent][1] == name_id:
            return True
        parent = spans[parent][3]
    return False


LAYERS = (
    "provider.chat",
    "provider.ChatRequest.digest",
    "provider.ChatResponse.digest",
    "canonical.dumps",
    "executor.execute",
    "executor.evaluate",
    "evolution.select_parents",
    "evolution.niching_area",
    "evolution.update_stats",
    "evolution.environmental_selection",
    "evolution.crossover",
    "evolution.mutate_llm",
    "evolution.mutate_prompt",
    "evolution.mutate_operator",
    "embedding.generate_tags",
    "embedding.embed",
    "genome.validate",
    "genome.fresh_workflow_id",
    "memory.load",
    "memory.append",
    "snapshot.save_population",
    "snapshot.append_step_report",
    "snapshot.load_population",
    "evolution.choose_workflow",
)

RATIOS = {  # ratio name -> span whose flag it averages
    "executor.execute.over_budget_ratio": "executor.execute",
    "evolution.accept_ratio": "evolution.environmental_selection",
    "evolution.crossover.llm_ratio": "evolution.crossover",
    "evolution.mutate_llm.changed_ratio": "evolution.mutate_llm",
    "evolution.mutate_prompt.changed_ratio": "evolution.mutate_prompt",
    "evolution.mutate_operator.changed_ratio": "evolution.mutate_operator",
}


def layer_metrics(tracer, wait_seconds, populations):
    """Every per-layer metric of one traced pass, as (value, unit) pairs.

    ``wait_seconds`` is the provider wait the latency model added during the
    pass; ``populations`` are the populations the pass ended with.
    """
    spans, ids = tracer.spans, tracer._name_ids
    if [s[0] for s in spans] != list(range(len(spans))):
        raise RuntimeError("a traced call never finished")
    ops = max(tracer.ops, 1)
    calls = [0] * len(tracer.names)
    self_ns = [0] * len(tracer.names)
    flagged = [0] * len(tracer.names)
    for span, own in zip(spans, self_times(spans)):
        calls[span[1]] += 1
        self_ns[span[1]] += own
        flagged[span[1]] += span[6]

    def count(name):
        return calls[ids[name]] if name in ids else 0

    def share(num, den):
        return num / den if den else 0.0

    def spans_of(name):
        return [s for s in spans if s[1] == ids.get(name)]

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = (count(layer) / ops, "call/op")
        own = self_ns[ids[layer]] if layer in ids else 0
        out[f"{layer}.ms_per_op"] = (own / 1e6 / ops, "ms/op")
    for ratio, layer in RATIOS.items():
        out[ratio] = (share(flagged[ids[layer]] if layer in ids else 0, count(layer)), "1")

    execute, tags, step = (ids.get(n) for n in (
        "executor.execute", "embedding.generate_tags", "evolution.evolve_step"))
    evolver_calls = sum(
        1 for s in spans_of("provider.chat") if not _has_ancestor(s, execute, spans))
    fallback_tags = sum(
        1 for s in spans_of("embedding.structural_tags") if _has_ancestor(s, tags, spans))
    clones = sum(
        1 for s in spans_of("genome.validate") if s[6] and s[3] >= 0 and spans[s[3]][1] == step)
    out["provider.wait_ms_per_op"] = (wait_seconds * 1e3 / ops, "ms/op")
    out["provider.evolver_calls_per_op"] = (evolver_calls / ops, "call/op")
    out["provider.digest_per_chat"] = (
        share(count("provider.ChatRequest.digest"), count("provider.chat")), "1")
    out["embedding.generate_tags.llm_ratio"] = (
        share(count("embedding.generate_tags") - fallback_tags, count("embedding.generate_tags")),
        "1",
    )
    out["embedding.embed.hit_ratio"] = (
        share(count("embedding.embed") - count("embedding.embed_miss"), count("embedding.embed")),
        "1",
    )
    out["evolution.offspring.clone_ratio"] = (share(clones, count("evolution.evolve_step")), "1")
    members = [m for pop in populations for m in pop.members]
    out["population.operators_mean"] = (
        sum(len(m.operators) for m in members) / len(members), "operator")
    out["population.nominal_calls_mean"] = (
        sum(nominal_call_count(m) for m in members) / len(members), "call")
    return out
