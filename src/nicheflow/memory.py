"""Experience pools: per-model and per-workflow outcome counts, with summary
views that feed the mutation operators.

The pools keep no record of their own: ``steps.jsonl`` is the only one.
``fold_report`` turns one step report into pool appends. ``evolve_step``
folds each report it builds, and ``evolve`` first folds the reports it
resumes from, so a resumed run's pools are those of an uninterrupted run.

Both pools are one class, ``_ExperiencePool``, keyed by a model id or a
workflow id and summarised per key and per (key, domain). An append takes
plain values: the key, whether the outcome was positive, the domain, and
for a workflow the history line a prompt rewrite quotes.
"""

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass
class ExperienceSummary:
    positive_count: int = 0
    negative_count: int = 0
    recent_commentaries: list[str] = field(default_factory=list)

    @property
    def positive_rate(self) -> float:
        """Laplace-smoothed success rate."""
        return (self.positive_count + 1) / (self.positive_count + self.negative_count + 2)


class _ExperiencePool:
    """Outcome counts plus the last 10 commentaries per ``(key, None)`` and
    ``(key, domain)``."""

    def __init__(self):
        self._summaries: dict[tuple, ExperienceSummary] = {}

    def append(self, key: str, positive: bool, domain: str, commentary: str = "") -> None:
        for summary_key in ((key, None), (key, domain)):
            summary = self._summaries.setdefault(summary_key, ExperienceSummary())
            if positive:
                summary.positive_count += 1
            else:
                summary.negative_count += 1
            if commentary:
                summary.recent_commentaries.append(commentary)
                del summary.recent_commentaries[:-10]

    def query_summary(self, key: str, domain: Optional[str] = None) -> ExperienceSummary:
        hit = self._summaries.get((key, domain))
        if hit is None:
            return ExperienceSummary()
        return replace(hit, recent_commentaries=list(hit.recent_commentaries))


# Siblings, not parent and child: the traced benchmark wraps each class's
# ``__init__`` and ``append``, and a subclass of a wrapped class would run
# both wrappers.
class LlmExperiencePool(_ExperiencePool):
    """Per-model outcome pool."""


class WorkflowExperiencePool(_ExperiencePool):
    """Per-workflow outcome pool."""


def fold_report(
    report: dict, llm_pool: LlmExperiencePool, wf_pool: WorkflowExperiencePool
) -> None:
    """Append one step report's outcomes: per evaluated member, in id order,
    one workflow outcome and one outcome per model the member uses. A perf
    of 1.0 is positive, anything less negative."""
    domain = report["domain"]
    for workflow_id, evaluation in report["evaluations"].items():
        positive = evaluation["perf"] >= 1.0
        commentary = (
            f"{'Positive' if positive else 'Negative'} on {domain} query {report['query_id']}: "
            f"perf {evaluation['perf']:g}, cost {evaluation['cost']:.3g}"
        )
        wf_pool.append(workflow_id, positive, domain, commentary)
        for model_id in evaluation["models"]:
            llm_pool.append(model_id, positive, domain)
