"""Experience pools: per-model and per-workflow verdict counts, with summary
views that feed the mutation operators.

The pools keep no record of their own: ``steps.jsonl`` is the only one.
``fold_report`` turns one step report into pool appends. ``evolve_step``
folds each report it builds, and ``evolve`` first folds the reports it
resumes from, so a resumed run's pools are those of an uninterrupted run.

Both pools are one class, ``_ExperiencePool``, keyed by a different record
field (``model_id`` or ``workflow_id``), summarised per key and per (key,
domain).
"""

from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import InvalidInput

VERDICTS = ("Positive", "Negative")


@dataclass(frozen=True)
class LlmExperienceRecord:
    model_id: str
    verdict: str  # Positive | Negative
    domain: str

    commentary = ""  # a model's outcomes are counted, never quoted

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise InvalidInput(f"bad verdict {self.verdict!r}")


@dataclass(frozen=True)
class WorkflowExperienceRecord:
    workflow_id: str
    verdict: str  # Positive | Negative
    domain: str
    commentary: str  # the history line a prompt rewrite quotes

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise InvalidInput(f"bad verdict {self.verdict!r}")


@dataclass
class ExperienceSummary:
    positive_count: int = 0
    negative_count: int = 0
    recent_commentaries: list[str] = field(default_factory=list)

    @property
    def positive_rate(self) -> float:
        """Laplace-smoothed success rate."""
        return (self.positive_count + 1) / (self.positive_count + self.negative_count + 2)


def verdict_from_perf(perf: float) -> str:
    return "Positive" if perf >= 1.0 else "Negative"


class _ExperiencePool:
    """Verdict counts plus the last 10 commentaries per ``(key, None)`` and
    ``(key, domain)``, where the key is the record field ``key_field``."""

    key_field: str

    def __init__(self):
        self._summaries: dict[tuple, ExperienceSummary] = {}

    def append(self, record: LlmExperienceRecord | WorkflowExperienceRecord) -> None:
        key = getattr(record, self.key_field)
        for summary_key in ((key, None), (key, record.domain)):
            summary = self._summaries.setdefault(summary_key, ExperienceSummary())
            if record.verdict == "Positive":
                summary.positive_count += 1
            else:
                summary.negative_count += 1
            if record.commentary:
                summary.recent_commentaries.append(record.commentary)
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

    key_field = "model_id"


class WorkflowExperiencePool(_ExperiencePool):
    """Per-workflow outcome pool."""

    key_field = "workflow_id"


def fold_report(
    report: dict,
    llm_pool: Optional[LlmExperiencePool],
    wf_pool: Optional[WorkflowExperiencePool],
) -> None:
    """Append one step report's outcomes: per evaluated member, in id order,
    one workflow record and one record per model the member uses."""
    domain = report["domain"]
    for workflow_id, evaluation in report["evaluations"].items():
        verdict = verdict_from_perf(evaluation["perf"])
        if wf_pool is not None:
            commentary = (
                f"{verdict} on {domain} query {report['query_id']}: "
                f"perf {evaluation['perf']:g}, cost {evaluation['cost']:.3g}"
            )
            wf_pool.append(WorkflowExperienceRecord(workflow_id, verdict, domain, commentary))
        if llm_pool is not None:
            for model_id in evaluation["models"]:
                llm_pool.append(LlmExperienceRecord(model_id, verdict, domain))
