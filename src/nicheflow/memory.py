"""Experience pools: append-only per-model and per-workflow outcome logs with
summary views that feed the mutation operators.

Both pools are one class, ``_ExperiencePool``, keyed by a different record
field (``model_id`` or ``workflow_id``). A record is one canonical line
holding its fields (``canonical.append_line``). On load each line is folded
straight into the per-key and per-(key, domain) summaries; no pool keeps its
records. A torn final line (crash mid-append) is skipped with a warning and
cut from the file (``canonical.read_lines``).
"""

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional

from . import canonical
from .errors import InvalidInput

VERDICTS = ("Positive", "Negative", "None")
DEFAULT_SUCCESS_THRESHOLD = 1.0


@dataclass(frozen=True)
class LlmExperienceRecord:
    model_id: str
    workflow_id: str
    query_id: str
    verdict: str  # Positive | Negative | None ("None" = model made no calls)
    commentary: str
    domain: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise InvalidInput(f"bad verdict {self.verdict!r}")


@dataclass(frozen=True)
class WorkflowExperienceRecord:
    workflow_id: str
    query_id: str
    verdict: str  # Positive | Negative
    commentary: str
    perf: float
    cost: float
    domain: str = "general"

    def __post_init__(self):
        if self.verdict not in ("Positive", "Negative"):
            raise InvalidInput(f"bad verdict {self.verdict!r}")


@dataclass
class ExperienceSummary:
    positive_count: int = 0
    negative_count: int = 0
    none_count: int = 0
    recent_commentaries: list[str] = field(default_factory=list)

    @property
    def positive_rate(self) -> float:
        """Laplace-smoothed success rate over decisive verdicts."""
        return (self.positive_count + 1) / (self.positive_count + self.negative_count + 2)


def verdict_from_perf(perf: float, threshold: float = DEFAULT_SUCCESS_THRESHOLD) -> str:
    return "Positive" if perf >= threshold else "Negative"


def default_commentary(model_id: str, verdict: str, domain: str, kinds: Iterable[str]) -> str:
    outcome = "succeeded" if verdict == "Positive" else "failed"
    return f"model {model_id} {outcome} on domain {domain} via operator kinds {sorted(set(kinds))}"


class _ExperiencePool:
    """Verdict counts plus the last 10 commentaries per ``(key, None)`` and
    ``(key, domain)``, where the key is the record field ``key_field``;
    file-backed when given a path."""

    key_field: str

    def __init__(self, path: Optional[Path] = None):
        self.path = Path(path) if path is not None else None
        self._summaries: dict[tuple, ExperienceSummary] = {}
        if self.path is not None:
            for doc in canonical.read_lines(self.path):
                self._fold(doc)

    def _fold(self, doc: dict) -> None:
        key = doc[self.key_field]
        for summary_key in ((key, None), (key, doc["domain"])):
            summary = self._summaries.setdefault(summary_key, ExperienceSummary())
            if doc["verdict"] == "Positive":
                summary.positive_count += 1
            elif doc["verdict"] == "Negative":
                summary.negative_count += 1
            else:
                summary.none_count += 1
            summary.recent_commentaries.append(doc["commentary"])
            del summary.recent_commentaries[:-10]

    def append(self, record: LlmExperienceRecord | WorkflowExperienceRecord) -> None:
        doc = vars(record)
        if self.path is not None:
            canonical.append_line(self.path, doc)
        self._fold(doc)

    def query_summary(self, key: str, domain: Optional[str] = None) -> ExperienceSummary:
        hit = self._summaries.get((key, domain))
        if hit is None:
            return ExperienceSummary()
        return replace(hit, recent_commentaries=list(hit.recent_commentaries))


# Siblings, not parent and child: the traced benchmark wraps each class's
# ``__init__`` and ``append``, and a subclass of a wrapped class would run
# both wrappers.
class LlmExperiencePool(_ExperiencePool):
    """Per-model outcome pool (default file: memory/llm_pool.log)."""

    key_field = "model_id"


class WorkflowExperiencePool(_ExperiencePool):
    """Per-workflow outcome pool (default file: memory/wf_pool.log)."""

    key_field = "workflow_id"
