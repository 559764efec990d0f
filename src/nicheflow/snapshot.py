"""Population snapshots and run-directory bookkeeping: the run lock, and the
one reader and the one writer of the step log ``steps.jsonl``.

A snapshot is a directory of one canonical genome document per member plus a
manifest carrying the generation, seed, and config hash. A save writes a temp
dir, moves the previous snapshot aside to ``population.old`` and only then
installs the new one, so a crash never leaves less than one whole snapshot.

A load reads every file, but reuses the genome of a member file whose text is
what the last successful load parsed: parsing is a pure function of the text
and genomes are frozen, so a process that serves many queries re-parses only
the members that changed.
"""

import errno
import fcntl
import json
import logging
import os
import shutil
from pathlib import Path

from . import canonical
from .errors import GenomeParseError, StorageError
from .evolution import Population
from .genome import WorkflowGenome, deserialize, serialize

logger = logging.getLogger(__name__)

# The members of the last snapshot that loaded, by the text of their files.
_parsed: dict[str, WorkflowGenome] = {}


def save_population(pop: Population, run_dir, config_hash: str = "") -> Path:
    run_dir = Path(run_dir)
    target = run_dir / "population"
    tmp = run_dir / "population.tmp"
    old = run_dir / "population.old"
    try:
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        member_ids = sorted(m.workflow_id for m in pop.members)
        for m in pop.members:
            (tmp / f"{m.workflow_id}.json").write_text(serialize(m), encoding="utf-8")
        manifest = {
            "generation": pop.generation,
            "seed": pop.seed,
            "config_hash": config_hash,
            "members": member_ids,
        }
        (tmp / "manifest.json").write_text(canonical.dumps(manifest), encoding="utf-8")
        if target.exists():
            shutil.rmtree(old, ignore_errors=True)
            os.replace(target, old)
        os.replace(tmp, target)
        shutil.rmtree(old, ignore_errors=True)
    except OSError as e:
        raise StorageError(f"cannot save snapshot under {run_dir}: {e}") from e
    return target


def load_population(run_dir) -> tuple[Population, str]:
    global _parsed
    target = Path(run_dir) / "population"
    if not target.exists() and target.with_suffix(".old").exists():
        target = target.with_suffix(".old")  # a save crashed between its two renames
    try:
        manifest = json.loads((target / "manifest.json").read_text(encoding="utf-8"))
        parsed = {}
        members = [_load_member(target / f"{wid}.json", parsed) for wid in manifest["members"]]
        pop = Population(
            members=members,
            generation=int(manifest["generation"]),
            seed=int(manifest["seed"]),
        )
        config_hash = str(manifest.get("config_hash", ""))
    except OSError as e:
        raise StorageError(f"cannot load snapshot under {run_dir}: {e}") from e
    except (ValueError, KeyError, TypeError) as e:
        raise StorageError(f"corrupt snapshot under {run_dir}: {e!r}") from e
    _parsed = parsed
    return pop, config_hash


def _load_member(path: Path, parsed: dict[str, WorkflowGenome]) -> WorkflowGenome:
    text = path.read_text(encoding="utf-8")
    genome = _parsed.get(text)
    if genome is None:
        try:
            genome = deserialize(text)
        except (GenomeParseError, ValueError, KeyError, TypeError) as e:
            raise StorageError(f"corrupt snapshot member {path}: {e}") from e
    parsed[text] = genome
    return genome


class RunLock:
    """Exclusive lock preventing concurrent writers of one run dir: an
    ``flock`` on the directory itself, which the kernel frees when its holder
    exits or is killed, so no lock file is left behind."""

    def __init__(self, run_dir):
        self.path = Path(run_dir)

    def __enter__(self):
        try:
            self.path.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self.path, os.O_RDONLY)
        except OSError as e:
            raise StorageError(f"cannot lock {self.path}: {e}") from e
        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as e:
            os.close(self._fd)
            if e.errno == errno.EWOULDBLOCK:
                raise StorageError(f"run directory is locked: {self.path}") from None
            raise StorageError(f"cannot lock {self.path}: {e}") from e
        return self

    def __exit__(self, *exc):
        os.close(self._fd)  # frees the lock
        return False


def repair_step_log(run_dir, generation: int) -> list[dict]:
    """The reports of ``steps.jsonl`` up to ``generation``, the snapshot's.

    A final line that does not parse was torn by a crash mid-append: it is
    skipped with a warning and cut from the file. A whole final report whose
    newline was lost gets its newline back. Either way the next append starts
    a line of its own. A bad line anywhere else is a ``StorageError``.

    Every report past ``generation`` is cut too: after a crash between
    checkpoints, ``evolve`` resumes from that snapshot and replays those
    steps. Each report must have the fields that experience is folded from,
    and the kept ones must cover generations 1 to ``generation``."""
    path = Path(run_dir) / "steps.jsonl"
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        data = b""
    except OSError as e:
        raise StorageError(f"cannot read {path}: {e}") from e
    lines = data.split(b"\n")
    last = len(lines) - 1 if lines[-1] else len(lines) - 2
    cut = (len(data), b"\n") if lines[-1] else None  # (offset, new tail)
    reports, offset = [], 0
    for i, line in enumerate(lines):
        if line.strip():
            try:
                report = json.loads(line)
            except ValueError:
                if i != last:
                    raise StorageError(f"corrupt record at {path}:{i + 1}") from None
                logger.warning("skipping truncated final record in %s", path)
                cut = (offset, b"")
                break
            if not _foldable(report):
                raise StorageError(f"{path}:{i + 1}: not a step report that experience can be"
                                   " folded from (was it written by an older version?)")
            if report["generation"] > generation:
                cut = (offset, b"")
                break
            reports.append(report)
        offset += len(line) + 1
    if cut is not None:
        try:
            with path.open("r+b") as fh:
                fh.seek(cut[0])
                fh.write(cut[1])
                fh.truncate()
        except OSError as e:
            raise StorageError(f"cannot repair the tail of {path}: {e}") from e
    if [r["generation"] for r in reports] != list(range(1, generation + 1)):
        raise StorageError(f"{path} does not hold one report per generation 1-{generation}")
    return reports


def _foldable(report) -> bool:
    return (
        isinstance(report, dict)
        and isinstance(report.get("generation"), int)
        and {"query_id", "domain"} <= report.keys()
        and isinstance(report.get("evaluations"), dict)
        and all(
            isinstance(e, dict) and {"perf", "cost", "models"} <= e.keys()
            for e in report["evaluations"].values()
        )
    )


def append_step_report(run_dir, report_doc: dict) -> None:
    path = Path(run_dir) / "steps.jsonl"
    line = canonical.dumps(report_doc) + "\n"
    try:
        with path.open("a", encoding="utf-8") as log:
            log.write(line)
    except OSError as e:
        raise StorageError(f"cannot append to {path}: {e}") from e
