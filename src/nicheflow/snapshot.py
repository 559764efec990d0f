"""Population snapshots and run-directory bookkeeping.

A snapshot is a directory of one canonical genome document per member plus a
manifest carrying the generation, seed, and config hash. A save writes a temp
dir, moves the previous snapshot aside to ``population.old`` and only then
installs the new one, so a crash never leaves less than one whole snapshot.

A load reads every file, but reuses the genome of a member file whose text is
what the last successful load parsed: parsing is a pure function of the text
and genomes are frozen, so a process that serves many queries re-parses only
the members that changed.
"""

import json
import os
import shutil
from pathlib import Path

from . import canonical
from .errors import GenomeParseError, StorageError
from .evolution import Population
from .genome import WorkflowGenome, deserialize, serialize

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
    """Exclusive advisory lock preventing concurrent writers of one run dir. The
    lock holds its holder's pid; a lock whose holder is gone (killed) is cleared."""

    def __init__(self, run_dir):
        self.path = Path(run_dir) / ".lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for attempt in range(2):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if attempt or not self._holder_is_gone():
                    raise StorageError(f"run directory is locked: {self.path}") from None
                self.path.unlink(missing_ok=True)
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        return self

    def _holder_is_gone(self) -> bool:
        try:
            os.kill(int(self.path.read_text(encoding="utf-8")), 0)  # POSIX: sends nothing
        except (ProcessLookupError, FileNotFoundError):  # no such process, or lock released
            return True
        except (OSError, ValueError, OverflowError):  # unreadable, or no pid written yet
            pass
        return False

    def __exit__(self, *exc):
        try:
            self.path.unlink()
        except OSError:
            pass
        return False


def repair_step_log(run_dir, generation: int) -> list[dict]:
    """The reports of ``steps.jsonl`` up to ``generation``, the snapshot's.

    A report torn by a crash mid-append is cut (``canonical.read_lines``), and
    so is every report past ``generation``: after a crash between
    checkpoints, ``evolve`` resumes from that snapshot and replays those
    steps. The kept reports must cover generations 1 to ``generation``, each
    with the fields that experience is folded from; a report without them
    was written before the step log held them."""
    path = Path(run_dir) / "steps.jsonl"
    reports = list(canonical.read_lines(path, cut_from=lambda r: r["generation"] > generation))
    if [r["generation"] for r in reports] != list(range(1, generation + 1)):
        raise StorageError(f"{path} does not hold one report per generation 1-{generation}")
    for r in reports:
        if "domain" not in r or any("models" not in e for e in r["evaluations"].values()):
            raise StorageError(
                f"{path}: the report of generation {r['generation']} has no domain or model ids;"
                " it was written by an older version, so its experience cannot be folded"
            )
    return reports


def append_step_report(run_dir, report_doc: dict) -> None:
    with canonical.open_log(Path(run_dir) / "steps.jsonl") as log:
        canonical.write_line(log, report_doc)
