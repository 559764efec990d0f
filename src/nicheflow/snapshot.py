"""Population snapshots and run-directory bookkeeping.

A snapshot is a directory of one canonical genome document per member plus a
manifest carrying the generation, seed, and config hash. Saves are atomic
(write to a sibling temp dir, then swap) so an interrupted checkpoint never
corrupts the previous one.
"""

import os
import shutil
from pathlib import Path

from . import canonical
from .errors import StorageError
from .evolution import Population
from .genome import deserialize, serialize


def save_population(pop: Population, run_dir, config_hash: str = "") -> Path:
    run_dir = Path(run_dir)
    target = run_dir / "population"
    tmp = run_dir / "population.tmp"
    try:
        if tmp.exists():
            shutil.rmtree(tmp)
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
            shutil.rmtree(target)
        os.replace(tmp, target)
    except OSError as e:
        raise StorageError(f"cannot save snapshot under {run_dir}: {e}") from e
    return target


def load_population(run_dir) -> tuple[Population, str]:
    target = Path(run_dir) / "population"
    try:
        manifest = canonical.loads((target / "manifest.json").read_text(encoding="utf-8"))
        members = [
            deserialize((target / f"{wid}.json").read_text(encoding="utf-8"))
            for wid in manifest["members"]
        ]
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
    return pop, config_hash


class RunLock:
    """Exclusive advisory lock preventing concurrent writers of one run dir."""

    def __init__(self, run_dir):
        self.path = Path(run_dir) / ".lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StorageError(f"run directory is locked: {self.path}") from None
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        return self

    def __exit__(self, *exc):
        try:
            self.path.unlink()
        except OSError:
            pass
        return False


def append_step_report(run_dir, report_doc: dict) -> None:
    canonical.append_line(Path(run_dir) / "steps.jsonl", report_doc)
