"""Canonical text encoding for documents that must be byte-reproducible.

All on-disk artifacts (genomes, configs, step logs, manifests, experience
logs) go through ``dumps`` so that structurally equal objects always produce
identical bytes: keys sorted, compact separators, floats rounded to 12
significant digits. The append-only logs hold one such document per line,
written by ``append_line`` and read back by ``read_lines``.
"""

import json
import logging
from pathlib import Path
from typing import Any, Iterator

from .errors import StorageError

logger = logging.getLogger(__name__)


def canonical_float(x: float) -> float:
    # 12 significant digits; repr of the rounded value is shortest-roundtrip
    # and stable across CPython platforms.
    return float(f"{x:.12g}")


def _canonicalize(obj: Any) -> Any:
    if isinstance(obj, float):
        return canonical_float(obj)
    if isinstance(obj, dict):
        return {str(k): _canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v) for v in obj]
    return obj


def dumps(obj: Any) -> str:
    return json.dumps(_canonicalize(obj), sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def loads(text: str) -> Any:
    return json.loads(text)


def append_line(path: Path, doc: Any) -> None:
    """Append ``doc`` as one canonical line, creating the file's directory."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(dumps(doc) + "\n")
    except OSError as e:
        raise StorageError(f"cannot append to {path}: {e}") from e


def read_lines(path: Path) -> Iterator[Any]:
    """Yield the documents of a line log; a missing file holds none.

    A final line that does not parse was torn by a crash mid-append: it is
    skipped with a warning and cut from the file. A whole final record whose
    newline was lost gets its newline back. Either way the next append starts
    a line of its own. A bad line anywhere else raises ``StorageError``.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return
    except OSError as e:
        raise StorageError(f"cannot read {path}: {e}") from e
    lines = data.split(b"\n")
    last = len(lines) - 1 if lines[-1] else len(lines) - 2
    offset = 0
    for i, line in enumerate(lines):
        if line.strip():
            try:
                doc = json.loads(line)
            except ValueError:
                if i != last:
                    raise StorageError(f"corrupt record at {path}:{i + 1}") from None
                logger.warning("skipping truncated final record in %s", path)
                _rewrite_tail(path, offset, b"")
                return
            yield doc
        offset += len(line) + 1
    if lines[-1]:
        _rewrite_tail(path, len(data), b"\n")


def _rewrite_tail(path: Path, offset: int, tail: bytes) -> None:
    try:
        with path.open("r+b") as fh:
            fh.seek(offset)
            fh.write(tail)
            fh.truncate()
    except OSError as e:
        raise StorageError(f"cannot repair the tail of {path}: {e}") from e
