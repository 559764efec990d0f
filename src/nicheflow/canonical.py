"""Canonical text encoding for documents that must be byte-reproducible.

All on-disk artifacts (genomes, configs, the step log, manifests) go
through ``dumps`` so that structurally equal objects always produce
identical bytes: keys sorted, compact separators, and floats written as their
shortest round-trip repr, so a document read back holds the very floats that
were written. The append-only step log holds one such document per line, written
by ``write_line`` to a log ``open_log`` opened, read by ``read_lines``.
"""

import json
import logging
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, TextIO

from .errors import StorageError

logger = logging.getLogger(__name__)


def dumps(obj: Any) -> str:
    # Keys must be strings: ``json`` sorts keys before it converts them, so
    # int keys would sort by value and mixed key types would raise.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def open_log(path: Path) -> TextIO:
    """Open a line log for appending, creating the file's directory."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("a", encoding="utf-8")
    except OSError as e:
        raise StorageError(f"cannot append to {path}: {e}") from e


def write_line(log: TextIO, doc: Any) -> None:
    """Write ``doc`` as one canonical line and flush it to the OS."""
    try:
        log.write(dumps(doc) + "\n")
        log.flush()
    except OSError as e:
        raise StorageError(f"cannot append to {log.name}: {e}") from e


def read_lines(path: Path, cut_from: Optional[Callable[[Any], bool]] = None) -> Iterator[Any]:
    """Yield the documents of a line log; a missing file holds none.

    A final line that does not parse was torn by a crash mid-append: it is
    skipped with a warning and cut from the file. A whole final record whose
    newline was lost gets its newline back. Either way the next append starts
    a line of its own. A bad line anywhere else raises ``StorageError``. The
    first document for which ``cut_from`` holds is cut from the file with
    every line after it, and ends the log.
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
            if cut_from is not None and cut_from(doc):
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
