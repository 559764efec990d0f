"""Canonical text encoding for documents that must be byte-reproducible.

All on-disk artifacts (genomes, configs, step reports, manifests) go
through ``dumps`` so that structurally equal objects always produce
identical bytes: keys sorted, compact separators, and floats written as their
shortest round-trip repr, so a document read back holds the very floats that
were written.
"""

import json
from typing import Any


def dumps(obj: Any) -> str:
    # Keys must be strings: ``json`` sorts keys before it converts them, so
    # int keys would sort by value and mixed key types would raise.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
