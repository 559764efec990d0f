"""Embedding backends, cosine similarity, tag-based retrieval scoring, and
utility tag generation.

The backend is a fully offline deterministic embedder (token 3-gram feature
hashing), so the whole evolutionary loop is testable with zero network access.
"""

import functools
import hashlib
import re
from typing import Optional

import numpy as np

from .errors import InvalidInput, InvalidState
from .genome import ModelPool, WorkflowGenome, serialize
from .provider import Evolver

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _check_unit(vec: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(vec)):
        raise InvalidInput("embedding has non-finite entries")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise InvalidInput("zero embedding vector")
    return vec / norm


class HashingEmbedder:
    """Deterministic offline embedder: character 3-grams of lowercased tokens,
    feature-hashed into ``dim`` buckets with term-frequency weights, L2 norm.

    A vector is a pure function of (dim, stripped text), so every embedder
    shares one bounded, thread-safe cache of them: the only place a tag's
    vector is kept. Cached vectors are read-only.
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise InvalidInput("embedding dimension must be >= 2")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        key = text.strip()
        if not key:
            raise InvalidInput("cannot embed empty text")
        return _unit_vector(self.dim, key)

    def _embed_uncached(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        for token in _TOKEN_RE.findall(text.lower()):
            padded = f"#{token}#"
            grams = (
                [padded[i : i + 3] for i in range(len(padded) - 2)]
                if len(padded) >= 3
                else [padded]
            )
            for gram in grams:
                digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
                bucket = int.from_bytes(digest, "big") % self.dim
                vec[bucket] += 1.0
        if not vec.any():
            # text with no alphanumeric tokens still gets a stable vector
            digest = hashlib.blake2b(text.strip().encode("utf-8"), digest_size=8).digest()
            vec[int.from_bytes(digest, "big") % self.dim] = 1.0
        return vec


# Two rounds of each benchmark workload in one process leave at most 256
# distinct keys. A step touches all N*kappa live tags (75 at the acceptance
# config), so they stay resident and eviction only drops old query texts:
# this bound never evicts there, and caps what a long-lived server keeps.
@functools.lru_cache(maxsize=1024)
def _unit_vector(dim: int, text: str) -> np.ndarray:
    # the miss path is looked up on the class at call time, so it can be wrapped
    vec = _check_unit(HashingEmbedder(dim)._embed_uncached(text))
    vec.flags.writeable = False
    return vec


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    if u.shape != v.shape:
        raise InvalidInput(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(np.dot(u, v))


def _embed_tags(genome: WorkflowGenome, embedder: HashingEmbedder) -> list[np.ndarray]:
    if not genome.tags:
        raise InvalidState(f"genome {genome.workflow_id!r} has no tags")
    return [embedder.embed(tag) for tag in genome.tags]


def similarity_score(
    genome: WorkflowGenome, query_vec: np.ndarray, embedder: HashingEmbedder
) -> float:
    """Sum over the genome's tags, in order, of their vector's cosine with the query."""
    return float(sum(cosine(tv, query_vec) for tv in _embed_tags(genome, embedder)))


def tag_profile(genome: WorkflowGenome, embedder: HashingEmbedder) -> np.ndarray:
    """Unit-norm mean of a genome's tag vectors; used for genome-to-genome
    similarity in niching."""
    mean = np.mean(np.stack(_embed_tags(genome, embedder)), axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        return mean
    return mean / norm


# --- tag generation ----------------------------------------------------------

TAG_GENERATION_PROMPT = """You summarize agentic workflows for retrieval.

Workflow name: {NAME}
Stages: {DESCRIPTION}
Definition:
{CODE}

A task this workflow handled:
{TASK}

Reply with exactly {KAPPA} short tags, comma separated, on a single line, and
nothing else. Tags should name the problem domains and the difficulty level
this workflow is suited for. Avoid generic tags.
"""


def _parse_tag_reply(reply: str, kappa: int) -> Optional[list[str]]:
    line = reply.strip().splitlines()[-1] if reply.strip() else ""
    parts = [p.strip() for p in line.split(",")]
    tags = [p for p in parts if p]
    if len(tags) < kappa:
        return None
    return tags[:kappa]


def structural_tags(genome: WorkflowGenome, pool: ModelPool, kappa: int) -> list[str]:
    """Deterministic fallback tagger built from the genome's own structure."""
    kinds = sorted({op.kind for op in genome.operators})
    models = sorted(
        {n.model_id for op in genome.operators for n in op.invoking_nodes}
    )
    prices = [pool.get(m).unit_price for m in models if m in pool]
    avg_price = sum(prices) / len(prices) if prices else 0.0
    tier = "budget tier" if avg_price < 1.0 else "premium tier"
    candidates = (
        [f"{k} reasoning" for k in kinds]
        + [f"model {m}" for m in models]
        + [tier, f"{len(genome.operators)} stage workflow"]
    )
    candidates += [f"aspect {i}" for i in range(kappa)]
    return candidates[:kappa]


def generate_tags(
    genome: WorkflowGenome,
    evolver: Optional[Evolver],
    pool: ModelPool,
    kappa: int,
) -> list[str]:
    """Ask the evolver for kappa comma-separated tags; fall back to the
    structural tagger without an evolver, on a malformed reply, or on
    transport failure.

    Always returns exactly kappa tags.
    """
    if evolver is None:
        return structural_tags(genome, pool, kappa)
    prompt = TAG_GENERATION_PROMPT.format(
        NAME=genome.workflow_id,
        DESCRIPTION=", ".join(op.kind for op in genome.operators),
        CODE=serialize(genome),
        TASK="(no solved task recorded yet)",
        KAPPA=kappa,
    )
    tags = evolver.ask(prompt, lambda reply: _parse_tag_reply(reply, kappa))
    return tags if tags is not None else structural_tags(genome, pool, kappa)
