"""Embedding providers and cosine similarity.

Two providers sit behind one config: a remote OpenAI-compatible embeddings
endpoint, and a deterministic locally-hashed n-gram vectorizer for offline
work and tests. Downstream code only ever sees the vector.
"""
from __future__ import annotations

import hashlib
import math
import operator
import re
import sys
import threading
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Any, Callable, Optional, Sequence

from .client import _check_endpoint, _check_retry_policy, _post_json
from .errors import (
    DegenerateEmbedding,
    DimensionMismatch,
    ProviderUnavailable,
    ZeroVector,
)
from .model import Program, TokenSequence, tokenize

_HASH_SEED = b"honest-localhashed-v1"  # fixed: vectors must be reproducible

# Inputs per /embeddings request. Hugging Face text-embeddings-inference
# rejects more than --max-client-batch-size inputs (default 32). OpenAI caps
# a request at 2048 inputs and 300,000 tokens summed over them; 32 inputs at
# its 8192-token limit per input stay under both.
_INPUTS_PER_REQUEST = 32


class ProviderKind(Enum):
    REMOTE = "remote"
    LOCAL_HASHED = "local-hashed"


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.values)

    def norm(self) -> float:
        return self._norm

    @cached_property
    def _norm(self) -> float:
        # kept: a program's vector is compared against every other program's
        return math.sqrt(sum(v * v for v in self.values))


@dataclass(frozen=True)
class EmbeddingProviderConfig:
    kind: ProviderKind
    endpoint: Optional[str] = None
    model_name: Optional[str] = None
    dimension: int = 256
    max_in_flight: int = 4
    retries: int = 2
    backoff: float = 0.5

    def __post_init__(self):
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        _check_retry_policy(self.retries, self.backoff)
        if self.kind is ProviderKind.REMOTE:
            if not self.endpoint or not self.model_name:
                raise ValueError("remote provider requires endpoint and model_name")
            _check_endpoint(self.endpoint)
        elif self.dimension < 64:
            raise ValueError("local-hashed provider requires dimension >= 64")


# Copied for each feature: copying, updating and digesting it takes about 0.6
# of the time a freshly keyed blake2b takes (CPython 3.11).
_KEYED_HASH = hashlib.blake2b(key=_HASH_SEED, digest_size=8)


# A seed-0 benchmark set of 50 ~30-line programs holds at most 2,468 distinct
# unigrams and bigrams, so one set's features fit with room to spare.
@lru_cache(maxsize=4096)
def _bucket(feature: str, dimension: int) -> tuple[int, float]:
    hashed = _KEYED_HASH.copy()
    hashed.update(feature.encode("utf-8", "surrogatepass"))
    value = int.from_bytes(hashed.digest(), "big")
    sign = 1.0 if value & 1 else -1.0
    return (value >> 1) % dimension, sign


def _hashed_vector(seq: TokenSequence, dimension: int) -> EmbeddingVector:
    """Signed bucket counts, each distinct unigram and bigram hashed once and
    added times its count. Cosine ignores length, so they stay unscaled: whole
    numbers, whose dot products and norms are exact in any order."""
    counts = [0.0] * dimension
    for grams in seq.ngrams[:2]:
        for gram, count in grams.items():
            idx, sign = _bucket("\x00".join(gram), dimension)
            counts[idx] += sign * count
    if not any(counts):
        # degenerate input (empty program, or exact sign cancellation):
        # a fixed unit basis vector, so identical inputs agree
        counts[0] = 1.0
    return EmbeddingVector(tuple(counts))


class _RemoteState:
    """Per-config request gate + in-process memoization."""

    def __init__(self, config: EmbeddingProviderConfig):
        self.semaphore = threading.Semaphore(config.max_in_flight)
        self.cache: dict[str, EmbeddingVector] = {}
        self.lock = threading.Lock()


_remote_states: dict[EmbeddingProviderConfig, _RemoteState] = {}
_remote_states_lock = threading.Lock()


def _state_for(config: EmbeddingProviderConfig) -> _RemoteState:
    """The state of *config*; equal configs share one."""
    with _remote_states_lock:
        if config not in _remote_states:
            _remote_states[config] = _RemoteState(config)
        return _remote_states[config]


def _embeddings_reader(count: int) -> Callable[[Any], list[tuple[float, ...]]]:
    """A reply reader that takes exactly *count* finite vectors, in input
    order: by each item's ``index`` where the items carry one, as OpenAI's
    do, else by position."""
    def read(reply) -> list[tuple[float, ...]]:
        data = reply["data"]
        if len(data) != count:
            raise ValueError(f"{len(data)} embeddings for {count} inputs")
        if any("index" in item for item in data):
            if sorted(item["index"] for item in data) != list(range(count)):
                raise ValueError(f"embedding indices are not 0..{count - 1} once each")
            data = sorted(data, key=operator.itemgetter("index"))
        rows = [tuple(float(v) for v in item["embedding"]) for item in data]
        if not all(math.isfinite(v) for values in rows for v in values):
            raise ValueError("embedding holds a non-finite value")  # json reads NaN, Infinity
        return rows
    return read


def _remote_embed(texts: Sequence[str], config: EmbeddingProviderConfig) -> list[EmbeddingVector]:
    """The vectors of *texts*, in order. The distinct texts the per-config
    cache lacks go out as list inputs, ``_INPUTS_PER_REQUEST`` to a request;
    each reply is cached before the next request, so a failed request loses
    only its own texts."""
    state = _state_for(config)
    with state.lock:
        found = {t: state.cache[t] for t in texts if t in state.cache}
    missing = [t for t in dict.fromkeys(texts) if t not in found]
    for start in range(0, len(missing), _INPUTS_PER_REQUEST):
        chunk = missing[start:start + _INPUTS_PER_REQUEST]
        with state.semaphore:
            rows = _post_json(
                config.endpoint.rstrip("/") + "/embeddings",
                {"model": config.model_name, "input": chunk},
                _embeddings_reader(len(chunk)), ProviderUnavailable,
                retries=config.retries, backoff=config.backoff, timeout=60)
        if any(all(v == 0.0 for v in values) for values in rows):
            raise DegenerateEmbedding("endpoint returned an all-zero vector")
        fresh = {t: EmbeddingVector(values) for t, values in zip(chunk, rows)}
        with state.lock:
            state.cache.update(fresh)
        found.update(fresh)
    return [found[t] for t in texts]


def prefetch(texts: Sequence[str], config: EmbeddingProviderConfig) -> None:
    """Embed *texts* into the remote cache that ``_embed`` reads, in as few
    requests as ``_remote_embed`` allows; the local provider keeps no cache,
    so for it this does nothing."""
    if config.kind is ProviderKind.REMOTE:
        _remote_embed(texts, config)


def _embed(text: str, features: Callable[[], TokenSequence],
           config: EmbeddingProviderConfig) -> EmbeddingVector:
    """The one provider switch: hash the n-grams of ``features()`` locally, or
    send *text* remote; *features* is only called for the local provider."""
    if config.kind is ProviderKind.LOCAL_HASHED:
        return _hashed_vector(features(), config.dimension)
    return _remote_embed([text], config)[0]


def embed(program: Program, config: EmbeddingProviderConfig) -> EmbeddingVector:
    """Embed a program's source; the local provider hashes its lexical tokens."""
    return _embed(program.source, lambda: tokenize(program), config)


def text_tokens(text: str) -> list[str]:
    """Word tokenization of plain text (requirements), for hashing and retrieval."""
    return re.findall(r"\w+", text.lower())


def embed_text(text: str, config: EmbeddingProviderConfig) -> EmbeddingVector:
    """Embed plain text (requirements); the local provider hashes word tokens."""
    return _embed(text, lambda: TokenSequence(tuple(text_tokens(text))), config)


def _power_of_two_scaled(values: Sequence[float]) -> list[float]:
    """``values`` times the power of two that brings the largest magnitude into
    [0.5, 1): exact for every entry that stays normal."""
    shift = -math.frexp(max(map(abs, values), default=0.0))[1]
    return [math.ldexp(v, shift) for v in values]


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine similarity clamped to [0, 1].

    Raw cosine lives in [-1, 1]; negative values are clamped at 0 so the
    result mixes cleanly with the other [0, 1] modality similarities.
    """
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"{a.dimension} vs {b.dimension}")
    na, nb = a.norm(), b.norm()
    dot = sum(map(operator.mul, a.values, b.values))
    tiny = sys.float_info.min  # the least normal float
    if (min(na, nb) < math.sqrt(tiny) or 0.0 < abs(dot) < tiny
            or math.isinf(na * nb) or math.isinf(dot)):
        # a squared norm or the dot product is subnormal (or flushed to 0) and
        # has lost bits, or is inf; cosine is scale-free, so rescale both
        # vectors exactly
        av, bv = _power_of_two_scaled(a.values), _power_of_two_scaled(b.values)
        na, nb = math.sqrt(sum(v * v for v in av)), math.sqrt(sum(v * v for v in bv))
        dot = sum(map(operator.mul, av, bv))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine undefined for a zero vector")
    return min(1.0, max(0.0, dot / (na * nb)))
