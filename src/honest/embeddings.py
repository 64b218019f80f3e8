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
from functools import cached_property
from typing import Optional, Sequence

from .client import _post_json
from .errors import (
    DegenerateEmbedding,
    DimensionMismatch,
    ProviderUnavailable,
    ZeroVector,
)
from .model import Program, tokenize

_HASH_SEED = b"honest-localhashed-v1"  # fixed: vectors must be reproducible


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
        if self.kind is ProviderKind.REMOTE:
            if not self.endpoint or not self.model_name:
                raise ValueError("remote provider requires endpoint and model_name")
        elif self.dimension < 64:
            raise ValueError("local-hashed provider requires dimension >= 64")


def _bucket(feature: str, dimension: int) -> tuple[int, float]:
    digest = hashlib.blake2b(feature.encode("utf-8", "surrogatepass"), key=_HASH_SEED,
                             digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    sign = 1.0 if value & 1 else -1.0
    return (value >> 1) % dimension, sign


def _hashed_vector(tokens: Sequence[str], dimension: int) -> EmbeddingVector:
    counts = [0.0] * dimension
    features = list(tokens)
    features += [a + "\x00" + b for a, b in zip(tokens, tokens[1:])]
    for feature in features:
        idx, sign = _bucket(feature, dimension)
        counts[idx] += sign
    norm = math.sqrt(sum(v * v for v in counts))
    if norm == 0.0:
        # degenerate input (empty program, or exact sign cancellation):
        # replace with a fixed unit basis vector so identical inputs agree
        counts = [0.0] * dimension
        counts[0] = 1.0
        norm = 1.0
    return EmbeddingVector(tuple(v / norm for v in counts))


class _RemoteState:
    """Per-config request gate + in-process memoization."""

    def __init__(self, config: EmbeddingProviderConfig):
        self.semaphore = threading.Semaphore(config.max_in_flight)
        self.cache: dict[str, EmbeddingVector] = {}
        self.lock = threading.Lock()


_remote_states: dict[tuple, _RemoteState] = {}
_remote_states_lock = threading.Lock()


def _state_for(config: EmbeddingProviderConfig) -> _RemoteState:
    key = (config.endpoint, config.model_name)
    with _remote_states_lock:
        if key not in _remote_states:
            _remote_states[key] = _RemoteState(config)
        return _remote_states[key]


def _read_embedding(reply) -> tuple[float, ...]:
    return tuple(float(v) for v in reply["data"][0]["embedding"])


def _remote_embed(text: str, config: EmbeddingProviderConfig) -> EmbeddingVector:
    state = _state_for(config)
    with state.lock:
        cached = state.cache.get(text)
    if cached is not None:
        return cached

    with state.semaphore:
        values = _post_json(
            config.endpoint.rstrip("/") + "/embeddings",
            {"model": config.model_name, "input": [text]},
            _read_embedding, ProviderUnavailable,
            retries=config.retries, backoff=config.backoff, timeout=60)

    if all(v == 0.0 for v in values):
        raise DegenerateEmbedding("endpoint returned an all-zero vector")
    vector = EmbeddingVector(values)
    with state.lock:
        state.cache[text] = vector
    return vector


def _embed(text: str, features: Sequence[str],
           config: EmbeddingProviderConfig) -> EmbeddingVector:
    """The one provider switch: hash *features* locally, or send *text* remote."""
    if config.kind is ProviderKind.LOCAL_HASHED:
        return _hashed_vector(features, config.dimension)
    return _remote_embed(text, config)


def embed(program: Program, config: EmbeddingProviderConfig) -> EmbeddingVector:
    """Embed a program's source; the local provider hashes its lexical tokens."""
    return _embed(program.source, tokenize(program).tokens, config)


def text_tokens(text: str) -> list[str]:
    """Word tokenization of plain text (requirements), for hashing and retrieval."""
    return re.findall(r"\w+", text.lower())


def embed_text(text: str, config: EmbeddingProviderConfig) -> EmbeddingVector:
    """Embed plain text (requirements); the local provider hashes word tokens."""
    return _embed(text, text_tokens(text), config)


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
    if min(na, nb) < math.sqrt(tiny) or 0.0 < abs(dot) < tiny:
        # a squared norm or the dot product is subnormal (or flushed to 0) and
        # has lost bits; cosine is scale-free, so rescale both vectors exactly
        av, bv = _power_of_two_scaled(a.values), _power_of_two_scaled(b.values)
        na, nb = math.sqrt(sum(v * v for v in av)), math.sqrt(sum(v * v for v in bv))
        dot = sum(map(operator.mul, av, bv))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine undefined for a zero vector")
    return min(1.0, max(0.0, dot / (na * nb)))
