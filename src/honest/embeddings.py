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
from .model import Program, TokenSequence, tokenize

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
    digest = hashlib.blake2b(feature.encode("utf-8"), key=_HASH_SEED,
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


def embed(program: Program, config: EmbeddingProviderConfig) -> EmbeddingVector:
    """Embed a program's source. Deterministic for the local-hashed provider."""
    if config.kind is ProviderKind.LOCAL_HASHED:
        return _hashed_vector(tokenize(program).tokens, config.dimension)
    return _remote_embed(program.source, config)


def _embed_tokenized(program: Program, tokens: TokenSequence,
                     config: EmbeddingProviderConfig) -> EmbeddingVector:
    """``embed(program, config)`` given ``tokens == tokenize(program)``: the
    local-hashed provider hashes *tokens* instead of lexing the source again."""
    if config.kind is ProviderKind.LOCAL_HASHED:
        return _hashed_vector(tokens.tokens, config.dimension)
    return embed(program, config)


def text_tokens(text: str) -> list[str]:
    """Word tokenization of plain text (requirements), for hashing and retrieval."""
    return re.findall(r"\w+", text.lower())


def embed_text(text: str, config: EmbeddingProviderConfig) -> EmbeddingVector:
    """Embed plain text (requirements). Local provider hashes word tokens."""
    if config.kind is ProviderKind.LOCAL_HASHED:
        return _hashed_vector(text_tokens(text), config.dimension)
    return _remote_embed(text, config)


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine similarity clamped to [0, 1].

    Raw cosine lives in [-1, 1]; negative values are clamped at 0 so the
    result mixes cleanly with the other [0, 1] modality similarities.
    """
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"{a.dimension} vs {b.dimension}")
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine undefined for a zero vector")
    dot = sum(map(operator.mul, a.values, b.values))
    return min(1.0, max(0.0, dot / (na * nb)))
