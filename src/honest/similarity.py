"""The four modality similarities and their weighted hybrid.

All four scores live in [0, 1]. Text, syntax, and dataflow similarity are
asymmetric by construction: the denominator always counts the second
argument's n-grams / subtrees / edges. Their numerators, the clipped
overlaps, are symmetric, and so is the cosine. So each of those three
modalities is a symmetric overlap (``text_overlaps``, ``_overlap``) and an
ordered ratio step (``text_ratio``, ``clipped_ratio``) that takes the
overlap and both sizes; the overlaps of a pair serve both of its orders.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .analysis import DataflowGraph, SubtreeBag
from .embeddings import EmbeddingVector, cosine
from .errors import ComponentOutOfRange
from .model import TokenSequence

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class SimilarityWeights:
    alpha: float  # text
    beta: float  # syntax
    gamma: float  # dataflow
    delta: float  # embedding

    def __post_init__(self):
        for w in self.as_tuple():
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"weight out of [0, 1]: {w}")
        if abs(sum(self.as_tuple()) - 1.0) > _SUM_TOL:
            raise ValueError("weights must sum to 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    @classmethod
    def uniform(cls) -> "SimilarityWeights":
        return cls(0.25, 0.25, 0.25, 0.25)


@dataclass(frozen=True)
class SimilarityBreakdown:
    i: int
    j: int
    text: float
    syntax: float
    dataflow: float
    embedding: float
    hybrid: float


def _overlap(counts_i: Counter, counts_j: Counter) -> int:
    """Clipped multiset overlap: sum of min(count_i, count_j) over shared keys.

    One pass over the smaller Counter, one lookup per key in the larger.
    """
    if len(counts_i) > len(counts_j):
        counts_i, counts_j = counts_j, counts_i
    get = counts_j.get
    total = 0
    for key, count in counts_i.items():
        other = get(key)
        if other is not None:
            total += count if count < other else other
    return total


def text_overlaps(seq_i: TokenSequence, seq_j: TokenSequence) -> tuple[int, ...]:
    """Clipped n-gram overlaps for orders 1, 2, ... of ``TokenSequence.ngrams``;
    symmetric.

    Stops after the first zero: an (n+1)-gram shared by both sequences starts
    with a shared n-gram, so every higher order overlaps by zero too.
    """
    overlaps = []
    for ci, cj in zip(seq_i.ngrams, seq_j.ngrams):
        overlaps.append(_overlap(ci, cj))
        if overlaps[-1] == 0:
            break
    return tuple(overlaps)


def text_ratio(overlaps: Sequence[int], size_i: int, size_j: int) -> float:
    """Geometric-mean n-gram overlap ratio (orders 1..4), clipped counts, from
    ``text_overlaps`` and the lengths of seq_i and seq_j.

    Orders where seq_j has no n-grams are excluded and the remaining log
    weights renormalized; a single included order with zero overlap forces
    0. Two empty sequences score 1.
    """
    logs = []
    for n, overlap in enumerate(overlaps, 1):
        total_j = size_j - n + 1
        if total_j <= 0:
            break  # and so for every higher order
        if overlap == 0:
            return 0.0
        logs.append(math.log(overlap / total_j))
    if not logs:
        return 1.0 if size_i == 0 else 0.0
    return min(1.0, math.exp(sum(logs) / len(logs)))


def sim_text(seq_i: TokenSequence, seq_j: TokenSequence) -> float:
    """``text_ratio`` of the two sequences, over seq_j's n-gram counts."""
    return text_ratio(text_overlaps(seq_i, seq_j), len(seq_i), len(seq_j))


def clipped_ratio(overlap: int, size_i: int, size_j: int) -> float:
    """A clipped multiset overlap over the second multiset's size; two empty
    multisets score 1."""
    if size_j == 0:
        return 1.0 if size_i == 0 else 0.0
    return overlap / size_j


def sim_syntax(bag_i: SubtreeBag, bag_j: SubtreeBag) -> float:
    """Clipped-multiset subtree overlap over bag_j's size."""
    return clipped_ratio(_overlap(bag_i.entries, bag_j.entries), bag_i.size, bag_j.size)


def sim_dataflow(dfg_i: DataflowGraph, dfg_j: DataflowGraph) -> float:
    """Clipped-multiset def-use edge overlap over dfg_j's size."""
    return clipped_ratio(_overlap(dfg_i.edges, dfg_j.edges), dfg_i.size, dfg_j.size)


def sim_embed(e_i: EmbeddingVector, e_j: EmbeddingVector) -> float:
    return cosine(e_i, e_j)


def sim_hybrid(text: float, syntax: float, dataflow: float, embedding: float,
               weights: SimilarityWeights) -> float:
    for name, value in (("text", text), ("syntax", syntax),
                        ("dataflow", dataflow), ("embedding", embedding)):
        if not 0.0 <= value <= 1.0:
            raise ComponentOutOfRange(f"{name} similarity out of [0, 1]: {value}")
    mixed = (weights.alpha * text + weights.beta * syntax
             + weights.gamma * dataflow + weights.delta * embedding)
    return min(1.0, max(0.0, mixed))
