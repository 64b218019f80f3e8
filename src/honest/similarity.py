"""The four modality similarities and their weighted hybrid.

All four scores live in [0, 1]. Text, syntax and dataflow similarity are
clipped matches of six multisets per program: its n-gram counts of orders
1-4, its subtree bag and its def-use edges. Each clipped overlap
(``_overlap``) is symmetric, and so is the cosine; only the ratio step
(``text_ratio``, ``clipped_ratio``) is ordered, as its denominator counts
the second program's n-grams / subtrees / edges. So the overlaps of a pair
serve both of its orders.

The confidence stage reads a set's overlaps off level masks instead:
``level_masks`` interns the keys of one of the six multisets once across
the set and turns each program's multiset into one int of a byte per key,
holding counts up to 8, and a dict of what its counts hold beyond 8.
``masked_overlap`` of two of them is the popcount of their AND plus the
overlap of their dicts, an integer equal to ``_overlap``'s. The walks of
``_overlap`` stay as the reference form of the ``sim_*`` functions.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Optional, Sequence

from .analysis import Bag
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
    """Clipped n-gram overlaps for orders 1..4 of ``TokenSequence.ngrams``;
    symmetric."""
    return tuple(map(_overlap, seq_i.ngrams, seq_j.ngrams))


LevelMask = tuple[int, Optional[dict]]


def level_masks(multisets: Sequence[Counter]) -> list[LevelMask]:
    """The level masks of a set's multisets, over the set's keys interned once.

    Each key gets a dense id i in order of first appearance, and each
    multiset one byte per key of the set: bit 8i + u of its int is set when
    it holds key i more than u times, for levels u of 0-7. The rest of each
    count above 8, count - 8, is kept in a dict, None when there is none. So
    with K keys in the set, each int holds at most K bytes.
    """
    ids: dict = {}
    setdefault = ids.setdefault
    keyed = [[setdefault(key, len(ids)) for key in counts] for counts in multisets]
    masks = []
    for counts, idx in zip(multisets, keyed):
        held = bytearray(len(ids))
        for i, count in zip(idx, counts.values()):
            held[i] = (1 << count) - 1 if count < 8 else 255
        excess = {key: count - 8 for key, count in counts.items() if count > 8}
        masks.append((int.from_bytes(held, "little"), excess or None))
    return masks


def masked_overlap(mask_i: LevelMask, mask_j: LevelMask) -> int:
    """``_overlap`` of two multisets from their ``level_masks`` of one set:
    levels nest, so the set bits both masks share count min(count_i, count_j)
    of each key up to 8, and the excess dicts add the rest, as
    min(a, b) = min(min(a, 8), min(b, 8)) + min(max(a - 8, 0), max(b - 8, 0))."""
    (bits_i, excess_i), (bits_j, excess_j) = mask_i, mask_j
    total = (bits_i & bits_j).bit_count()
    if excess_i and excess_j:
        total += _overlap(excess_i, excess_j)
    return total


def text_ratio(overlaps: Sequence[int], size_i: int, size_j: int) -> float:
    """Geometric-mean n-gram overlap ratio (orders 1..4), clipped counts, from
    ``text_overlaps`` and the lengths of seq_i and seq_j.

    Orders where seq_j has no n-grams are excluded and the remaining log
    weights renormalized; a single included order with zero overlap forces
    0. Two empty sequences score 1. The logs are added left to right, the
    order ``sum()`` used before CPython 3.12 compensated it, so every
    interpreter gives the same bits.
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
    return min(1.0, math.exp(reduce(add, logs, 0.0) / len(logs)))


def sim_text(seq_i: TokenSequence, seq_j: TokenSequence) -> float:
    """``text_ratio`` of the two sequences, over seq_j's n-gram counts."""
    return text_ratio(text_overlaps(seq_i, seq_j), len(seq_i), len(seq_j))


def clipped_ratio(overlap: int, size_i: int, size_j: int) -> float:
    """A clipped multiset overlap over the second multiset's size; two empty
    multisets score 1."""
    if size_j == 0:
        return 1.0 if size_i == 0 else 0.0
    return overlap / size_j


def sim_syntax(bag_i: Bag, bag_j: Bag) -> float:
    """Clipped-multiset subtree overlap over bag_j's size."""
    return clipped_ratio(_overlap(bag_i.counts, bag_j.counts), bag_i.size, bag_j.size)


def sim_dataflow(dfg_i: Bag, dfg_j: Bag) -> float:
    """Clipped-multiset def-use edge overlap over dfg_j's size."""
    return clipped_ratio(_overlap(dfg_i.counts, dfg_j.counts), dfg_i.size, dfg_j.size)


def sim_embed(e_i: EmbeddingVector, e_j: EmbeddingVector) -> float:
    return cosine(e_i, e_j)


def sim_hybrid(text: float, syntax: float, dataflow: float, embedding: float,
               weights: SimilarityWeights) -> float:
    if not (0.0 <= text <= 1.0 and 0.0 <= syntax <= 1.0
            and 0.0 <= dataflow <= 1.0 and 0.0 <= embedding <= 1.0):
        for name, value in (("text", text), ("syntax", syntax),
                            ("dataflow", dataflow), ("embedding", embedding)):
            if not 0.0 <= value <= 1.0:
                raise ComponentOutOfRange(f"{name} similarity out of [0, 1]: {value}")
    mixed = (weights.alpha * text + weights.beta * syntax
             + weights.gamma * dataflow + weights.delta * embedding)
    return min(1.0, max(0.0, mixed))
