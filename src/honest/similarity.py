"""The four modality similarities and their weighted hybrid.

All four scores live in [0, 1]. Text, syntax, and dataflow similarity are
asymmetric by construction: the denominator always counts the second
argument's n-grams / subtrees / edges. Their numerators, the clipped
overlaps, are symmetric, and so is the cosine. So each of those three
modalities is a symmetric overlap (``text_overlaps``, ``_overlap``) and an
ordered ratio step (``text_ratio``, ``clipped_ratio``) that takes the
overlap and both sizes; the overlaps of a pair serve both of its orders.

A set of many programs has all of its overlaps read off level masks
instead: ``level_masks`` interns each key of the set once and turns each
multiset into one int, and ``masked_overlap`` of two of them is the
popcount of their AND, an integer equal to ``_overlap``'s. Building the
masks costs a few passes over each program's keys, so the confidence stage
takes this form only for sets with enough distinct programs.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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


def _until_zero(overlaps: Iterable[int]) -> tuple[int, ...]:
    """The n-gram overlaps of orders 1, 2, ..., up to and including the first
    zero: an (n+1)-gram shared by both sequences starts with a shared n-gram,
    so every higher order overlaps by zero too."""
    out = []
    for overlap in overlaps:
        out.append(overlap)
        if overlap == 0:
            break
    return tuple(out)


def text_overlaps(seq_i: TokenSequence, seq_j: TokenSequence) -> tuple[int, ...]:
    """Clipped n-gram overlaps for orders 1, 2, ... of ``TokenSequence.ngrams``,
    up to the first zero; symmetric."""
    return _until_zero(map(_overlap, seq_i.ngrams, seq_j.ngrams))


# One byte translation table per plane p of eight levels: the byte of a key
# held c times has bit u set when c > 8p + u.
_PLANES = [bytes(8 * p + 1) + b"\x01\x03\x07\x0f\x1f\x3f\x7f" + b"\xff" * (248 - 8 * p)
           for p in range(32)]

LevelMask = tuple[int, Optional[dict]]


def level_masks(multisets: Sequence[Counter]) -> list[LevelMask]:
    """The level masks of a set's multisets, over the set's keys interned once.

    Each key gets a dense id i in order of first appearance. With K keys in
    the set, bit 8(K*p + i) + u of a multiset's int is set when the multiset
    holds key i more than t = 8p + u times: level t of key i. Eight levels of
    a key share a byte, and plane p's bytes are one ``bytes.translate`` of the
    multiset's count bytes. Counts above 255 fill every plane, and the rest
    of each (count - 255) is kept in a dict, None when there is none.
    """
    ids: dict = {}
    setdefault = ids.setdefault
    keyed = [[setdefault(key, len(ids)) for key in counts] for counts in multisets]
    masks = []
    for counts, idx in zip(multisets, keyed):
        held = bytearray(len(ids))
        top = max(counts.values(), default=0)
        excess = None
        if top > 255:
            excess = {key: count - 255 for key, count in counts.items() if count > 255}
            top = 255
        for i, count in zip(idx, counts.values()):
            held[i] = count if count < 255 else 255
        planes = b"".join([held.translate(_PLANES[p]) for p in range((top + 7) // 8)])
        masks.append((int.from_bytes(planes, "little"), excess))
    return masks


def masked_overlap(mask_i: LevelMask, mask_j: LevelMask) -> int:
    """``_overlap`` of two multisets from their ``level_masks`` of one set:
    levels nest, so the set bits both masks share count min(count_i, count_j)
    of each key up to 255, and the excess dicts add the rest."""
    (bits_i, excess_i), (bits_j, excess_j) = mask_i, mask_j
    total = (bits_i & bits_j).bit_count()
    if excess_i and excess_j:
        total += _overlap(excess_i, excess_j)
    return total


def masked_text_overlaps(masks_i: Sequence[LevelMask],
                         masks_j: Sequence[LevelMask]) -> tuple[int, ...]:
    """``text_overlaps`` from the two sequences' n-gram ``level_masks``, one
    per order."""
    return _until_zero(map(masked_overlap, masks_i, masks_j))


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
