"""Confidence estimation: mean hybrid similarity over all ordered pairs,
plus exhaustive-grid weight tuning on labeled training data."""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .analysis import DataflowGraph, SubtreeBag, _cst_and_dataflow, extract_subtrees
from .dataset import _open_text, write_text
from .embeddings import EmbeddingProviderConfig, EmbeddingVector, _embed, prefetch
from .errors import DegenerateLabels, TooFewSamples
from .evaluation import mann_whitney_auroc
from .model import (MAX_NGRAM_ORDER, Language, Program, SampleSet, TokenSequence, lex,
                    token_sequence, tokenize)
from .similarity import (
    _SUM_TOL,
    SimilarityBreakdown,
    SimilarityWeights,
    _overlap,
    clipped_ratio,
    level_masks,
    masked_overlap,
    masked_text_overlaps,
    sim_embed,
    sim_hybrid,
    text_overlaps,
    text_ratio,
)

GRID_STEP = 0.05
# Distinct programs from which a set's clipped overlaps come from level masks.
# Building the masks costs a few passes over each program's keys, which pays
# off only once each program meets enough others. On random sets of the
# benchmark's short, ~30-line and damaged programs, masks took 0.62-1.18 times
# the per-pair walks' CPU time at 10 distinct programs and 0.60-0.95 at 12.
MASKED_FROM = 12


@dataclass(frozen=True)
class ConfidenceReport:
    requirement_id: str
    n: int
    confidence: float


@dataclass(frozen=True)
class TuningResult:
    weights: SimilarityWeights
    train_auroc: float
    grid_points_evaluated: int


@dataclass(frozen=True, eq=False)
class ProgramAnalysis:
    """Everything the pairwise similarities need, computed once per program.
    Equal and hashed by identity only. ``in_set`` is the pair table of the
    set the program was analysed in and its index there (see ``_one_set``)."""

    tokens: TokenSequence
    subtree_bag: SubtreeBag
    dataflow: DataflowGraph
    embedding: EmbeddingVector
    in_set: Optional[tuple[_PairTable, int]] = None


def analyze_program(program: Program, provider: EmbeddingProviderConfig) -> ProgramAnalysis:
    """Tokens, subtree bag, dataflow and embedding from at most one Pygments
    pass: Java's stream feeds its tokens and parse, and Python's tree and
    dataflow come from the source, so only its tokens may need Pygments."""
    lexed = lex(program) if program.language is Language.JAVA else None
    tokens = tokenize(program) if lexed is None else token_sequence(lexed)
    tree, dataflow = _cst_and_dataflow(program, lexed)
    return ProgramAnalysis(
        tokens=tokens,
        subtree_bag=extract_subtrees(tree),
        dataflow=dataflow,
        embedding=_embed(program.source, lambda: tokens, provider),
    )


def _fresh_terms(a: ProgramAnalysis, b: ProgramAnalysis) -> tuple:
    return (text_overlaps(a.tokens, b.tokens),
            _overlap(a.subtree_bag.entries, b.subtree_bag.entries),
            _overlap(a.dataflow.edges, b.dataflow.edges),
            sim_embed(a.embedding, b.embedding))


class _PairTable:
    """The symmetric terms of each unordered pair of one set's distinct
    programs, computed once and kept for the pair's other order. From
    ``MASKED_FROM`` programs on, the overlaps come from level masks, built on
    the first pair for all of the set's programs at once."""

    def __init__(self, analyses: Sequence[ProgramAnalysis]):
        self.analyses = analyses
        self.masks: Optional[list[tuple]] = None
        self.terms: dict[tuple[int, int], tuple] = {}

    def pair(self, p: int, q: int) -> tuple:
        key = (p, q) if p <= q else (q, p)
        terms = self.terms.get(key)
        if terms is None:
            terms = self.terms[key] = self._compute(*key)
        return terms

    def _compute(self, p: int, q: int) -> tuple:
        a, b = self.analyses[p], self.analyses[q]
        if len(self.analyses) < MASKED_FROM:
            return _fresh_terms(a, b)
        if self.masks is None:
            self.masks = list(zip(
                zip(*(level_masks([x.tokens.ngrams[n] for x in self.analyses])
                      for n in range(MAX_NGRAM_ORDER))),
                level_masks([x.subtree_bag.entries for x in self.analyses]),
                level_masks([x.dataflow.edges for x in self.analyses])))
        (ngrams_a, bag_a, edges_a), (ngrams_b, bag_b, edges_b) = self.masks[p], self.masks[q]
        return (masked_text_overlaps(ngrams_a, ngrams_b),
                masked_overlap(bag_a, bag_b),
                masked_overlap(edges_a, edges_b),
                sim_embed(a.embedding, b.embedding))


def _one_set(analyses: Sequence[ProgramAnalysis]) -> list[ProgramAnalysis]:
    """The analyses of one set's distinct programs, each holding the set's
    pair table and its index in it. The table holds the analyses as given,
    not these, so the set's objects form no reference cycle."""
    table = _PairTable(analyses)
    return [replace(a, in_set=(table, x)) for x, a in enumerate(analyses)]


def _symmetric_terms(a_i: ProgramAnalysis, a_j: ProgramAnalysis) -> tuple:
    """The n-gram, subtree and edge overlaps and the cosine of a pair: the same
    for both orders, so within one set a pair computes them once. Analyses
    from no set, or from two, compute them afresh."""
    if a_i.in_set and a_j.in_set and a_i.in_set[0] is a_j.in_set[0]:
        return a_i.in_set[0].pair(a_i.in_set[1], a_j.in_set[1])
    return _fresh_terms(a_i, a_j)


def pair_breakdown(i: int, j: int, a_i: ProgramAnalysis, a_j: ProgramAnalysis,
                   weights: SimilarityWeights) -> SimilarityBreakdown:
    """The four similarities of program i to program j, and their hybrid."""
    ngrams, subtrees, edges, embedding = _symmetric_terms(a_i, a_j)
    text = text_ratio(ngrams, len(a_i.tokens), len(a_j.tokens))
    syntax = clipped_ratio(subtrees, a_i.subtree_bag.size, a_j.subtree_bag.size)
    dataflow = clipped_ratio(edges, a_i.dataflow.size, a_j.dataflow.size)
    hybrid = sim_hybrid(text, syntax, dataflow, embedding, weights)
    return SimilarityBreakdown(i, j, text, syntax, dataflow, embedding, hybrid)


def pairwise_confidence(values: Sequence[float]) -> float:
    """SUM(sim_list) / LEN(sim_list) over the ordered-pair similarities."""
    return sum(values) / len(values)


def _pairs(samples: SampleSet, weights: SimilarityWeights,
           provider: EmbeddingProviderConfig) -> list[SimilarityBreakdown]:
    """Breakdowns of all N*(N-1) ordered pairs (i, j), i != j, in row order.

    The analysis reads only a program's source and the set's one language,
    so identical sources are analysed once, at the index where the source
    first appears; a remote provider embeds them all in one request first.
    Each distinct ordered pair of those first indices is compared once, the
    two orders of a pair one right after the other, so the second reuses the
    first's symmetric terms. Copies share that one breakdown, so its ``i``
    and ``j`` are the first indices, not the pair's own.
    """
    n = len(samples)
    if n < 2:
        raise TooFewSamples(f"need at least 2 programs, got {n}")
    first: dict[str, int] = {}
    keys = [first.setdefault(p.source, k) for k, p in enumerate(samples.programs)]
    prefetch(list(first), provider)
    distinct = list(first.values())
    analyses = dict(zip(distinct, _one_set(
        [analyze_program(samples.programs[k], provider) for k in distinct])))
    memo: dict[tuple[int, int], SimilarityBreakdown] = {}
    for x, ki in enumerate(distinct):
        for kj in distinct[x + 1:]:
            memo[ki, kj] = pair_breakdown(ki, kj, analyses[ki], analyses[kj], weights)
            memo[kj, ki] = pair_breakdown(kj, ki, analyses[kj], analyses[ki], weights)
    for k, copies in Counter(keys).items():
        if copies > 1:
            memo[k, k] = pair_breakdown(k, k, analyses[k], analyses[k], weights)
    return [memo[ki, kj] for i, ki in enumerate(keys)
            for j, kj in enumerate(keys) if i != j]


def estimate_confidence(samples: SampleSet, weights: SimilarityWeights,
                        provider: EmbeddingProviderConfig) -> ConfidenceReport:
    """Mean hybrid similarity over all N*(N-1) ordered pairs of programs."""
    pairs = _pairs(samples, weights, provider)
    return ConfidenceReport(
        requirement_id=samples.requirement_id,
        n=len(samples),
        confidence=pairwise_confidence([bd.hybrid for bd in pairs]),
    )


def modality_means(samples: SampleSet,
                   provider: EmbeddingProviderConfig) -> tuple[float, float, float, float]:
    """Per-modality mean over all ordered pairs; the hybrid confidence for any
    weight tuple is just the dot product with these means."""
    pairs = _pairs(samples, SimilarityWeights.uniform(), provider)
    sums = [0.0, 0.0, 0.0, 0.0]
    for bd in pairs:
        sums[0] += bd.text
        sums[1] += bd.syntax
        sums[2] += bd.dataflow
        sums[3] += bd.embedding
    return tuple(s / len(pairs) for s in sums)  # type: ignore[return-value]


def weight_grid(step: float = GRID_STEP) -> list[SimilarityWeights]:
    """All non-negative weight 4-tuples on the simplex, in lexicographic order.

    *step* must divide 1 into a whole number of parts; otherwise ValueError."""
    units = round(1.0 / step) if step > 0 else 0
    if not abs(units * step - 1.0) <= _SUM_TOL:
        raise ValueError(f"grid step {step!r} does not divide 1 into equal parts")
    grid = []
    for a in range(units + 1):
        for b in range(units + 1 - a):
            for c in range(units + 1 - a - b):
                d = units - a - b - c
                grid.append(SimilarityWeights(a * step, b * step, c * step, d * step))
    return grid


def tune_weights_from_modality_means(
        means: Sequence[tuple[float, float, float, float]],
        labels: Sequence[bool],
        step: float = GRID_STEP) -> TuningResult:
    """Exhaustive simplex grid search maximizing training AUROC.

    The rows are split by label once; per grid point each row's score is
    ``m0*a + m1*b + m2*c + m3*d``, added left to right over non-negative
    terms, and ``mann_whitney_auroc`` sorts the failed scores once
    and bisects for each passed one. Its U is an exact half-integer sum, so
    every AUROC equals a rank-sum AUROC. Ties go to the lexicographically
    smallest (alpha, beta, gamma, delta).
    """
    if len(set(labels)) < 2:
        raise DegenerateLabels("training data contains a single class")
    pos = [m for m, label in zip(means, labels) if label]
    neg = [m for m, label in zip(means, labels) if not label]
    best: Optional[SimilarityWeights] = None
    best_auroc = -1.0
    grid = weight_grid(step)
    for w in grid:
        a, b, c, d = w.as_tuple()
        score = mann_whitney_auroc(
            [m0 * a + m1 * b + m2 * c + m3 * d for m0, m1, m2, m3 in pos],
            [m0 * a + m1 * b + m2 * c + m3 * d for m0, m1, m2, m3 in neg])
        if score > best_auroc:
            best, best_auroc = w, score
    return TuningResult(weights=best, train_auroc=best_auroc,
                        grid_points_evaluated=len(grid))


def tune_weights(train: Sequence[tuple[SampleSet, bool]],
                 provider: EmbeddingProviderConfig,
                 step: float = GRID_STEP) -> TuningResult:
    """Tune (alpha, beta, gamma, delta) on labeled sample sets.

    Modality similarities are computed once per sample set and re-mixed for
    every grid point.
    """
    if len({label for _, label in train}) < 2:
        raise DegenerateLabels("training data contains a single class")
    means = [modality_means(s, provider) for s, _ in train]
    labels = [label for _, label in train]
    return tune_weights_from_modality_means(means, labels, step)


def save_weights(result: TuningResult, path: str | Path) -> None:
    payload = {**asdict(result.weights), "train_auroc": result.train_auroc}
    write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def load_weights(path: str | Path) -> SimilarityWeights:
    with _open_text(path) as fh:
        data = json.load(fh)
    return SimilarityWeights(data["alpha"], data["beta"], data["gamma"], data["delta"])
