"""Confidence estimation: mean hybrid similarity over all ordered pairs,
plus exhaustive-grid weight tuning on labeled training data."""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .analysis import Bag, _fingerprints, _walk_and_dataflow
from .dataset import _open_text, write_text
from .embeddings import EmbeddingProviderConfig, EmbeddingVector, _embed, prefetch
from .errors import DegenerateLabels, TooFewSamples
from .evaluation import mann_whitney_auroc
from .model import Language, Program, SampleSet, TokenSequence, lex, token_sequence, tokenize
from .similarity import (
    SimilarityBreakdown,
    SimilarityWeights,
    clipped_ratio,
    level_masks,
    masked_overlap,
    sim_embed,
    sim_hybrid,
    text_ratio,
)

GRID_UNITS = 20  # the weight grid splits 1 into 20 steps of 0.05
GRID_STEP = 1 / GRID_UNITS


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
    subtree_bag: Bag
    dataflow: Bag
    embedding: EmbeddingVector
    in_set: Optional[tuple[_PairTable, int]] = None


def analyze_program(program: Program, provider: EmbeddingProviderConfig) -> ProgramAnalysis:
    """Tokens, subtree bag, dataflow and embedding from at most one Pygments
    pass: Java's stream feeds its tokens and parse, and Python's walk and
    dataflow come from the source, so only its tokens may need Pygments."""
    lexed = lex(program) if program.language is Language.JAVA else None
    tokens = tokenize(program) if lexed is None else token_sequence(lexed)
    walk, dataflow = _walk_and_dataflow(program, lexed)
    return ProgramAnalysis(
        tokens=tokens,
        subtree_bag=_fingerprints(walk),
        dataflow=dataflow,
        embedding=_embed(program.source, lambda: tokens, provider),
    )


def _multisets(a: ProgramAnalysis) -> tuple[Counter, ...]:
    """The six clipped multisets of a program: its n-gram counts of orders
    1-4, its subtree bag and its def-use edges."""
    return (*a.tokens.ngrams, a.subtree_bag.counts, a.dataflow.counts)


class _PairTable:
    """The symmetric terms of each unordered pair of one set's distinct
    programs, the overlaps of their six multisets and their cosine, computed
    once and kept for the pair's other order. The overlaps come from level
    masks, built on the first pair for all of the set's programs at once, one
    ``level_masks`` call per multiset."""

    def __init__(self, analyses: Sequence[ProgramAnalysis]):
        self.analyses = analyses
        self.masks: Optional[list[tuple]] = None
        self.terms: dict[tuple[int, int], tuple] = {}

    def pair(self, p: int, q: int) -> tuple:
        p, q = (p, q) if p <= q else (q, p)
        terms = self.terms.get((p, q))
        if terms is None:
            if self.masks is None:
                self.masks = list(zip(*map(level_masks, zip(*map(_multisets, self.analyses)))))
            terms = self.terms[p, q] = (
                *map(masked_overlap, self.masks[p], self.masks[q]),
                sim_embed(self.analyses[p].embedding, self.analyses[q].embedding))
        return terms


def _one_set(analyses: Sequence[ProgramAnalysis]) -> list[ProgramAnalysis]:
    """The analyses of one set's distinct programs, each holding the set's
    pair table and its index in it. The table holds the analyses as given,
    not these, so the set's objects form no reference cycle."""
    table = _PairTable(analyses)
    return [replace(a, in_set=(table, x)) for x, a in enumerate(analyses)]


def _symmetric_terms(a_i: ProgramAnalysis, a_j: ProgramAnalysis) -> tuple:
    """The six overlaps and the cosine of a pair: the same for both orders, so
    within one set a pair computes them once. Analyses from no set, or from
    two, compute them afresh in a table of their own."""
    if a_i.in_set and a_j.in_set and a_i.in_set[0] is a_j.in_set[0]:
        return a_i.in_set[0].pair(a_i.in_set[1], a_j.in_set[1])
    return _PairTable([a_i, a_j]).pair(0, 1)


def pair_breakdown(i: int, j: int, a_i: ProgramAnalysis, a_j: ProgramAnalysis,
                   weights: SimilarityWeights) -> SimilarityBreakdown:
    """The four similarities of program i to program j, and their hybrid."""
    *ngrams, subtrees, edges, embedding = _symmetric_terms(a_i, a_j)
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
    One walk over the rows maps each pair to the first indices of its two
    sources. The first pair to reach an ordered pair of first indices calls
    ``pair_breakdown`` for it; later copies reuse that breakdown, so its
    ``i`` and ``j`` are the first indices, not the pair's own. The two orders
    of a pair share their symmetric terms through the set's pair table.
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
    pairs = []
    for i, ki in enumerate(keys):
        for j, kj in enumerate(keys):
            if i != j:
                if (ki, kj) not in memo:
                    memo[ki, kj] = pair_breakdown(ki, kj, analyses[ki], analyses[kj], weights)
                pairs.append(memo[ki, kj])
    return pairs


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


def weight_grid() -> list[SimilarityWeights]:
    """Every split of ``GRID_UNITS`` whole steps of ``GRID_STEP`` among the
    four weights, the paper's 1,771 points of the simplex, in lexicographic
    order."""
    grid = []
    for a in range(GRID_UNITS + 1):
        for b in range(GRID_UNITS + 1 - a):
            for c in range(GRID_UNITS + 1 - a - b):
                d = GRID_UNITS - a - b - c
                grid.append(SimilarityWeights(a * GRID_STEP, b * GRID_STEP,
                                              c * GRID_STEP, d * GRID_STEP))
    return grid


def tune_weights_from_modality_means(
        means: Sequence[tuple[float, float, float, float]],
        labels: Sequence[bool]) -> TuningResult:
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
    grid = weight_grid()
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
                 provider: EmbeddingProviderConfig) -> TuningResult:
    """Tune (alpha, beta, gamma, delta) on labeled sample sets.

    Modality similarities are computed once per sample set and re-mixed for
    every grid point.
    """
    means = [modality_means(s, provider) for s, _ in train]
    labels = [label for _, label in train]
    return tune_weights_from_modality_means(means, labels)


def save_weights(result: TuningResult, path: str | Path) -> None:
    payload = {**asdict(result.weights), "train_auroc": result.train_auroc}
    write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def load_weights(path: str | Path) -> SimilarityWeights:
    with _open_text(path) as fh:
        data = json.load(fh)
    values = [data[name] for name in ("alpha", "beta", "gamma", "delta")]
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise ValueError(f"weights must be JSON numbers, got {values}")
    return SimilarityWeights(*values)
