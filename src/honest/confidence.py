"""Confidence estimation: mean hybrid similarity over all ordered pairs,
plus exhaustive-grid weight tuning on labeled training data."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .analysis import _cst_and_dataflow, extract_subtrees
from .embeddings import EmbeddingProviderConfig, _embed
from .errors import DegenerateLabels, TooFewSamples
from .evaluation import rank_auroc
from .model import Program, SampleSet, lex, token_sequence
from .similarity import (
    SimilarityBreakdown,
    SimilarityWeights,
    sim_dataflow,
    sim_embed,
    sim_hybrid,
    sim_syntax,
    sim_text,
)

GRID_STEP = 0.05


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


@dataclass(frozen=True)
class ProgramAnalysis:
    """Everything the pairwise similarities need, computed once per program."""

    tokens: object
    subtree_bag: object
    dataflow: object
    embedding: object


def analyze_program(program: Program, provider: EmbeddingProviderConfig) -> ProgramAnalysis:
    """Tokens, subtree bag, dataflow and embedding from one lexing."""
    lexed = lex(program)
    tokens = token_sequence(lexed)
    tree, dataflow = _cst_and_dataflow(program, lexed)
    return ProgramAnalysis(
        tokens=tokens,
        subtree_bag=extract_subtrees(tree),
        dataflow=dataflow,
        embedding=_embed(program.source, tokens.tokens, provider),
    )


def pair_breakdown(i: int, j: int, a_i: ProgramAnalysis, a_j: ProgramAnalysis,
                   weights: SimilarityWeights) -> SimilarityBreakdown:
    text = sim_text(a_i.tokens, a_j.tokens)
    syntax = sim_syntax(a_i.subtree_bag, a_j.subtree_bag)
    dataflow = sim_dataflow(a_i.dataflow, a_j.dataflow)
    embedding = sim_embed(a_i.embedding, a_j.embedding)
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
    first appears, and each distinct ordered pair of those first indices is
    compared once. Copies share that one breakdown, so its ``i`` and ``j``
    are the first indices, not the pair's own.
    """
    n = len(samples)
    if n < 2:
        raise TooFewSamples(f"need at least 2 programs, got {n}")
    first: dict[str, int] = {}
    keys = [first.setdefault(p.source, k) for k, p in enumerate(samples.programs)]
    analyses = {k: analyze_program(samples.programs[k], provider)
                for k in first.values()}
    memo: dict[tuple[int, int], SimilarityBreakdown] = {}
    pairs = []
    for i, ki in enumerate(keys):
        for j, kj in enumerate(keys):
            if i == j:
                continue
            bd = memo.get((ki, kj))
            if bd is None:
                bd = memo[ki, kj] = pair_breakdown(ki, kj, analyses[ki], analyses[kj],
                                                   weights)
            pairs.append(bd)
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


def weight_grid(step: float = GRID_STEP) -> list[SimilarityWeights]:
    """All non-negative weight 4-tuples on the simplex, in lexicographic order."""
    units = round(1.0 / step)
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

    Ties go to the lexicographically smallest (alpha, beta, gamma, delta).
    """
    if len(set(labels)) < 2:
        raise DegenerateLabels("training data contains a single class")
    best: Optional[SimilarityWeights] = None
    best_auroc = -1.0
    grid = weight_grid(step)
    for w in grid:
        wt = w.as_tuple()
        score = rank_auroc([sum(m * x for m, x in zip(mean, wt)) for mean in means],
                           labels)
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
    w = result.weights
    payload = {"alpha": w.alpha, "beta": w.beta, "gamma": w.gamma,
               "delta": w.delta, "train_auroc": result.train_auroc}
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_weights(path: str | Path) -> SimilarityWeights:
    data = json.loads(Path(path).read_text())
    return SimilarityWeights(data["alpha"], data["beta"], data["gamma"], data["delta"])
