"""Reference results rebuilt from the package's public per-program and
per-pair functions, to check the outputs of the measured calls.

The loops follow the order of the seed code's ``estimate_confidence``,
``modality_means`` and grid search, so the reference agrees with a correct
program to the last bits; the benchmark still only asks for 1e-12.
"""
from __future__ import annotations

from honest.analysis import DEFAULT_SUBTREE_HEIGHT, extract_dataflow, extract_subtrees, parse_cst
from honest.embeddings import EmbeddingVector, embed
from honest.model import tokenize
from honest.similarity import (
    SimilarityWeights,
    sim_dataflow,
    sim_embed,
    sim_hybrid,
    sim_syntax,
    sim_text,
)

TOLERANCE = 1e-12
GRID_UNITS = 20  # 0.05 steps on the simplex


def _analyses(programs, provider, vectors=None):
    out = []
    for p in programs:
        vector = (embed(p, provider) if vectors is None
                  else EmbeddingVector(tuple(float(v) for v in vectors[p.source])))
        out.append((tokenize(p),
                    extract_subtrees(parse_cst(p), DEFAULT_SUBTREE_HEIGHT),
                    extract_dataflow(p),
                    vector))
    return out


def _pair(a, b):
    return (sim_text(a[0], b[0]), sim_syntax(a[1], b[1]),
            sim_dataflow(a[2], b[2]), sim_embed(a[3], b[3]))


def confidence(programs, weights: SimilarityWeights, provider, vectors=None) -> float:
    """Mean hybrid similarity over all ordered pairs."""
    analyses = _analyses(programs, provider, vectors)
    values = []
    for i, a in enumerate(analyses):
        for j, b in enumerate(analyses):
            if i != j:
                values.append(sim_hybrid(*_pair(a, b), weights))
    return sum(values) / len(values)


def modality_means(programs, provider) -> tuple[float, ...]:
    analyses = _analyses(programs, provider)
    sums = [0.0, 0.0, 0.0, 0.0]
    count = 0
    for i, a in enumerate(analyses):
        for j, b in enumerate(analyses):
            if i != j:
                for m, value in enumerate(_pair(a, b)):
                    sums[m] += value
                count += 1
    return tuple(s / count for s in sums)


def auroc(scores, labels) -> float:
    """Mann-Whitney AUROC with average ranks for ties."""
    ranked = sorted(zip(scores, labels))
    n_pos = sum(1 for label in labels if label)
    n_neg = len(labels) - n_pos
    rank_sum = 0.0
    i = 0
    while i < len(ranked):
        j = i
        while j < len(ranked) and ranked[j][0] == ranked[i][0]:
            j += 1
        rank_sum += (i + 1 + j) / 2 * sum(1 for _, label in ranked[i:j] if label)
        i = j
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def average_precision(scores, labels) -> float:
    order = sorted(range(len(scores)), key=lambda k: -scores[k])
    hits = 0
    total = 0.0
    for rank, k in enumerate(order, start=1):
        if labels[k]:
            hits += 1
            total += hits / rank
    return total / hits


def tune(means, labels) -> tuple[tuple[float, float, float, float], float]:
    """Exhaustive 0.05 simplex grid by AUROC; ties keep the earliest point."""
    step = 1.0 / GRID_UNITS
    best, best_auroc = None, -1.0
    for a in range(GRID_UNITS + 1):
        for b in range(GRID_UNITS + 1 - a):
            for c in range(GRID_UNITS + 1 - a - b):
                w = (a * step, b * step, c * step, (GRID_UNITS - a - b - c) * step)
                scores = [sum(m * x for m, x in zip(mean, w)) for mean in means]
                score = auroc(scores, labels)
                if score > best_auroc:
                    best, best_auroc = w, score
    return best, best_auroc


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE
