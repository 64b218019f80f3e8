"""Ranking metrics (AUROC, average-precision AUCPR) and the
correct/erroneous-shown threshold sweep."""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import MissingProgramCounts, NoPositives, SingleClass

SWEEP_POINTS = 100


@dataclass(frozen=True)
class ScoredSample:
    id: str
    score: float
    label: bool  # True = passed
    programs_correct: Optional[int] = None
    programs_total: Optional[int] = None

    def __post_init__(self):
        if (self.programs_correct is not None and self.programs_total is not None
                and self.programs_correct > self.programs_total):
            raise ValueError("programs_correct exceeds programs_total")


@dataclass(frozen=True)
class SweepPoint:
    threshold: float
    shown_correct: int
    shown_erroneous: int


def rank_auroc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Mann-Whitney AUROC over parallel *scores* and *labels* (True = passed);
    passed/failed score ties count 0.5. A NaN score has no rank: ValueError."""
    if any(math.isnan(s) for s in scores):
        raise ValueError("AUROC score is NaN")
    return mann_whitney_auroc([s for s, label in zip(scores, labels) if label],
                              [s for s, label in zip(scores, labels) if not label])


def mann_whitney_auroc(pos: Sequence[float], neg: Sequence[float]) -> float:
    """AUROC of passed scores *pos* against failed scores *neg*: one sort of
    the negatives, then per positive a bisection counts the negatives below it
    and half of those tied with it. U is a sum of half-integers, so it is exact."""
    if not pos or not neg:
        raise SingleClass("AUROC needs both a passed and a failed label")
    neg = sorted(neg)
    u = 0.0
    for s in pos:
        lo = bisect_left(neg, s)
        u += lo + (bisect_right(neg, s, lo) - lo) / 2
    return u / (len(pos) * len(neg))


def auroc(scored: Sequence[ScoredSample]) -> float:
    """``rank_auroc`` over the samples' scores and labels."""
    return rank_auroc([s.score for s in scored], [s.label for s in scored])


def aucpr(scored: Sequence[ScoredSample], mode: str = "average-precision") -> float:
    """Area under the precision-recall curve.

    "average-precision" (default) sums precision at each ranked positive over
    the number of positives; "trapezoid" linearly interpolates the PR points.
    Ties are broken by stable input order, descending score.
    """
    n_pos = sum(1 for s in scored if s.label)
    if n_pos == 0:
        raise NoPositives("AUCPR needs at least one passed label")
    ranked = sorted(scored, key=lambda s: -s.score)  # stable: input order on ties

    if mode == "average-precision":
        tp = 0
        total = 0.0
        for rank, sample in enumerate(ranked, start=1):
            if sample.label:
                tp += 1
                total += tp / rank
        return total / n_pos
    if mode == "trapezoid":
        points = [(0.0, 1.0)]  # (recall, precision)
        tp = 0
        for rank, sample in enumerate(ranked, start=1):
            if sample.label:
                tp += 1
            points.append((tp / n_pos, tp / rank))
        area = 0.0
        for (r0, p0), (r1, p1) in zip(points, points[1:]):
            area += (r1 - r0) * (p0 + p1) / 2
        return area
    raise ValueError(f"unknown PR mode: {mode!r}")


def threshold_sweep(scored: Sequence[ScoredSample]) -> list[SweepPoint]:
    """SWEEP_POINTS equally spaced thresholds over [min score, max score]; at
    each t the samples with score >= t contribute their correct / erroneous
    program counts. The lowest threshold therefore reproduces indiscriminate
    showing.
    """
    if not scored:
        raise ValueError("no scored samples")
    for s in scored:
        if s.programs_correct is None or s.programs_total is None:
            raise MissingProgramCounts(s.id)
    lo = min(s.score for s in scored)
    hi = max(s.score for s in scored)
    step = (hi - lo) / (SWEEP_POINTS - 1)
    sweep = []
    # the last threshold is hi itself: lo + 99 * step can round past it
    for t in [lo + k * step for k in range(SWEEP_POINTS - 1)] + [hi]:
        correct = sum(s.programs_correct for s in scored if s.score >= t)
        erroneous = sum(s.programs_total - s.programs_correct
                        for s in scored if s.score >= t)
        sweep.append(SweepPoint(threshold=t, shown_correct=correct,
                                shown_erroneous=erroneous))
    return sweep

