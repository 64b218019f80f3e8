import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honest.errors import MissingProgramCounts, NoPositives, SingleClass
from honest.evaluation import ScoredSample, aucpr, auroc, rank_auroc, threshold_sweep


def scored(pairs, counts=None):
    """Build samples from (score, label) pairs, optionally with program counts."""
    out = []
    for i, (score, label) in enumerate(pairs):
        correct, total = counts[i] if counts else (None, None)
        out.append(ScoredSample(id=f"s{i}", score=score, label=label,
                                programs_correct=correct, programs_total=total))
    return out


def pairwise_auroc(samples):
    """Independent oracle: P(pos > neg) + 0.5 * P(pos == neg) by enumeration."""
    pos = [s.score for s in samples if s.label]
    neg = [s.score for s in samples if not s.label]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def average_rank_auroc(scores, labels):
    """The average-rank Mann-Whitney AUROC: sort all scores, give each tie
    group its mean 1-based rank, and sum the positives' ranks."""
    pos = [s for s, label in zip(scores, labels) if label]
    neg = [s for s, label in zip(scores, labels) if not label]
    ranked = sorted([(s, 1) for s in pos] + [(s, 0) for s in neg])
    rank_sum_pos = 0.0
    i = 0
    while i < len(ranked):
        j = i
        while j < len(ranked) and ranked[j][0] == ranked[i][0]:
            j += 1
        rank_sum_pos += (i + 1 + j) / 2 * sum(is_pos for _, is_pos in ranked[i:j])
        i = j
    u = rank_sum_pos - len(pos) * (len(pos) + 1) / 2
    return u / (len(pos) * len(neg))


def prefix_cut_aucpr(samples):
    """Independent oracle: precision at every ranked positive under the same
    stable descending-score order, averaged over positives."""
    ranked = sorted(samples, key=lambda s: -s.score)
    n_pos = sum(1 for s in ranked if s.label)
    tp, total = 0, 0.0
    for rank, s in enumerate(ranked, start=1):
        if s.label:
            tp += 1
            total += tp / rank
    return total / n_pos


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(scored([(0.9, True), (0.8, True), (0.2, False)])) == 1.0

    def test_perfectly_inverted(self):
        assert auroc(scored([(0.1, True), (0.9, False)])) == 0.0

    def test_all_tied_is_half(self):
        assert auroc(scored([(0.5, True), (0.5, False), (0.5, True)])) == 0.5

    def test_quarter_example(self):
        # one of four pos/neg comparisons favors the positive
        samples = scored([(0.3, True), (0.6, True), (0.5, False), (0.7, False)])
        assert auroc(samples) == pytest.approx(pairwise_auroc(samples))
        assert auroc(samples) == 0.25

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            auroc(scored([(0.5, True), (0.6, True)]))

    def test_matches_pairwise_oracle_randomized(self):
        rng = random.Random(20240818)
        for _ in range(100):
            n = rng.randint(2, 40)
            samples = scored([(rng.choice([0.1, 0.25, 0.5, 0.5, 0.9, rng.random()]),
                               rng.random() < 0.5) for _ in range(n)])
            labels = {s.label for s in samples}
            if len(labels) < 2:
                continue
            assert auroc(samples) == pytest.approx(pairwise_auroc(samples),
                                                   abs=1e-12)

    def test_label_reversal_complements(self):
        rng = random.Random(7)
        samples = scored([(rng.random(), rng.random() < 0.5) for _ in range(30)])
        samples[0] = ScoredSample(id="s0", score=0.5, label=True)
        samples[1] = ScoredSample(id="s1", score=0.4, label=False)
        flipped = [ScoredSample(id=s.id, score=s.score, label=not s.label)
                   for s in samples]
        assert auroc(samples) + auroc(flipped) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(11)
        samples = scored([(rng.random(), i % 3 == 0) for i in range(20)])
        squashed = [ScoredSample(id=s.id, score=math.tanh(3 * s.score), label=s.label)
                    for s in samples]
        assert auroc(samples) == pytest.approx(auroc(squashed), abs=1e-12)


    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_average_rank_loop(self, data):
        # a small pool with repeats, signed zeros and ints forces tie groups
        pool = data.draw(st.lists(st.sampled_from([0.0, -0.0, 0, 1, 0.5, 0.25, 1e-300])
                                  | st.floats(-2, 2), min_size=1, max_size=5))
        scores = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=80))
        labels = data.draw(st.lists(st.booleans(), min_size=len(scores),
                                    max_size=len(scores)))
        labels[0], labels[1] = True, False
        assert rank_auroc(scores, labels) == average_rank_auroc(scores, labels)

    @pytest.mark.parametrize("nan_at", [0, 1, 2])
    def test_nan_score_raises(self, nan_at):
        scores = [0.2, 0.7, 0.5]
        scores[nan_at] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            rank_auroc(scores, [True, False, True])


class TestAucpr:
    def test_perfect_ranking(self):
        assert aucpr(scored([(0.9, True), (0.5, False), (0.1, False)])) == 1.0

    def test_worked_example(self):
        # ranks: pos@1, neg@2, pos@3 -> (1/1 + 2/3) / 2
        samples = scored([(0.9, True), (0.7, False), (0.5, True)])
        assert aucpr(samples) == pytest.approx(5 / 6, abs=1e-12)

    def test_matches_prefix_cut_oracle_randomized(self):
        rng = random.Random(20240819)
        for _ in range(100):
            n = rng.randint(1, 40)
            samples = scored([(rng.choice([0.2, 0.5, 0.5, 0.8, rng.random()]),
                               rng.random() < 0.4) for _ in range(n)])
            if not any(s.label for s in samples):
                continue
            assert aucpr(samples) == pytest.approx(prefix_cut_aucpr(samples),
                                                   abs=1e-9)

    def test_ties_broken_by_stable_input_order(self):
        first = scored([(0.5, True), (0.5, False)])
        second = scored([(0.5, False), (0.5, True)])
        assert aucpr(first) == 1.0
        assert aucpr(second) == 0.5

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            aucpr(scored([(0.5, False)]))

    def test_trapezoid_mode_perfect_ranking(self):
        samples = scored([(0.9, True), (0.1, False)])
        assert aucpr(samples, mode="trapezoid") == pytest.approx(1.0)

    def test_trapezoid_close_to_average_precision(self):
        rng = random.Random(3)
        samples = scored([(rng.random(), rng.random() < 0.5) for _ in range(50)])
        ap = aucpr(samples)
        trap = aucpr(samples, mode="trapezoid")
        assert abs(ap - trap) < 0.1

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            aucpr(scored([(0.5, True)]), mode="step")


class TestThresholdSweep:
    def sample_data(self):
        pairs = [(0.9, True), (0.6, True), (0.4, False), (0.1, False)]
        counts = [(18, 20), (15, 20), (5, 20), (1, 20)]
        return scored(pairs, counts)

    def test_point_count_and_bounds(self):
        sweep = threshold_sweep(self.sample_data())
        assert len(sweep) == 100
        assert sweep[0].threshold == pytest.approx(0.1)
        assert sweep[-1].threshold == pytest.approx(0.9)

    def test_more_correct_than_total_programs_rejected(self):
        with pytest.raises(ValueError):
            ScoredSample(id="s", score=0.5, label=True, programs_correct=3, programs_total=2)

    def test_lowest_threshold_is_indiscriminate(self):
        sweep = threshold_sweep(self.sample_data())
        assert sweep[0].shown_correct == 18 + 15 + 5 + 1
        assert sweep[0].shown_erroneous == 2 + 5 + 15 + 19

    def test_highest_threshold_keeps_top_scorer(self):
        sweep = threshold_sweep(self.sample_data())
        assert sweep[-1].shown_correct == 18
        assert sweep[-1].shown_erroneous == 2
        # 0.22 + 99 * (0.2 / 99) rounds to 0.42000000000000004, past the top score
        sweep = threshold_sweep(scored([(0.22, False), (0.42, True)], [(1, 4), (3, 4)]))
        assert sweep[-1].threshold == 0.42
        assert (sweep[-1].shown_correct, sweep[-1].shown_erroneous) == (3, 1)

    def test_counts_monotone_in_threshold(self):
        sweep = threshold_sweep(self.sample_data())
        for a, b in zip(sweep, sweep[1:]):
            assert b.shown_correct <= a.shown_correct
            assert b.shown_erroneous <= a.shown_erroneous

    def test_missing_counts(self):
        with pytest.raises(MissingProgramCounts):
            threshold_sweep(scored([(0.5, True), (0.6, False)]))

    def test_empty_input(self):
        with pytest.raises(ValueError):
            threshold_sweep([])

