import json
import random

import pytest
from corpus import JAVA_CORPUS, PYTHON_CORPUS

from honest.confidence import (
    estimate_confidence,
    load_weights,
    modality_means,
    pair_breakdown,
    pairwise_confidence,
    save_weights,
    tune_weights,
    tune_weights_from_modality_means,
    weight_grid,
    analyze_program,
)
from honest.errors import DegenerateLabels, TooFewSamples
from honest.model import Language, Program, SampleSet
from honest.similarity import SimilarityWeights, sim_dataflow, sim_embed, sim_syntax, sim_text


def py(source):
    return Program(source, Language.PYTHON)


def sample_set(sources, rid="req-1"):
    return SampleSet(rid, "a requirement", tuple(py(s) for s in sources))


class TestEstimateConfidence:
    def test_identical_programs_confidence_one(self, local_provider):
        ss = sample_set([PYTHON_CORPUS[0]] * 5)
        report = estimate_confidence(ss, SimilarityWeights.uniform(), local_provider)
        assert report.confidence == pytest.approx(1.0, abs=1e-9)
        assert report.n == 5

    def test_too_few_samples(self, local_provider):
        with pytest.raises(TooFewSamples):
            estimate_confidence(sample_set([PYTHON_CORPUS[0]]),
                                SimilarityWeights.uniform(), local_provider)

    def test_stubbed_two_sample_mean(self):
        # mean over the two ordered pairs
        assert pairwise_confidence([0.7, 0.5]) == pytest.approx(0.6, abs=1e-12)

    def test_three_program_enumeration_oracle(self, local_provider):
        # independently enumerate all 6 ordered-pair hybrids
        sources = PYTHON_CORPUS[:3]
        weights = SimilarityWeights.uniform()
        analyses = [analyze_program(py(s), local_provider) for s in sources]
        expected = []
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                text = sim_text(analyses[i].tokens, analyses[j].tokens)
                syntax = sim_syntax(analyses[i].subtree_bag, analyses[j].subtree_bag)
                dataflow = sim_dataflow(analyses[i].dataflow, analyses[j].dataflow)
                embedding = sim_embed(analyses[i].embedding, analyses[j].embedding)
                expected.append(0.25 * (text + syntax + dataflow + embedding))
        report = estimate_confidence(sample_set(sources), weights, local_provider)
        assert report.confidence == pytest.approx(sum(expected) / 6, abs=1e-9)

    def test_permutation_invariance(self, local_provider):
        sources = PYTHON_CORPUS[:5]
        weights = SimilarityWeights.uniform()
        base = estimate_confidence(sample_set(sources), weights, local_provider)
        shuffled = list(sources)
        random.Random(7).shuffle(shuffled)
        permuted = estimate_confidence(sample_set(shuffled), weights, local_provider)
        assert permuted.confidence == pytest.approx(base.confidence, abs=1e-9)

    @pytest.mark.parametrize("language,corpus", [(Language.PYTHON, PYTHON_CORPUS),
                                                 (Language.JAVA, JAVA_CORPUS)],
                             ids=["python", "java"])
    def test_confidence_is_modality_means_dot_weights(self, language, corpus,
                                                       local_provider):
        ss = SampleSet("req-1", "a requirement",
                       tuple(Program(s, language) for s in corpus[:4]))
        weights = SimilarityWeights(0.4, 0.3, 0.2, 0.1)
        means = modality_means(ss, local_provider)
        expected = sum(m * x for m, x in zip(means, weights.as_tuple()))
        report = estimate_confidence(ss, weights, local_provider)
        assert report.confidence == pytest.approx(expected, abs=1e-12)

    def test_pair_breakdown_hybrid_consistent(self, local_provider):
        weights = SimilarityWeights(0.4, 0.3, 0.2, 0.1)
        a = analyze_program(py(PYTHON_CORPUS[0]), local_provider)
        b = analyze_program(py(PYTHON_CORPUS[1]), local_provider)
        bd = pair_breakdown(0, 1, a, b, weights)
        mixed = (0.4 * bd.text + 0.3 * bd.syntax + 0.2 * bd.dataflow
                 + 0.1 * bd.embedding)
        assert bd.hybrid == pytest.approx(mixed, abs=1e-9)


class TestWeightGrid:
    def test_grid_size(self):
        assert len(weight_grid(0.05)) == 1771

    def test_grid_on_simplex(self):
        for w in weight_grid(0.25):
            assert sum(w.as_tuple()) == pytest.approx(1.0, abs=1e-9)

    def test_grid_lexicographic_order(self):
        grid = [w.as_tuple() for w in weight_grid(0.25)]
        assert grid == sorted(grid)


def _separating_means(rng, axis, n_per_class=25):
    """Synthetic modality means: one axis separates, the rest are noise."""
    means, labels = [], []
    for label in (True, False):
        lo, hi = (0.52, 0.56) if label else (0.44, 0.48)
        for _ in range(n_per_class):
            point = [rng.random() for _ in range(4)]
            point[axis] = rng.uniform(lo, hi)
            means.append(tuple(point))
            labels.append(label)
    return means, labels


class TestTuneWeights:
    @pytest.mark.parametrize("axis", [0, 1, 2, 3])
    def test_concentrates_on_separating_modality(self, axis):
        rng = random.Random(1000 + axis)
        means, labels = _separating_means(rng, axis)
        result = tune_weights_from_modality_means(means, labels)
        assert result.weights.as_tuple()[axis] >= 0.9
        assert result.train_auroc == pytest.approx(1.0)
        assert result.grid_points_evaluated == 1771

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabels):
            tune_weights_from_modality_means([(0.5,) * 4, (0.6,) * 4], [True, True])

    def test_tie_break_lexicographically_smallest(self):
        # all modalities separate equally: many grid points tie at AUROC 1
        means = [(0.9, 0.9, 0.9, 0.9), (0.1, 0.1, 0.1, 0.1)]
        labels = [True, False]
        result = tune_weights_from_modality_means(means, labels)
        assert result.weights.as_tuple() == (0.0, 0.0, 0.0, 1.0)

    def test_never_below_uniform_point(self):
        rng = random.Random(99)
        means = [tuple(rng.random() for _ in range(4)) for _ in range(30)]
        labels = [rng.random() < 0.5 for _ in range(30)]
        if len(set(labels)) < 2:
            labels[0] = not labels[0]
        from honest.evaluation import ScoredSample, auroc
        uniform_scored = [
            ScoredSample(id=str(i), score=sum(m) / 4, label=label)
            for i, (m, label) in enumerate(zip(means, labels))
        ]
        result = tune_weights_from_modality_means(means, labels)
        assert result.train_auroc >= auroc(uniform_scored)

    def test_tune_from_sample_sets(self, local_provider):
        # consistent sets vs scrambled sets: tuning runs end to end
        consistent = [sample_set([PYTHON_CORPUS[0]] * 3, rid=f"p{i}")
                      for i in range(3)]
        scrambled = [sample_set(PYTHON_CORPUS[i:i + 3], rid=f"f{i}")
                     for i in range(3)]
        train = [(s, True) for s in consistent] + [(s, False) for s in scrambled]
        result = tune_weights(train, local_provider, step=0.25)
        assert result.train_auroc == pytest.approx(1.0)

    def test_tune_requires_both_classes(self, local_provider):
        train = [(sample_set(PYTHON_CORPUS[:2]), True)]
        with pytest.raises(DegenerateLabels):
            tune_weights(train, local_provider)

    def test_weights_round_trip(self, tmp_path):
        from honest.confidence import TuningResult
        result = TuningResult(SimilarityWeights(0.1, 0.2, 0.3, 0.4), 0.875, 1771)
        path = tmp_path / "weights.json"
        save_weights(result, path)
        data = json.loads(path.read_text())
        assert data["train_auroc"] == 0.875
        assert load_weights(path) == SimilarityWeights(0.1, 0.2, 0.3, 0.4)


class TestModalityMeans:
    def test_dot_product_equals_confidence(self, local_provider):
        ss = sample_set(PYTHON_CORPUS[:4])
        means = modality_means(ss, local_provider)
        for weights in (SimilarityWeights.uniform(),
                        SimilarityWeights(0.5, 0.3, 0.1, 0.1)):
            report = estimate_confidence(ss, weights, local_provider)
            mixed = sum(m * w for m, w in zip(means, weights.as_tuple()))
            assert report.confidence == pytest.approx(mixed, abs=1e-9)
