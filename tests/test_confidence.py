import ast
import json
import random

import pytest
from corpus import JAVA_CORPUS, PYTHON_CORPUS
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pygments.lexers import JavaLexer
from pygments.token import Comment, Keyword, Name, Number, Operator, Punctuation, String

from honest import confidence, model
from honest.analysis import _java_tokens, extract_dataflow, extract_subtrees, parse_cst
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
from honest.errors import DegenerateLabels, HonestError, TooFewSamples
from honest.embeddings import embed
from honest.evaluation import ScoredSample, auroc
from honest.model import Language, Program, SampleSet, lex, tokenize
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

    @given(st.data(), st.sampled_from([0.25, 0.1, 0.05]))
    @settings(max_examples=40, deadline=None)
    def test_equals_per_point_loop(self, data, step):
        # few distinct values and repeated rows force tied scores and tied
        # AUROCs across grid points; single-class labels must still raise
        rows = data.draw(st.lists(st.tuples(*[st.sampled_from([0.0, 0.25, 0.5, 1.0,
                                                               0.3, 0.7])] * 4),
                                  min_size=1, max_size=6))
        means = data.draw(st.lists(st.sampled_from(rows), min_size=2, max_size=24))
        labels = data.draw(st.lists(st.booleans(), min_size=len(means),
                                    max_size=len(means)))
        if len(set(labels)) < 2:
            with pytest.raises(DegenerateLabels):
                tune_weights_from_modality_means(means, labels, step)
            return
        best, best_auroc = None, -1.0
        for w in weight_grid(step):
            scores = [sum(m * x for m, x in zip(mean, w.as_tuple())) for mean in means]
            pos = [s for s, label in zip(scores, labels) if label]
            neg = [s for s, label in zip(scores, labels) if not label]
            wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
            if wins / (len(pos) * len(neg)) > best_auroc:
                best, best_auroc = w, wins / (len(pos) * len(neg))
        result = tune_weights_from_modality_means(means, labels, step)
        assert (result.weights, result.train_auroc) == (best, best_auroc)

    def test_weights_round_trip(self, tmp_path):
        from honest.confidence import TuningResult
        result = TuningResult(SimilarityWeights(0.1, 0.2, 0.3, 0.4), 0.875, 1771)
        path = tmp_path / "weights.json"
        save_weights(result, path)
        data = json.loads(path.read_text())
        assert data["train_auroc"] == 0.875
        assert load_weights(path) == SimilarityWeights(0.1, 0.2, 0.3, 0.4)


class TestAnalyzeProgram:
    def test_lexes_once(self, local_provider, monkeypatch):
        """One Pygments pass per program feeds the tokens, the tree, the
        dataflow and the embedding. The lexer class is patched, so a second
        lexer instance anywhere in the package would count too."""
        for language, source in ((Language.PYTHON, PYTHON_CORPUS[4]),
                                 (Language.JAVA, JAVA_CORPUS[1])):
            calls = []
            lexer_class = type(model._LEXERS[language])
            real = lexer_class.get_tokens

            def counted(self, text, *args, real=real, calls=calls):
                calls.append(text)
                return real(self, text, *args)

            monkeypatch.setattr(lexer_class, "get_tokens", counted)
            analyze_program(Program(source, language), local_provider)
            assert calls == [source], language

    def test_parses_clean_python_once(self, local_provider, monkeypatch):
        calls = []
        real = ast.parse

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ast, "parse", counted)
        analyze_program(py(PYTHON_CORPUS[5]), local_provider)
        assert len(calls) == 1

    @pytest.mark.parametrize("program", [
        py(PYTHON_CORPUS[6]),
        py("def f(x):\n    y = x +\n    return y\nz = f(1)\n"),
        Program(JAVA_CORPUS[2], Language.JAVA),
        Program("class A { int f(int x) { int y = (x + 1; return y; }", Language.JAVA),
    ], ids=["python", "python-damaged", "java", "java-damaged"])
    def test_equals_the_public_functions(self, program, local_provider):
        analysis = analyze_program(program, local_provider)
        assert analysis.embedding == embed(program, local_provider)
        assert analysis.subtree_bag == extract_subtrees(parse_cst(program))
        assert analysis.dataflow == extract_dataflow(program)


_SEED_JAVA_LEXER = JavaLexer(stripnl=False)


def seed_java_tokens(source):
    """``analysis._java_tokens`` as first written, when it lexed the source
    a second time with its own JavaLexer."""
    out = []
    for tok, text in _SEED_JAVA_LEXER.get_tokens(source):
        if tok in Comment or text.strip() == "":
            continue
        if tok in String:
            out.append(("string_literal", text))
        elif tok in Number:
            out.append(("number_literal", text))
        elif tok in Keyword:
            out.append(("kw_" + text.strip(), text.strip()))
        elif tok in Name:
            out.append(("identifier", text.strip()))
        elif tok in Operator:
            out.append(("op_" + text.strip(), text.strip()))
        elif tok in Punctuation:
            out.append((text.strip(), text.strip()))
        else:
            out.append(("token", text.strip()))
    return out


_CODE_PIECES = ["def f(x):", "class A {", "int f() {", "{", "}", "(", ")", "[", "]",
                ";", ":", ",", "=", "+=", "==", ">>>=", "if", "else", "for", "return",
                "x", "y", "1", "2.5e3", '"s"', "'", '"', "#", "//", "/*", "*/", "\\",
                "@", "\n", "    ", "\t"]

# arbitrary text, lone surrogates included, and code-like text
program_text = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=300),
    st.lists(st.sampled_from(_CODE_PIECES), max_size=80).map(lambda p: "".join(p)[:300]))


@given(source=program_text, language=st.sampled_from(list(Language)))
@example(source="x = '\ud800'", language=Language.PYTHON)
@example(source="String s = \"\ud800\";", language=Language.JAVA)
@settings(max_examples=300, deadline=None)
def test_analysis_is_total_and_reads_one_lexing(source, language, local_provider):
    """Any text in either language ends in an analysis or a typed error, and
    the one-lexing analysis equals the public functions, each lexing anew."""
    program = Program(source, language)
    try:
        analysis = analyze_program(program, local_provider)
    except HonestError:
        return
    assert analysis.tokens == tokenize(program)
    assert analysis.subtree_bag == extract_subtrees(parse_cst(program))
    assert analysis.dataflow == extract_dataflow(program)
    assert analysis.embedding == embed(program, local_provider)
    assert _java_tokens(lex(Program(source, Language.JAVA))) == seed_java_tokens(source)


class TestModalityMeans:
    def test_dot_product_equals_confidence(self, local_provider):
        ss = sample_set(PYTHON_CORPUS[:4])
        means = modality_means(ss, local_provider)
        for weights in (SimilarityWeights.uniform(),
                        SimilarityWeights(0.5, 0.3, 0.1, 0.1)):
            report = estimate_confidence(ss, weights, local_provider)
            mixed = sum(m * w for m, w in zip(means, weights.as_tuple()))
            assert report.confidence == pytest.approx(mixed, abs=1e-9)


def seed_pairs(samples, weights, provider):
    """The pair stage as first written: every program analysed and every
    ordered pair compared, copies included."""
    analyses = [analyze_program(p, provider) for p in samples.programs]
    n = len(samples)
    return [pair_breakdown(i, j, analyses[i], analyses[j], weights)
            for i in range(n) for j in range(n) if i != j]


def seed_modality_means(samples, provider):
    pairs = seed_pairs(samples, SimilarityWeights.uniform(), provider)
    sums = [0.0, 0.0, 0.0, 0.0]
    for bd in pairs:
        sums[0] += bd.text
        sums[1] += bd.syntax
        sums[2] += bd.dataflow
        sums[3] += bd.embedding
    return tuple(s / len(pairs) for s in sums)


def _repeated_sets():
    """Sets of four programs in each language whose sources repeat 0%, 50%
    and 100%: all distinct, two distinct ones twice each (interleaved), and
    one source four times."""
    out = []
    for language, corpus in ((Language.PYTHON, PYTHON_CORPUS),
                             (Language.JAVA, JAVA_CORPUS)):
        a, b, c, d = corpus[:4]
        for name, sources in (("0%", [a, b, c, d]), ("50%", [a, b, a, b]),
                              ("100%", [a, a, a, a])):
            programs = tuple(Program(s, language) for s in sources)
            out.append(pytest.param(SampleSet("req-1", "a requirement", programs),
                                    id=f"{language.value}-{name}"))
    return out


class TestDistinctPrograms:
    """Identical samples are analysed once and each distinct ordered pair of
    sources is compared once; every score equals the all-pairs loop's."""

    @pytest.mark.parametrize("samples", _repeated_sets())
    def test_analyses_each_distinct_source_once(self, samples, local_provider,
                                                monkeypatch):
        seen = []
        real = confidence.analyze_program

        def counted(program, provider, *args):
            seen.append(program.source)
            return real(program, provider, *args)

        monkeypatch.setattr(confidence, "analyze_program", counted)
        estimate_confidence(samples, SimilarityWeights.uniform(), local_provider)
        sources = [p.source for p in samples.programs]
        assert sorted(seen) == sorted(set(sources))

    @pytest.mark.parametrize("samples", _repeated_sets())
    def test_compares_each_distinct_ordered_pair_once(self, samples, local_provider,
                                                      monkeypatch):
        keys = []
        real = confidence.pair_breakdown

        def counted(i, j, a_i, a_j, weights):
            keys.append((i, j))
            return real(i, j, a_i, a_j, weights)

        monkeypatch.setattr(confidence, "pair_breakdown", counted)
        modality_means(samples, local_provider)
        sources = [p.source for p in samples.programs]
        first = [sources.index(s) for s in sources]
        n = len(sources)
        want = {(first[i], first[j]) for i in range(n) for j in range(n) if i != j}
        assert len(keys) == len(set(keys))
        assert set(keys) == want

    @pytest.mark.parametrize("samples", _repeated_sets())
    def test_scores_equal_all_pairs_loop(self, samples, local_provider):
        for weights in (SimilarityWeights.uniform(),
                        SimilarityWeights(0.4, 0.3, 0.2, 0.1)):
            want = pairwise_confidence(
                [bd.hybrid for bd in seed_pairs(samples, weights, local_provider)])
            report = estimate_confidence(samples, weights, local_provider)
            assert report.confidence == want
        assert modality_means(samples, local_provider) == seed_modality_means(
            samples, local_provider)
