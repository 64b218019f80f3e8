import ast
import itertools
import json
import random
import sys
import threading
import time
from collections import Counter

import pytest
from corpus import JAVA_CORPUS, PYTHON_CORPUS
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pygments.lexers import JavaLexer, PythonLexer
from pygments.token import Comment, Keyword, Name, Number, Operator, Punctuation, String

from honest import confidence, similarity
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
from honest.errors import DegenerateEmbedding, DegenerateLabels, HonestError, TooFewSamples
from honest.embeddings import EmbeddingProviderConfig, ProviderKind, embed
from honest.evaluation import ScoredSample, auroc, rank_auroc
from honest.model import Language, Program, SampleSet, lex, tokenize
from honest.similarity import (SimilarityWeights, sim_dataflow, sim_embed, sim_hybrid,
                               sim_syntax, sim_text)


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
        assert len(weight_grid()) == 1771

    def test_grid_on_simplex(self):
        for w in weight_grid():
            assert sum(w.as_tuple()) == pytest.approx(1.0, abs=1e-9)

    def test_grid_lexicographic_order(self):
        grid = [w.as_tuple() for w in weight_grid()]
        assert grid == sorted(grid)

    @pytest.mark.parametrize("step, units", [(0.05, 20), (0.1, 10), (0.25, 4)])
    def test_grid_is_every_whole_split(self, step, units):
        # the grid is every whole split of 20 steps of 0.05, and its points
        # on a coarser lattice are that lattice's whole splits, float for
        # float, so tuning on it never scores below a 0.1 or 0.25 grid
        splits = sorted(parts for parts in itertools.product(range(units + 1), repeat=4)
                        if sum(parts) == units)
        ratio = 20 // units
        on_lattice = [w.as_tuple() for w in weight_grid()
                      if all(round(x / 0.05) % ratio == 0 for x in w.as_tuple())]
        assert on_lattice == [tuple(k * step for k in parts) for parts in splits]


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


def left_to_right_dot(mean, weights):
    """The grid's row score, added left to right; from CPython 3.12 on, a
    ``sum`` of floats compensates rounding and can end in another bit."""
    total = 0.0
    for m, x in zip(mean, weights.as_tuple()):
        total += m * x
    return total


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
        result = tune_weights(train, local_provider)
        assert result.train_auroc == pytest.approx(1.0)

    def test_tune_requires_both_classes(self, local_provider):
        train = [(sample_set(PYTHON_CORPUS[:2]), True)]
        with pytest.raises(DegenerateLabels):
            tune_weights(train, local_provider)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_per_point_loop(self, data):
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
                tune_weights_from_modality_means(means, labels)
            return
        best, best_auroc = None, -1.0
        for w in weight_grid():
            scores = [left_to_right_dot(mean, w) for mean in means]
            pos = [s for s, label in zip(scores, labels) if label]
            neg = [s for s, label in zip(scores, labels) if not label]
            wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
            if wins / (len(pos) * len(neg)) > best_auroc:
                best, best_auroc = w, wins / (len(pos) * len(neg))
        result = tune_weights_from_modality_means(means, labels)
        assert (result.weights, result.train_auroc) == (best, best_auroc)

    def test_equals_per_point_loop_on_240_tied_rows(self):
        # 240 rows drawn from 12 two-decimal rows tie many scores within a
        # point and many AUROCs across points, five of them at the maximum,
        # beyond the 24 rows the property draws
        rng = random.Random(240)
        rows = [tuple(round(rng.random(), 2) for _ in range(4)) for _ in range(12)]
        means = [rng.choice(rows) for _ in range(240)]
        labels = [rng.random() < 0.45 for _ in range(240)]
        best, best_auroc = None, -1.0
        for w in weight_grid():
            score = rank_auroc([left_to_right_dot(mean, w) for mean in means], labels)
            if score > best_auroc:
                best, best_auroc = w, score
        result = tune_weights_from_modality_means(means, labels)
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
        """At most one Pygments pass per program: Java's feeds its tokens,
        tree and dataflow, and Python is lexed only when the stdlib tokenizer
        hands its tokens back. The lexer classes are patched, so a second
        lexer instance anywhere in the package would count too."""
        calls = []
        for lexer in (PythonLexer, JavaLexer):
            real = lexer.get_tokens

            def counted(self, text, *args, real=real):
                calls.append(text)
                return real(self, text, *args)

            monkeypatch.setattr(lexer, "get_tokens", counted)
        for language, source, passes in (
                (Language.PYTHON, PYTHON_CORPUS[4], 0),  # the stdlib tokenizer answers
                (Language.PYTHON, 'def f(x):\n    return f"{x}"\n', 1),  # handed back
                (Language.JAVA, JAVA_CORPUS[1], 1)):
            calls.clear()
            analyze_program(Program(source, language), local_provider)
            assert calls == [source] * passes, (language, source)

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
    """Any text in either language ends, within a second, in an analysis or a
    typed error, and the one-lexing analysis equals the public functions, each
    lexing anew."""
    program = Program(source, language)
    start = time.perf_counter()
    try:
        analysis = analyze_program(program, local_provider)
    except HonestError:
        return
    finally:
        # the slowest of 20000 such inputs took under 10 ms on a 2-vCPU VM
        assert time.perf_counter() - start < 1.0
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
    ordered pair compared, copies included. Each pair's overlaps come from
    level masks as in the set's own stage; ``walk_scores`` is the reference
    from the walks."""
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


def walk_scores(samples, provider):
    """The confidences at uniform and 0.4/0.3/0.2/0.1 weights and the modality
    means, as ``float.hex()``, from the ``sim_*`` walks and ``sim_hybrid`` over
    every ordered pair in row order, copies included."""
    analyses = [analyze_program(p, provider) for p in samples.programs]
    n = len(analyses)
    rows = [(sim_text(a.tokens, b.tokens), sim_syntax(a.subtree_bag, b.subtree_bag),
             sim_dataflow(a.dataflow, b.dataflow), sim_embed(a.embedding, b.embedding))
            for i, a in enumerate(analyses) for j, b in enumerate(analyses) if i != j]
    out = []
    for weights in (SimilarityWeights.uniform(), SimilarityWeights(0.4, 0.3, 0.2, 0.1)):
        hybrids = [sim_hybrid(*row, weights) for row in rows]
        out.append((sum(hybrids) / len(hybrids)).hex())
    sums = [0.0, 0.0, 0.0, 0.0]
    for row in rows:
        for m, value in enumerate(row):
            sums[m] += value
    return out + [(total / len(rows)).hex() for total in sums]


def distinct_sources(corpus, n):
    """*n* distinct sources: the corpus's, then its programs again under
    another class name."""
    return [s if k < len(corpus) else s.replace("class ", f"class V{k}", 1)
            for k, s in enumerate(corpus * 3)][:n]


class TestPairStage:
    """Each unordered pair of distinct sources has its symmetric terms (the
    overlaps of its six multisets and the cosine) computed once, from level
    masks built once per set."""

    @pytest.mark.parametrize("language,sources", [
        (Language.PYTHON, PYTHON_CORPUS[:8]), (Language.JAVA, JAVA_CORPUS),
        (Language.PYTHON, PYTHON_CORPUS[:1] * 3), (Language.JAVA, JAVA_CORPUS[:1] * 3)],
        ids=["python", "java", "python-copies", "java-copies"])
    def test_terms_once_per_unordered_pair(self, language, sources, local_provider,
                                           monkeypatch):
        analyses = []
        real_analyze = confidence.analyze_program

        def analyze(program, provider):
            analyses.append(real_analyze(program, provider))
            return analyses[-1]

        calls = []

        def counted(name, real):
            def call(*args):
                calls.append((name, args, real(*args)))
                return calls[-1][2]
            return call

        monkeypatch.setattr(confidence, "analyze_program", analyze)
        monkeypatch.setattr(similarity, "cosine", counted("cosine", similarity.cosine))
        monkeypatch.setattr(confidence, "level_masks", counted("masks", confidence.level_masks))
        monkeypatch.setattr(confidence, "masked_overlap",
                            counted("masked", confidence.masked_overlap))
        samples = SampleSet("req-1", "a requirement",
                            tuple(Program(s, language) for s in sources))
        estimate_confidence(samples, SimilarityWeights.uniform(), local_provider)

        # each unordered pair of distinct programs, and each program with
        # copies paired with itself
        distinct = list(dict.fromkeys(sources))
        n = len(distinct)
        pairs = [(p, q) for p in range(n) for q in range(p, n)
                 if p < q or sources.count(distinct[p]) > 1]

        def six(a):
            return (*a.tokens.ngrams, a.subtree_bag.counts, a.dataflow.counts)

        # each multiset of each analysis is masked once, one level_masks call
        # per multiset, and each pair reads its six overlaps off the masks
        built = [(args[0], masks) for name, args, masks in calls if name == "masks"]
        assert [list(map(id, multisets)) for multisets, _ in built] == [
            [id(six(a)[k]) for a in analyses] for k in range(6)]
        where = {id(mask): (k, p) for k, (_, masks) in enumerate(built)
                 for p, mask in enumerate(masks)}
        seen = Counter()
        for called, args, _ in calls:
            if called == "masked":
                (k, p), (l, q) = map(where.get, map(id, args))
                assert k == l
                seen[k, (min(p, q), max(p, q))] += 1
        assert seen == Counter((k, pair) for k in range(6) for pair in pairs)
        assert Counter(name for name, _, _ in calls) == {
            "masks": 6, "masked": 6 * len(pairs), "cosine": len(pairs)}

    def test_reverse_call_reuses_terms_and_equals_fresh_formulas(self, local_provider,
                                                                 monkeypatch):
        loose = [analyze_program(py(s), local_provider) for s in PYTHON_CORPUS[:2]]
        weights = SimilarityWeights.uniform()
        fresh = []
        real = confidence.masked_overlap

        def counted(x, y):
            fresh.append(1)
            return real(x, y)

        monkeypatch.setattr(confidence, "masked_overlap", counted)
        a, b = confidence._one_set(loose)
        # within one set, the forward call computes its six overlaps, its
        # reverse and a repeat of the pair reuse them, and a different pair
        # computes its own
        computed = []
        for i, j, a_i, a_j in ((0, 1, a, b), (1, 0, b, a), (1, 0, b, a), (0, 1, a, b),
                               (0, 0, a, a)):
            bd = pair_breakdown(i, j, a_i, a_j, weights)
            computed.append(len(fresh))
            assert (bd.text, bd.syntax, bd.dataflow, bd.embedding) == (
                sim_text(a_i.tokens, a_j.tokens),
                sim_syntax(a_i.subtree_bag, a_j.subtree_bag),
                sim_dataflow(a_i.dataflow, a_j.dataflow),
                sim_embed(a_i.embedding, a_j.embedding))
        assert computed == [6, 6, 6, 6, 12]
        # analyses from no set compute the pair's six overlaps on every call
        fresh.clear()
        for _ in range(2):
            pair_breakdown(0, 1, *loose, weights)
        assert len(fresh) == 12

    @pytest.mark.parametrize("distinct", [1, 2, 5, 11, 12])
    @pytest.mark.parametrize("language,corpus", [(Language.PYTHON, PYTHON_CORPUS),
                                                 (Language.JAVA, JAVA_CORPUS)],
                             ids=["python", "java"])
    def test_scores_equal_the_walks(self, language, corpus, distinct, local_provider):
        """Bit for bit, whatever the number of distinct programs: two more
        copies of the first program join each set."""
        sources = distinct_sources(corpus, distinct) + corpus[:1] * 2
        samples = SampleSet("req-1", "a requirement",
                            tuple(Program(s, language) for s in sources))
        assert len(set(sources)) == distinct
        assert ([estimate_confidence(samples, w, local_provider).confidence.hex()
                 for w in (SimilarityWeights.uniform(),
                           SimilarityWeights(0.4, 0.3, 0.2, 0.1))]
                + [m.hex() for m in modality_means(samples, local_provider)]
                == walk_scores(samples, local_provider))

    def test_threads_equal_serial_runs(self, local_provider):
        """Each set has its own ``_PairTable``, so no thread can see another
        thread's terms: threads running sets at once score them as one
        thread does."""
        sets = [sample_set(PYTHON_CORPUS[k:k + 5], rid=f"py-{k}") for k in (0, 5, 10, 15)]
        sets.append(SampleSet("java", "a requirement",
                              tuple(Program(s, Language.JAVA) for s in JAVA_CORPUS)))
        weights = SimilarityWeights(0.4, 0.3, 0.2, 0.1)
        serial = [(estimate_confidence(s, weights, local_provider),
                   modality_means(s, local_provider)) for s in sets]
        results = {}

        def run(t):
            order = sets[t:] + sets[:t]
            results[t] = [(estimate_confidence(s, weights, local_provider),
                           modality_means(s, local_provider)) for s in order * 2]

        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for t in range(4):
            assert results[t] == (serial[t:] + serial[:t]) * 2

    def test_remote_set_in_one_embeddings_request(self, mock_server):
        provider = EmbeddingProviderConfig(kind=ProviderKind.REMOTE,
                                           endpoint=mock_server.endpoint,
                                           model_name="one-request-per-set")
        samples = sample_set(PYTHON_CORPUS[:6] + PYTHON_CORPUS[:2])
        weights = SimilarityWeights.uniform()
        before = mock_server.embedding_requests
        first = estimate_confidence(samples, weights, provider)
        assert mock_server.embedding_requests - before == 1
        assert estimate_confidence(samples, weights, provider) == first
        assert mock_server.embedding_requests - before == 1

    def test_remote_all_zero_vector_raises(self, mock_server):
        provider = EmbeddingProviderConfig(kind=ProviderKind.REMOTE,
                                           endpoint=mock_server.endpoint,
                                           model_name="all-zero-vector")
        samples = sample_set([PYTHON_CORPUS[0], "ZEROVEC = 1"])
        with pytest.raises(DegenerateEmbedding):
            estimate_confidence(samples, SimilarityWeights.uniform(), provider)


def stage_scores(samples, provider):
    """``walk_scores``'s values from the pair stage: ``estimate_confidence`` at
    both weightings and ``modality_means``, as ``float.hex()``."""
    return ([estimate_confidence(samples, w, provider).confidence.hex()
             for w in (SimilarityWeights.uniform(), SimilarityWeights(0.4, 0.3, 0.2, 0.1))]
            + [m.hex() for m in modality_means(samples, provider)])


def repeat_program(i, repeats):
    """Program i of a set whose programs fell into a loop: 100 lines of names
    no other program has, then one line ``repeats`` times."""
    return "\n".join([f"def f{i}(x):", *(f"    v{i}_{k} = x + {k}" for k in range(100)),
                      *["    x = x + 1"] * repeats, "    return x", ""])


class TestRepeatedLines:
    """A line repeated until the token limit gives a program's multisets
    counts far above the eight levels a mask holds per key."""

    @pytest.mark.parametrize("n", [10, 20, 40])
    def test_masks_hold_at_most_a_byte_per_key(self, n, local_provider, monkeypatch):
        built = []
        real = confidence.level_masks

        def record(multisets):
            built.append((multisets, real(multisets)))
            return built[-1][1]

        monkeypatch.setattr(confidence, "level_masks", record)
        samples = sample_set([repeat_program(i, 300) for i in range(n)])
        estimate_confidence(samples, SimilarityWeights.uniform(), local_provider)
        assert len(built) == 6
        for multisets, masks in built:
            keys = len(set().union(*multisets))
            assert max((bits.bit_length() + 7) // 8 for bits, _ in masks) <= keys

    @pytest.mark.parametrize("programs", [
        [(0, 9), (1, 9), (0, 9)], [(0, 100), (1, 100), (0, 100)],
        [(0, 300), (1, 300), (0, 300)], [(0, 9), (0, 100), (0, 300), (1, 300), (0, 100)]],
        ids=["9", "100", "300", "mixed"])
    def test_scores_equal_the_walks(self, programs, local_provider):
        """Bit for bit, with copies among the programs."""
        samples = sample_set([repeat_program(i, repeats) for i, repeats in programs])
        assert stage_scores(samples, local_provider) == walk_scores(samples, local_provider)
