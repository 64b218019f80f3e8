import math
import random
from collections import Counter

import pytest
from corpus import JAVA_CORPUS, PYTHON_CORPUS
from hypothesis import given, settings
from hypothesis import strategies as st

from honest.analysis import DataflowGraph, SubtreeBag, extract_dataflow, extract_subtrees, parse_cst
from honest.embeddings import EmbeddingVector, embed
from honest.errors import ComponentOutOfRange
from honest.model import MAX_NGRAM_ORDER, Language, Program, TokenSequence, tokenize
from honest.similarity import (
    SimilarityWeights,
    _overlap,
    level_masks,
    masked_overlap,
    masked_text_overlaps,
    sim_dataflow,
    sim_embed,
    sim_hybrid,
    sim_syntax,
    sim_text,
    text_overlaps,
)


def brute_force_sim_text(tokens_i, tokens_j):
    """Independent oracle: explicit n-gram enumeration, no clipping shortcuts."""
    ratios = []
    for n in range(1, 5):
        grams_j = [tuple(tokens_j[k:k + n]) for k in range(len(tokens_j) - n + 1)]
        if not grams_j:
            continue
        grams_i = [tuple(tokens_i[k:k + n]) for k in range(len(tokens_i) - n + 1)]
        overlap = 0
        remaining = list(grams_i)
        for g in grams_j:
            if g in remaining:
                remaining.remove(g)
                overlap += 1
        if overlap == 0:
            return 0.0
        ratios.append(overlap / len(grams_j))
    if not ratios:
        return 1.0 if not tokens_i else 0.0
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def seq(*tokens):
    return TokenSequence(tuple(tokens))


class TestSimText:
    def test_identical_sequences(self):
        s = seq("def", "f", "(", ")", ":")
        assert sim_text(s, s) == pytest.approx(1.0, abs=1e-9)

    def test_worked_example(self):
        # ratios 4/5, 3/4, 2/3, 1/2 -> geometric mean 0.2 ** 0.25
        value = sim_text(seq("a", "b", "c", "d", "e"), seq("a", "b", "c", "d", "f"))
        assert value == pytest.approx(0.2 ** 0.25, abs=1e-9)
        assert value == pytest.approx(0.66874, abs=1e-4)

    def test_zero_unigram_overlap(self):
        assert sim_text(seq("x", "=", "1"), seq("y", "+", "2")) == 0.0

    def test_empty_vs_empty(self):
        assert sim_text(seq(), seq()) == 1.0

    def test_nonempty_vs_empty(self):
        assert sim_text(seq("x"), seq()) == 0.0
        assert sim_text(seq(), seq("x")) == 0.0

    def test_short_sequences_renormalized(self):
        # two tokens: only orders 1 and 2 exist for the denominator side
        assert sim_text(seq("a", "b"), seq("a", "b")) == pytest.approx(1.0)

    def test_asymmetry_exists(self):
        a = seq("a", "a", "b")
        b = seq("a", "b")
        assert sim_text(a, b) != sim_text(b, a)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(20240817)
        alphabet = ["a", "b", "c", "x", "y", "="]
        for _ in range(50):
            ti = [rng.choice(alphabet) for _ in range(rng.randint(0, 40))]
            tj = [rng.choice(alphabet) for _ in range(rng.randint(0, 40))]
            expected = brute_force_sim_text(ti, tj)
            got = sim_text(TokenSequence(tuple(ti)), TokenSequence(tuple(tj)))
            assert got == pytest.approx(expected, abs=1e-9), (ti, tj)

    @given(st.lists(st.sampled_from("abcxy"), max_size=25),
           st.lists(st.sampled_from("abcxy"), max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_range_property(self, ti, tj):
        value = sim_text(TokenSequence(tuple(ti)), TokenSequence(tuple(tj)))
        assert 0.0 <= value <= 1.0


class TestSimSyntaxAndDataflow:
    def test_identical_bags(self):
        bag = SubtreeBag(Counter({"a(b)": 2, "b(c)": 1}))
        assert sim_syntax(bag, bag) == 1.0

    def test_disjoint_bags(self):
        a = SubtreeBag(Counter({"a(b)": 1}))
        b = SubtreeBag(Counter({"c(d)": 1}))
        assert sim_syntax(a, b) == 0.0

    def test_empty_empty_scores_one(self):
        empty = SubtreeBag(Counter())
        assert sim_syntax(empty, empty) == 1.0

    def test_empty_denominator_scores_zero(self):
        a = SubtreeBag(Counter({"a(b)": 1}))
        assert sim_syntax(a, SubtreeBag(Counter())) == 0.0

    def test_clipping(self):
        a = SubtreeBag(Counter({"k": 1}))
        b = SubtreeBag(Counter({"k": 3}))
        assert sim_syntax(a, b) == pytest.approx(1 / 3)
        assert sim_syntax(b, a) == 1.0

    def test_real_programs_small_edit(self):
        bag1 = extract_subtrees(parse_cst(Program("x = 1", Language.PYTHON)))
        bag2 = extract_subtrees(parse_cst(Program("x = 2", Language.PYTHON)))
        assert sim_syntax(bag1, bag2) == 1.0  # literal kinds are identical

    def test_dataflow_identical(self):
        g = DataflowGraph(Counter({("a", "b"): 1}))
        assert sim_dataflow(g, g) == 1.0

    def test_dataflow_disjoint(self):
        a = DataflowGraph(Counter({("a", "b"): 1}))
        b = DataflowGraph(Counter({("a", "c"): 1}))
        assert sim_dataflow(a, b) == 0.0

    def test_dataflow_two_pass_programs(self):
        g1 = extract_dataflow(Program("pass", Language.PYTHON))
        g2 = extract_dataflow(Program("pass", Language.PYTHON))
        assert sim_dataflow(g1, g2) == 1.0


class TestSimEmbed:
    def test_identical(self):
        v = EmbeddingVector((0.3, 0.4))
        assert sim_embed(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self):
        assert sim_embed(EmbeddingVector((1.0, 0.0)), EmbeddingVector((0.0, 1.0))) == 0.0

    def test_analytic_value(self):
        value = sim_embed(EmbeddingVector((3.0, 4.0)), EmbeddingVector((4.0, 3.0)))
        assert value == pytest.approx(24 / 25, abs=1e-9)


class TestSimHybrid:
    def test_all_ones(self):
        w = SimilarityWeights(0.1, 0.2, 0.3, 0.4)
        assert sim_hybrid(1.0, 1.0, 1.0, 1.0, w) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_weights_arithmetic(self):
        value = sim_hybrid(0.8, 0.6, 0.4, 0.2, SimilarityWeights.uniform())
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_single_modality_projection(self):
        value = sim_hybrid(0.3, 0.9, 0.9, 0.9, SimilarityWeights(1.0, 0.0, 0.0, 0.0))
        assert value == pytest.approx(0.3, abs=1e-9)

    def test_component_out_of_range(self):
        with pytest.raises(ComponentOutOfRange):
            sim_hybrid(1.2, 0.5, 0.5, 0.5, SimilarityWeights.uniform())

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            SimilarityWeights(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            SimilarityWeights(-0.1, 0.4, 0.4, 0.3)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
           st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_each_component(self, text, syntax, dataflow, embedding, bump):
        w = SimilarityWeights(0.4, 0.3, 0.2, 0.1)
        base = sim_hybrid(text, syntax, dataflow, embedding, w)
        bumped_text = min(1.0, text + bump)
        assert sim_hybrid(bumped_text, syntax, dataflow, embedding, w) >= base - 1e-12


class TestIdentityOnRealPrograms:
    @pytest.mark.parametrize("source", PYTHON_CORPUS[:5])
    def test_all_structural_sims_are_one_on_self(self, source):
        program = Program(source, Language.PYTHON)
        toks = tokenize(program)
        bag = extract_subtrees(parse_cst(program))
        dfg = extract_dataflow(program)
        assert sim_text(toks, toks) == pytest.approx(1.0, abs=1e-9)
        assert sim_syntax(bag, bag) == pytest.approx(1.0, abs=1e-9)
        assert sim_dataflow(dfg, dfg) == pytest.approx(1.0, abs=1e-9)


def _seed_ngram_counts(tokens, n):
    return Counter(tuple(tokens[k:k + n]) for k in range(len(tokens) - n + 1))


def seed_sim_text(seq_i, seq_j):
    """sim_text as first written: rebuilds both sides' Counters per call and
    clips with a lookup for every n-gram of seq_j."""
    ti, tj = seq_i.tokens, seq_j.tokens
    logs = []
    for n in range(1, 5):
        total_j = len(tj) - n + 1
        if total_j <= 0:
            continue
        cj = _seed_ngram_counts(tj, n)
        ci = _seed_ngram_counts(ti, n)
        overlap = sum(min(ci[g], c) for g, c in cj.items())
        if overlap == 0:
            return 0.0
        logs.append(math.log(overlap / total_j))
    if not logs:
        return 1.0 if len(ti) == 0 else 0.0
    return min(1.0, math.exp(sum(logs) / len(logs)))


def seed_cosine(a, b):
    na = math.sqrt(sum(v * v for v in a.values))
    nb = math.sqrt(sum(v * v for v in b.values))
    dot = sum(x * y for x, y in zip(a.values, b.values))
    return min(1.0, max(0.0, dot / (na * nb)))


def seed_clipped_ratio(counts_i, counts_j):
    total_j = sum(counts_j.values())
    if total_j == 0:
        return 1.0 if sum(counts_i.values()) == 0 else 0.0
    return seed_overlap(counts_i, counts_j) / total_j


def seed_overlap(counts_i, counts_j):
    """The clipped overlap as first written: a Counter lookup (0 when absent)
    for every key of counts_j."""
    return sum(min(counts_i[k], c) for k, c in counts_j.items())


class TestBitIdenticalToSeedFormulas:
    """The cached n-grams and norms and the shared overlap helper change no
    score, not even in the last bit: every comparison here is ==, not approx."""

    @pytest.mark.parametrize("language,corpus", [(Language.PYTHON, PYTHON_CORPUS),
                                                 (Language.JAVA, JAVA_CORPUS)],
                             ids=["python", "java"])
    def test_corpus_pairs(self, language, corpus, local_provider):
        programs = [Program(s, language) for s in corpus]
        toks = [tokenize(p) for p in programs]
        bags = [extract_subtrees(parse_cst(p)) for p in programs]
        dfgs = [extract_dataflow(p) for p in programs]
        vecs = [embed(p, local_provider) for p in programs]
        for i in range(len(programs)):
            for j in range(len(programs)):
                assert sim_text(toks[i], toks[j]) == seed_sim_text(toks[i], toks[j])
                assert sim_embed(vecs[i], vecs[j]) == seed_cosine(vecs[i], vecs[j])
                assert sim_syntax(bags[i], bags[j]) == seed_clipped_ratio(
                    bags[i].entries, bags[j].entries)
                assert sim_dataflow(dfgs[i], dfgs[j]) == seed_clipped_ratio(
                    dfgs[i].edges, dfgs[j].edges)

    def test_random_token_lists(self):
        rng = random.Random(11)
        vocab = ["a", "b", "c", "d", "(", ")"]
        seqs = [seq(*rng.choices(vocab, k=rng.randint(0, 40))) for _ in range(60)]
        seqs += [seq(), seq("a"), seq("a", "b"), seq("a", "b", "c")]
        for s_i in seqs:
            for s_j in seqs:
                assert sim_text(s_i, s_j) == seed_sim_text(s_i, s_j)

    def test_random_multisets(self):
        rng = random.Random(12)
        keys = ["k%d" % k for k in range(8)]
        counters = [Counter({k: rng.randint(1, 4) for k in rng.sample(keys, rng.randint(0, 8))})
                    for _ in range(30)]
        for c_i in counters:
            for c_j in counters:
                want = seed_clipped_ratio(c_i, c_j)
                assert sim_syntax(SubtreeBag(c_i), SubtreeBag(c_j)) == want
                assert sim_dataflow(DataflowGraph(c_i), DataflowGraph(c_j)) == want

    def test_overlap_random_counters(self):
        rng = random.Random(13)
        keys = [("g", k) for k in range(12)]
        counters = [Counter({k: rng.randint(1, 6) for k in rng.sample(keys, rng.randint(0, 12))})
                    for _ in range(40)]
        for c_i in counters:
            for c_j in counters:
                assert _overlap(c_i, c_j) == seed_overlap(c_i, c_j)
                assert _overlap(c_j, c_i) == seed_overlap(c_i, c_j)

    def test_overlap_disjoint_empty_and_same_object(self):
        a = Counter({"x": 2, "y": 1})
        b = Counter({"z": 5})
        empty = Counter()
        for c_i, c_j, want in ((a, b, 0), (b, a, 0), (a, empty, 0), (empty, a, 0),
                               (empty, empty, 0), (a, a, 3), (b, b, 5)):
            assert _overlap(c_i, c_j) == want == seed_overlap(c_i, c_j)

    def test_overlap_larger_side_first(self):
        small = Counter({"x": 3, "y": 1})
        large = Counter({"x": 1, "y": 4, "z": 2, "w": 7})
        assert _overlap(large, small) == _overlap(small, large) == 2


_KEYS = st.one_of(st.sampled_from("abcd"), st.tuples(st.sampled_from("ab"), st.sampled_from("ab")))
# counts past 255 reach the excess kept beside the masks
_MULTISETS = st.dictionaries(_KEYS, st.one_of(st.integers(1, 40), st.integers(250, 520)),
                             max_size=6).map(Counter)


class TestLevelMasks:
    """Every pair's overlaps from one set's level masks equal the per-pair walks."""

    @given(programs=st.lists(st.tuples(st.lists(st.sampled_from("ab=("), max_size=12),
                                       _MULTISETS, _MULTISETS), min_size=2, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_every_pair_equals_the_walks(self, programs):
        seqs = [TokenSequence(tuple(tokens)) for tokens, _, _ in programs]
        bags = [bag for _, bag, _ in programs]
        edges = [edge for _, _, edge in programs]
        ngrams = list(zip(*(level_masks([s.ngrams[n] for s in seqs])
                            for n in range(MAX_NGRAM_ORDER))))
        bag_masks, edge_masks = level_masks(bags), level_masks(edges)
        for p in range(len(programs)):
            for q in range(p, len(programs)):
                overlaps = masked_text_overlaps(ngrams[p], ngrams[q])
                assert overlaps == text_overlaps(seqs[p], seqs[q])
                assert 0 not in overlaps[:-1]  # orders stop after the first zero
                assert masked_overlap(bag_masks[p], bag_masks[q]) == _overlap(bags[p], bags[q])
                assert masked_overlap(edge_masks[p], edge_masks[q]) == _overlap(edges[p], edges[q])

    def test_counts_around_a_byte(self):
        counts = [Counter({"(": c, "x": 2}) for c in (0, 1, 7, 8, 9, 254, 255, 256, 257, 3001)]
        masks = level_masks(counts)
        assert [excess for _, excess in masks] == [None] * 7 + [{"(": 1}, {"(": 2}, {"(": 2746}]
        for p, mask_p in enumerate(masks):
            for q, mask_q in enumerate(masks):
                assert masked_overlap(mask_p, mask_q) == _overlap(counts[p], counts[q])
