import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honest.baselines import (
    BM25_B,
    BM25_K1,
    K_SWEEP,
    Bm25Index,
    EmbeddingCorpus,
    KnnConfig,
    _ranked_labels,
    avg_prob,
    knn_confidence,
    product_prob,
    self_ask_code,
    self_ask_requirement,
    text_tokens,
    tune_k,
)
from honest.client import SamplingConfig
from honest.embeddings import EmbeddingProviderConfig, ProviderKind, cosine, embed_text
from honest.errors import EmptyCorpus, EmptyInput, MissingLogprobs
from honest.model import Language, Origin, Program


def origin(*probs):
    return Origin(token_probs=tuple(probs) or None)


class TestProbabilityPooling:
    def test_avg_prob_pooled_mean(self):
        # pooled over all tokens: (0.5 + 0.5 + 1.0) / 3
        assert avg_prob([origin(0.5, 0.5), origin(1.0)]) == pytest.approx(2 / 3)

    def test_product_prob_per_record_then_mean(self):
        # (0.5*0.5 + 0.8) / 2
        assert product_prob([origin(0.5, 0.5), origin(0.8)]) == pytest.approx(0.525)

    def test_single_record(self):
        assert avg_prob([origin(0.2, 0.4)]) == pytest.approx(0.3)
        assert product_prob([origin(0.2, 0.4)]) == pytest.approx(0.08)

    def test_product_long_sequence_no_underflow_error(self):
        value = product_prob([origin(*([0.9] * 200))])
        assert value == pytest.approx(0.9 ** 200, rel=1e-9)
        assert value > 0.0

    def test_product_extreme_sequence_underflows_to_zero(self):
        assert product_prob([origin(*([0.5] * 3000))]) == 0.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            avg_prob([])
        with pytest.raises(EmptyInput):
            product_prob([])

    def test_missing_logprobs(self):
        with pytest.raises(MissingLogprobs):
            avg_prob([origin(0.5), origin()])

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_product_never_exceeds_avg_for_one_record(self, probs):
        # the product of values in (0, 1] is at most their minimum, hence mean
        r = [origin(*probs)]
        assert product_prob(r) <= avg_prob(r) + 1e-12


class TestSelfAsk:
    def test_code_judge_mean_over_programs(self, mock_server):
        mock_server.judge_alternatives = [("Yes", math.log(0.7)),
                                          ("No", math.log(0.2))]
        config = SamplingConfig(endpoint=mock_server.endpoint, model="m")
        programs = [Program("x = 1", Language.PYTHON),
                    Program("y = 2", Language.PYTHON)]
        p = self_ask_code("set a variable", programs, config)
        assert p == pytest.approx(0.7 / 0.9, abs=1e-9)

    def test_code_judge_empty_programs(self, mock_server):
        config = SamplingConfig(endpoint=mock_server.endpoint, model="m")
        with pytest.raises(EmptyInput):
            self_ask_code("anything", [], config)

    def test_requirement_judge(self, mock_server):
        mock_server.judge_alternatives = [("Yes", math.log(0.3)),
                                          ("No", math.log(0.6))]
        config = SamplingConfig(endpoint=mock_server.endpoint, model="m")
        p = self_ask_requirement("sort a list", config)
        assert p == pytest.approx(0.3 / 0.9, abs=1e-9)


class TestTextTokens:
    def test_lowercase_word_split(self):
        assert text_tokens("Sort the List!") == ["sort", "the", "list"]

    def test_empty(self):
        assert text_tokens("...") == []


class TestBm25:
    REQS = ["sort the list", "reverse the list", "parse json"]
    LABELS = [True, False, True]

    def index(self):
        return Bm25Index.build(self.REQS, self.LABELS)

    def test_hand_computed_score(self):
        # N=3, avg_len=8/3; query == doc 0, all term freqs 1
        # idf(sort) = ln(1 + 2.5/1.5), idf(the) = idf(list) = ln(1 + 1.5/2.5)
        # length_norm = 1.2 * (0.25 + 0.75 * 3 / (8/3)) = 1.3125
        idf_sort = math.log(1 + 2.5 / 1.5)
        idf_common = math.log(1 + 1.5 / 2.5)
        per_term = 1 * 2.2 / (1 + 1.3125)
        expected = (idf_sort + 2 * idf_common) * per_term
        got = self.index().scores("sort the list")[0]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_disjoint_query_scores_zero(self):
        assert self.index().scores("unrelated words")[0] == 0.0

    def test_matching_doc_outranks_others(self):
        scores = self.index().scores("parse json")
        assert scores[2] == max(scores)
        assert scores[2] > scores[0]

    def test_rare_term_has_higher_idf_weight(self):
        index = self.index()
        rare = index.scores("sort")[0]
        common = index.scores("the")[0]
        assert rare > common


class TestKnn:
    REQS = ["sort the numbers ascending", "sort the numbers descending",
            "parse a json file", "parse a yaml file", "multiply two matrices"]
    LABELS = [True, True, False, False, True]

    def test_bm25_neighbors_majority(self):
        index = Bm25Index.build(self.REQS, self.LABELS)
        config = KnnConfig(k=2)
        assert knn_confidence("sort the numbers", index, config) == 1.0
        assert knn_confidence("parse a toml file", index, config) == 0.0

    def test_k_fraction(self):
        index = Bm25Index.build(self.REQS, self.LABELS)
        value = knn_confidence("sort the numbers", index, KnnConfig(k=5))
        assert value == pytest.approx(3 / 5)

    def test_k_clamped_to_corpus_size(self):
        index = Bm25Index.build(["sort"], [True])
        assert knn_confidence("sort", index, KnnConfig(k=20)) == 1.0

    def test_tie_break_insertion_order(self):
        # all scores tie at zero for a disjoint query: first k docs win
        index = Bm25Index.build(["aaa", "bbb", "ccc"], [True, False, False])
        assert knn_confidence("zzz", index, KnnConfig(k=1)) == 1.0
        assert knn_confidence("zzz", index, KnnConfig(k=2)) == 0.5

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            knn_confidence("q", Bm25Index.build([], []), KnnConfig(k=1))

    def test_k_validation(self):
        with pytest.raises(ValueError):
            KnnConfig(k=0)

    def test_embedding_corpus(self, local_provider):
        corpus = EmbeddingCorpus.build(self.REQS, self.LABELS, local_provider)
        config = KnnConfig(k=1)
        # exact-match query retrieves its own stored requirement
        assert knn_confidence(self.REQS[0], corpus, config) == 1.0
        assert knn_confidence(self.REQS[2], corpus, config) == 0.0

    def test_remote_embedding_corpus_in_one_request(self, mock_server):
        def remote(model):
            return EmbeddingProviderConfig(kind=ProviderKind.REMOTE,
                                           endpoint=mock_server.endpoint, model_name=model)

        reqs = self.REQS + [self.REQS[0]]
        before = mock_server.embedding_requests
        corpus = EmbeddingCorpus.build(reqs, self.LABELS + [True], remote("corpus-batch"))
        assert mock_server.embedding_requests - before == 1
        assert corpus.vectors == [embed_text(r, remote("corpus-one-by-one")) for r in reqs]
        assert mock_server.embedding_requests - before == 1 + len(self.REQS)

    def test_tune_k_smallest_on_ties(self):
        index = Bm25Index.build(self.REQS, self.LABELS)
        k = tune_k(self.REQS, self.LABELS, index)
        assert k == 1

    def test_tune_k_returns_swept_value(self, local_provider):
        corpus = EmbeddingCorpus.build(self.REQS, self.LABELS, local_provider)
        k = tune_k(self.REQS, self.LABELS, corpus)
        assert k in (1, 3, 5, 10, 20)

    def test_tune_k_leaves_each_query_out(self):
        # ranked against itself every query's k=1 fraction is its own label
        # (AUROC 1.0); without itself k=1 reads [0, 1, 1, 1, 1] (AUROC 0.25),
        # k=3 reads 1/3 everywhere (AUROC 0.5), and k=5 and up read all four
        # others, 1/4 for each passed query and 1/2 for each failed (AUROC 0)
        reqs = ["file json list", "tree", "sort", "list", "file"]
        labels = [True, False, False, False, True]
        index = Bm25Index.build(reqs, labels)
        assert _ranked_labels(reqs[0], index, held_out=0) == [False, True, False, False]
        assert tune_k(reqs, labels, index) == 3

    def test_tune_k_counts_a_copy_of_the_query(self):
        reqs = ["parse json", "sort the list", "parse json"]
        labels = [True, False, False]
        index = Bm25Index.build(reqs, labels)
        assert _ranked_labels(reqs[0], index, held_out=0) == [False, False]
        assert _ranked_labels(reqs[2], index, held_out=2) == [True, False]
        # k=1 reads the copy's label: [0, 1, 1] against [T, F, F], AUROC 0;
        # k=3 and up read both others, [0, 0.5, 0.5], AUROC 0 too, so the
        # smallest k
        assert tune_k(reqs, labels, index) == 1

    def test_tune_k_single_requirement(self):
        index = Bm25Index.build(["sort"], [True])
        assert tune_k(["sort"], [True], index) == K_SWEEP[0]


# Local copies of the per-query loops: BM25 idf recomputed for every term of
# every call, every k re-scoring the whole index, AUROC by pair counting.
WORDS = ["sort", "the", "list", "parse", "json", "file"]
requirement_texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)
HASHED = EmbeddingProviderConfig(kind=ProviderKind.LOCAL_HASHED, dimension=64)


def per_call_bm25_score(documents, query_tokens, doc_id):
    tf = Counter(documents[doc_id])
    avg_doc_len = sum(len(d) for d in documents) / len(documents)
    length_norm = BM25_K1 * (1.0 - BM25_B
                             + BM25_B * len(documents[doc_id]) / (avg_doc_len or 1.0))
    total = 0.0
    for term in query_tokens:
        freq = tf.get(term, 0)
        if freq == 0:
            continue
        df = sum(1 for d in documents if term in d)
        idf = math.log(1.0 + (len(documents) - df + 0.5) / (df + 0.5))
        total += idf * freq * (BM25_K1 + 1) / (freq + length_norm)
    return total


def per_call_knn(requirement, index, k, held_out=None):
    if isinstance(index, Bm25Index):
        query = text_tokens(requirement)
        scores = [per_call_bm25_score(index.documents, query, i)
                  for i in range(len(index))]
    else:
        query_vec = embed_text(requirement, index.provider)
        scores = [cosine(query_vec, v) for v in index.vectors]
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    order = [i for i in order if i != held_out]
    k = min(k, len(order))
    return sum(1 for i in order[:k] if index.labels[i]) / k


def pair_count_auroc(scores, labels):
    pos = [s for s, label in zip(scores, labels) if label]
    neg = [s for s, label in zip(scores, labels) if not label]
    if not pos or not neg:
        return 0.5  # tune_k's value for a single-class training set
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def per_k_tune_k(queries, labels, index):
    """Leave-one-out: the index holds the queries in order, and query q is
    ranked against all of it but position q."""
    if len(index) == 1:
        return K_SWEEP[0]
    best_k, best_score = K_SWEEP[0], -1.0
    for k in K_SWEEP:
        score = pair_count_auroc([per_call_knn(q, index, k, held_out=i)
                                  for i, q in enumerate(queries)], labels)
        if score > best_score:
            best_k, best_score = k, score
    return best_k


@st.composite
def knn_cases(draw):
    """A labelled corpus, which may repeat requirements or be single-class,
    and queries that repeat corpus requirements (tied scores) or each other."""
    reqs = draw(st.lists(requirement_texts, min_size=1, max_size=8))
    labels = draw(st.lists(st.booleans(), min_size=len(reqs), max_size=len(reqs)))
    queries = draw(st.lists(st.sampled_from(reqs) | requirement_texts,
                            min_size=1, max_size=8))
    return reqs, labels, queries


class TestSameAsPerQueryLoops:
    @given(knn_cases())
    @settings(max_examples=150, deadline=None)
    def test_bm25_score_equals_per_call_idf(self, case):
        reqs, labels, queries = case
        index = Bm25Index.build(reqs, labels)
        for q in queries:
            assert index.scores(q) == [per_call_bm25_score(index.documents, text_tokens(q), i)
                                       for i in range(len(index))]

    def test_query_without_word_tokens_scores_zero_in_corpus_order(self):
        index = Bm25Index.build(["sort the list", "parse json", "sort"], [False, True, True])
        assert index.scores("...") == [0.0, 0.0, 0.0]
        assert _ranked_labels("...", index) == [False, True, True]

    def test_repeated_query_term_counts_each_time(self):
        index = Bm25Index.build(["sort sort the list", "the list", "parse json json"],
                                [True, False, True])
        query = "the sort the json sort sort"
        assert index.scores(query) == [
            per_call_bm25_score(index.documents, text_tokens(query), i) for i in range(3)]
        assert index.scores("sort sort")[0] == 2 * index.scores("sort")[0]

    @pytest.mark.parametrize("kind", ["bm25", "embedding"])
    @given(case=knn_cases())
    @settings(max_examples=100, deadline=None)
    def test_knn_and_tune_k_equal_per_k_loops(self, kind, case):
        reqs, labels, queries = case
        index = (Bm25Index.build(reqs, labels) if kind == "bm25"
                 else EmbeddingCorpus.build(reqs, labels, HASHED))
        for q in queries:
            for k in (1, 3, 50):
                assert knn_confidence(q, index, KnnConfig(k=k)) == per_call_knn(q, index, k)
        # trained on the index's own requirements
        assert tune_k(reqs, labels, index) == per_k_tune_k(reqs, labels, index)
