import hashlib
import json
import math
import urllib.error
import urllib.request

import pytest
from corpus import JAVA_CORPUS, PYTHON_CORPUS
from hypothesis import example, given, settings
from hypothesis import strategies as st

from honest import embeddings
from honest.confidence import analyze_program, estimate_confidence
from honest.embeddings import (
    EmbeddingProviderConfig,
    EmbeddingVector,
    ProviderKind,
    cosine,
    embed,
    embed_text,
    prefetch,
)
from honest.errors import DimensionMismatch, ProviderUnavailable, ZeroVector
from honest.similarity import SimilarityWeights
from honest.model import Language, Program, SampleSet, TokenSequence, tokenize
from mock_server import EMBEDDING_INPUT_CAP


def py(source):
    return Program(source, Language.PYTHON)


def per_occurrence_vector(tokens, dimension):
    """The local embedding hashed one unigram or bigram occurrence at a time,
    as the provider was first written: the oracle for the counted version."""
    counts = [0.0] * dimension
    for feature in [*tokens, *(a + "\x00" + b for a, b in zip(tokens, tokens[1:]))]:
        digest = hashlib.blake2b(feature.encode("utf-8", "surrogatepass"),
                                 key=b"honest-localhashed-v1", digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        counts[(value >> 1) % dimension] += 1.0 if value & 1 else -1.0
    norm = math.sqrt(sum(v * v for v in counts))
    if norm == 0.0:
        counts[0], norm = 1.0, 1.0
    return EmbeddingVector(tuple(v / norm for v in counts))


LOCAL_CONFIGS = [EmbeddingProviderConfig(kind=ProviderKind.LOCAL_HASHED, dimension=d)
                 for d in (64, 128, 256)]
CORPUS_PROGRAMS = ([py(s) for s in PYTHON_CORPUS]
                   + [Program(s, Language.JAVA) for s in JAVA_CORPUS])
REQUIREMENTS = [
    "", "!!!", "Sort a LIST of numbers!", "a a a a b b", "naïve café ß x_y",
    "Return the sum of the even numbers in a list; return 0 for an empty list.",
    "reverse reverse the string the string, then count count count the vowels",
    *PYTHON_CORPUS, *JAVA_CORPUS,
]
# repeats, and tokens holding "\x00": "a\x00b" alone hashes like the bigram (a, b)
TOKENS = st.lists(st.sampled_from(["a", "b", "a\x00b", "\x00", "b\x00", "\x00a", "x"])
                  | st.text(min_size=1, max_size=4), max_size=40)


class TestLocalHashed:
    def test_identical_programs_identical_vectors(self, local_provider):
        a = embed(py("def f():\n    return 1\n"), local_provider)
        b = embed(py("def f():\n    return 1\n"), local_provider)
        assert a == b

    def test_unit_norm(self, local_provider):
        v = embed(py("x = 1"), local_provider)
        assert v.norm() == pytest.approx(1.0, abs=1e-9)
        assert v.dimension == 128

    def test_empty_program_gets_fallback_unit_vector(self, local_provider):
        v = embed(py(""), local_provider)
        assert v.norm() == pytest.approx(1.0, abs=1e-9)
        assert embed(py(""), local_provider) == v

    def test_different_programs_differ(self, local_provider):
        assert embed(py("x = 1"), local_provider) != embed(py("y = 2"), local_provider)

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            EmbeddingProviderConfig(kind=ProviderKind.LOCAL_HASHED, dimension=32)

    def test_embed_text_word_based(self, local_provider):
        a = embed_text("sort a list of numbers", local_provider)
        b = embed_text("Sort a LIST of numbers!", local_provider)
        assert a == b  # case/punctuation-insensitive word hashing


class TestLocalHashedOracle:
    """Hashing each distinct n-gram once, times its count, gives bit for bit
    the vector that hashing every occurrence gives."""

    @pytest.mark.parametrize("config", LOCAL_CONFIGS, ids=lambda c: f"d{c.dimension}")
    def test_programs(self, config):
        for program in CORPUS_PROGRAMS:
            want = per_occurrence_vector(tokenize(program).tokens, config.dimension)
            assert embed(program, config) == want
            assert analyze_program(program, config).embedding == want

    @pytest.mark.parametrize("config", LOCAL_CONFIGS, ids=lambda c: f"d{c.dimension}")
    def test_requirement_texts(self, config):
        for text in REQUIREMENTS:
            want = per_occurrence_vector(embeddings.text_tokens(text), config.dimension)
            assert embed_text(text, config) == want

    @given(TOKENS, st.sampled_from([64, 100, 256]))
    @example(["a", "b", "a\x00b", "a", "b"], 64)
    @example(["x"] * 30, 64)
    @settings(max_examples=200, deadline=None)
    def test_token_tuples(self, tokens, dimension):
        got = embeddings._hashed_vector(TokenSequence(tuple(tokens)), dimension)
        assert got == per_occurrence_vector(tokens, dimension)

    def test_each_distinct_unigram_and_bigram_is_hashed_once(self, local_provider, monkeypatch):
        calls = []
        bucket = embeddings._bucket

        def counted(feature, dimension):
            calls.append(feature)
            return bucket(feature, dimension)

        monkeypatch.setattr(embeddings, "_bucket", counted)
        program = py("x = x + 1\nx = x + 1\nprint(x, x)\n")
        unigrams, bigrams = tokenize(program).ngrams[:2]
        for embedded in (lambda: embed(program, local_provider),
                         lambda: analyze_program(program, local_provider)):
            calls.clear()
            embedded()
            assert len(calls) == len(unigrams) + len(bigrams)

    @given(st.text(st.characters(exclude_categories=())), st.sampled_from([64, 100, 256]))
    @example("", 64)
    @example("\x00", 256)
    @example("a\x00b", 100)
    @example("\ud800", 64)
    @example("x\udfff\x00", 256)
    @settings(max_examples=300, deadline=None)
    def test_bucket_equals_a_one_shot_keyed_hash(self, feature, dimension):
        digest = hashlib.blake2b(feature.encode("utf-8", "surrogatepass"),
                                 key=b"honest-localhashed-v1", digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        want = ((value >> 1) % dimension, 1.0 if value & 1 else -1.0)
        assert embeddings._bucket(feature, dimension) == want
        embeddings._bucket.cache_clear()
        assert embeddings._bucket(feature, dimension) == want

    def test_a_set_hashes_each_distinct_feature_once(self, local_provider, monkeypatch):
        hashed = []

        class CountedHash:
            """The keyed state, recording what each of its copies hashes."""

            def __init__(self, state):
                self.state = state

            def copy(self):
                return CountedHash(self.state.copy())

            def update(self, data):
                hashed.append(data)
                self.state.update(data)

            def digest(self):
                return self.state.digest()

        embeddings._bucket.cache_clear()  # whatever ran before, start cold
        monkeypatch.setattr(embeddings, "_KEYED_HASH", CountedHash(embeddings._KEYED_HASH))
        programs = [py(s) for s in PYTHON_CORPUS] * 2
        samples = SampleSet("corpus", "", tuple(programs))
        estimate_confidence(samples, SimilarityWeights.uniform(), local_provider)
        features = {"\x00".join(gram) for p in programs
                    for grams in tokenize(p).ngrams[:2] for gram in grams}
        assert len(hashed) == len(set(hashed))
        assert set(hashed) == {f.encode("utf-8", "surrogatepass") for f in features}
        assert len(hashed) < sum(len(grams) for p in programs[:len(PYTHON_CORPUS)]
                                 for grams in tokenize(p).ngrams[:2])


class TestRemote:
    def test_requires_endpoint_and_model(self):
        with pytest.raises(ValueError):
            EmbeddingProviderConfig(kind=ProviderKind.REMOTE)

    def test_pass_through(self, mock_server):
        config = EmbeddingProviderConfig(kind=ProviderKind.REMOTE,
                                         endpoint=mock_server.endpoint,
                                         model_name="mock-embed")
        v = embed(py("FIXEDVEC"), config)
        assert v.values == (0.6, 0.8)

    def test_remote_embed_does_not_lex(self, mock_server, monkeypatch):
        def no_lexing(program):
            raise AssertionError("the remote provider never reads the tokens")

        monkeypatch.setattr(embeddings, "tokenize", no_lexing)
        config = EmbeddingProviderConfig(kind=ProviderKind.REMOTE,
                                         endpoint=mock_server.endpoint,
                                         model_name="mock-embed")
        assert embed(py("FIXEDVEC = 1"), config).values == (0.6, 0.8)

    def test_mock_server_rejects_more_inputs_than_its_cap(self, mock_server):
        def post(count):
            request = urllib.request.Request(
                mock_server.endpoint + "/embeddings",
                data=json.dumps({"model": "m", "input": ["x"] * count}).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=10) as resp:
                return json.loads(resp.read())

        assert len(post(EMBEDDING_INPUT_CAP)["data"]) == EMBEDDING_INPUT_CAP
        with pytest.raises(urllib.error.HTTPError) as rejected:
            post(EMBEDDING_INPUT_CAP + 1)
        rejected.value.close()
        assert rejected.value.code == 400

    def test_texts_past_the_cap_go_out_in_several_requests(self, mock_server):
        def remote(model):
            return EmbeddingProviderConfig(kind=ProviderKind.REMOTE, retries=0,
                                           endpoint=mock_server.endpoint, model_name=model)

        texts = [f"requirement {i}" for i in range(2 * EMBEDDING_INPUT_CAP + 6)]
        before = mock_server.embedding_requests
        prefetch(texts + texts[:5], remote("chunked"))
        assert mock_server.embedding_requests - before == 3
        vectors = [embed_text(t, remote("chunked")) for t in texts]
        assert mock_server.embedding_requests - before == 3
        assert vectors == [embed_text(t, remote("one-by-one")) for t in texts]

    def test_each_config_gets_its_own_request_gate(self, mock_server):
        def remote(max_in_flight):
            return EmbeddingProviderConfig(kind=ProviderKind.REMOTE, max_in_flight=max_in_flight,
                                           endpoint=mock_server.endpoint, model_name="gated")

        assert embeddings._state_for(remote(1)).semaphore._value == 1
        assert embeddings._state_for(remote(8)).semaphore._value == 8

    def test_equal_configs_share_one_cache(self, mock_server):
        def remote():
            return EmbeddingProviderConfig(kind=ProviderKind.REMOTE,
                                           endpoint=mock_server.endpoint, model_name="shared")

        first = embed_text("one shared cache", remote())
        before = mock_server.embedding_requests
        assert embed_text("one shared cache", remote()) == first
        assert mock_server.embedding_requests == before

    def test_unreachable_endpoint(self):
        config = EmbeddingProviderConfig(kind=ProviderKind.REMOTE,
                                         endpoint="http://127.0.0.1:9",
                                         model_name="m", retries=0, backoff=0.0)
        with pytest.raises(ProviderUnavailable):
            embed(py("x = 1"), config)


class TestCosine:
    def test_cached_norm_leaves_equality_and_hash_alone(self):
        a = EmbeddingVector((3.0, 4.0))
        b = EmbeddingVector((3.0, 4.0))
        assert a.norm() == 5.0  # computed and cached on a only
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_identical_direction(self):
        assert cosine(EmbeddingVector((1.0, 0.0)), EmbeddingVector((1.0, 0.0))) == 1.0

    def test_orthogonal(self):
        assert cosine(EmbeddingVector((1.0, 0.0)), EmbeddingVector((0.0, 1.0))) == 0.0

    def test_diagonal(self):
        value = cosine(EmbeddingVector((1.0, 1.0)), EmbeddingVector((1.0, 0.0)))
        assert value == pytest.approx(0.70710678, abs=1e-8)

    def test_negative_clamped_to_zero(self):
        assert cosine(EmbeddingVector((1.0, 0.0)), EmbeddingVector((-1.0, 0.0))) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(EmbeddingVector((1.0,)), EmbeddingVector((1.0, 0.0)))

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine(EmbeddingVector((0.0, 0.0)), EmbeddingVector((1.0, 0.0)))

    @pytest.mark.parametrize("a, b", [((1e200, 1.0), (1e200, 0.0)),
                                      ((1e155, 1e155), (1e155, 1e155))],
                             ids=["one-huge-entry", "self-cosine"])
    def test_overflowing_norm_is_rescaled(self, a, b):
        assert cosine(EmbeddingVector(a), EmbeddingVector(b)) == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_self_similarity_one(self, values):
        v = EmbeddingVector(tuple(values))
        if v.norm() == 0.0:
            return
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-9)

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3),
           st.lists(st.floats(-5, 5), min_size=3, max_size=3),
           st.floats(0.01, 100), st.floats(0.01, 100))
    @example([0.0, 0.0, -3.882431870938134e-159], [0.0, 1.0, -1.0], 2.0, 1.0)
    @example([1e-160, 2e-160, 0.0], [3e-160, -1e-160, 5e-161], 3.0, 0.5)  # both tiny
    @settings(max_examples=100, deadline=None)
    def test_positive_scale_invariance(self, a, b, s, t):
        va, vb = EmbeddingVector(tuple(a)), EmbeddingVector(tuple(b))
        if va.norm() == 0.0 or vb.norm() == 0.0:
            return
        scaled_a = EmbeddingVector(tuple(s * x for x in a))
        scaled_b = EmbeddingVector(tuple(t * x for x in b))
        if scaled_a.norm() == 0.0 or scaled_b.norm() == 0.0:
            return
        assert cosine(scaled_a, scaled_b) == pytest.approx(cosine(va, vb), abs=1e-9)

    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
           st.lists(st.floats(-5, 5), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_output_in_unit_interval(self, a, b):
        va, vb = EmbeddingVector(tuple(a)), EmbeddingVector(tuple(b))
        if va.norm() == 0.0 or vb.norm() == 0.0:
            return
        assert 0.0 <= cosine(va, vb) <= 1.0
