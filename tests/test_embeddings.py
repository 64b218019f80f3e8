import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from honest import embeddings
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
from honest.model import Language, Program
from mock_server import EMBEDDING_INPUT_CAP


def py(source):
    return Program(source, Language.PYTHON)


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
            return requests.post(mock_server.endpoint + "/embeddings", timeout=10,
                                 json={"model": "m", "input": ["x"] * count})

        assert len(post(EMBEDDING_INPUT_CAP).json()["data"]) == EMBEDDING_INPUT_CAP
        assert post(EMBEDDING_INPUT_CAP + 1).status_code == 400

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
