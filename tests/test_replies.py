"""Every reply body from the chat or embeddings endpoint ends in a value or a
typed HonestError: a body of the wrong shape counts as a failed attempt, is
retried, and ends in the endpoint's typed error."""
import io
import itertools
import json
import urllib.request
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honest.client import SamplingConfig, ask_yes_no, sample_programs
from honest.embeddings import EmbeddingProviderConfig, ProviderKind, embed_text, prefetch
from honest.errors import EndpointError, HonestError, ProviderUnavailable
from honest.model import Language

# urllib.request.urlopen is replaced in every test; the local discard port
# keeps even an unpatched request on this machine.
ENDPOINT = "http://127.0.0.1:9/v1"

# A fresh embedding model per call, so the remote cache never answers.
_models = (f"embed-{i}" for i in itertools.count())


def replying(*bodies):
    """Patch urllib.request.urlopen to answer with *bodies*, sent as JSON (bytes
    as they are), in turn (the last one repeats); the patched mock counts the
    attempts."""
    sent = [b if isinstance(b, bytes) else json.dumps(b).encode() for b in bodies]
    return mock.patch.object(
        urllib.request, "urlopen",
        side_effect=lambda *a, **kw: io.BytesIO(sent.pop(0) if len(sent) > 1 else sent[0]))


def sample(retries, n=1):
    config = SamplingConfig(endpoint=ENDPOINT, model="m", n=n, parallelism=1,
                            retries=retries, backoff=0.0)
    return sample_programs("reverse a string", Language.PYTHON, config)


def ask(retries):
    config = SamplingConfig(endpoint=ENDPOINT, model="m", retries=retries,
                            backoff=0.0)
    return ask_yes_no("Answer with exactly one word: Yes or No.", config)


def yes_reply(logprob):
    """A chat reply whose first token is "Yes" at *logprob*."""
    return {"choices": [{"logprobs": {"content": [{"token": "Yes",
                                                   "logprob": logprob}]}}]}


def embed_all(texts, retries):
    """The vectors of *texts*, embedded in one prefetch on a fresh model."""
    config = EmbeddingProviderConfig(kind=ProviderKind.REMOTE, endpoint=ENDPOINT,
                                     model_name=next(_models), retries=retries,
                                     backoff=0.0)
    prefetch(texts, config)
    return [embed_text(t, config) for t in texts]


def embed(retries):
    return embed_all(["reverse a string"], retries)[0]


def embed_pair(retries):
    return embed_all(["reverse a string", "sort a list"], retries)


# JSON too deeply nested for json.load to decode
DEEP = b"[" * 100000 + b"]" * 100000


def vectors(*indices):
    """An embeddings reply whose items carry *indices*, in that order; item
    ``i`` holds the vector ``[i + 1.0]``."""
    return {"data": [{"index": i, "embedding": [i + 1.0]} for i in indices]}


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)


def shaped(strategy):
    """*strategy*, or any JSON value in its place."""
    return strategy | json_values


def obj(**fields):
    return shaped(st.fixed_dictionaries(fields))


alternative = obj(token=shaped(st.sampled_from(["Yes", " no", "x", ""])),
                  logprob=shaped(st.floats(max_value=0.0)))
token = obj(token=shaped(st.sampled_from(["Yes", " no", "x", ""])),
            logprob=shaped(st.floats(max_value=0.0)),
            top_logprobs=shaped(st.lists(alternative, max_size=3)))
choice = obj(
    message=obj(content=shaped(st.sampled_from(
        ["```python\nx = 1\n```", "y = 2", "", None]))),
    finish_reason=json_values,
    logprobs=obj(content=shaped(st.lists(token, max_size=3))))
chat_bodies = obj(choices=shaped(st.lists(choice, max_size=2)))
vector = shaped(st.lists(shaped(st.floats()), max_size=4))
embedding_bodies = obj(data=shaped(st.lists(
    obj(embedding=vector) | obj(index=shaped(st.integers(-1, 2)), embedding=vector),
    max_size=2)))


@given(body=chat_bodies)
@settings(max_examples=150, deadline=None)
def test_any_chat_reply_ends_in_value_or_honest_error(body):
    for call, requests_made in ((lambda: sample(retries=0, n=2), 2),
                                (lambda: ask(retries=0), 1)):
        with replying(body) as post:
            try:
                call()
            except HonestError:
                pass
        assert post.call_count == requests_made


@given(body=embedding_bodies)
@settings(max_examples=150, deadline=None)
def test_any_embedding_reply_ends_in_value_or_honest_error(body):
    with replying(body) as post:
        try:
            embed(retries=0)
        except HonestError:
            pass
    assert post.call_count == 1


@pytest.mark.parametrize("call, body, error", [
    (sample, {}, EndpointError),
    (sample, [1], EndpointError),
    (sample, DEEP, EndpointError),
    (ask, {}, EndpointError),
    (ask, yes_reply(0.5), EndpointError),
    (ask, yes_reply(float("nan")), EndpointError),
    (embed, {"data": [{"embedding": None}]}, ProviderUnavailable),
    (embed, DEEP, ProviderUnavailable),
    # json reads NaN and Infinity as floats
    (embed, json.loads('{"data": [{"embedding": [NaN, 1.0]}]}'), ProviderUnavailable),
    (embed, json.loads('{"data": [{"embedding": [Infinity, 1.0]}]}'), ProviderUnavailable),
    (embed, {"data": [{"embedding": [0.6, 0.8]}] * 2}, ProviderUnavailable),
    (embed, vectors(1), ProviderUnavailable),
    (embed_pair, vectors(0, 0), ProviderUnavailable),
    (embed_pair, {"data": [{"index": 1, "embedding": [2.0]}, {"embedding": [1.0]}]},
     ProviderUnavailable),
], ids=["sample-empty-object", "sample-list", "sample-deeply-nested", "ask-empty-object",
        "ask-positive-logprob", "ask-nan-logprob", "embed-null-embedding", "embed-deeply-nested",
        "embed-nan-value", "embed-infinite-value", "embed-two-vectors-for-one-input",
        "embed-index-out-of-range", "embed-duplicate-index", "embed-missing-index"])
def test_malformed_reply_is_retried_then_typed_error(call, body, error):
    with replying(body) as post:
        with pytest.raises(error, match="malformed reply"):
            call(retries=2)
    assert post.call_count == 3


def test_malformed_reply_then_good_reply_succeeds():
    with replying({"data": []}, {"data": [{"embedding": [0.6, 0.8]}]}) as post:
        vector = embed(retries=1)
    assert vector.values == (0.6, 0.8)
    assert post.call_count == 2


def test_embeddings_placed_by_index_in_a_reversed_reply():
    with replying(vectors(1, 0)) as post:
        pair = embed_pair(retries=0)
    assert [v.values for v in pair] == [(1.0,), (2.0,)]
    assert post.call_count == 1


def test_a_failed_request_keeps_the_vectors_of_earlier_requests():
    config = EmbeddingProviderConfig(kind=ProviderKind.REMOTE, endpoint=ENDPOINT,
                                     model_name=next(_models), retries=0, backoff=0.0)
    texts = [f"requirement {i}" for i in range(40)]
    with replying({"data": [{"embedding": [1.0]}] * 32}, {"data": []}) as post:
        with pytest.raises(ProviderUnavailable, match="malformed reply"):
            prefetch(texts, config)
        assert post.call_count == 2
        prefetch(texts[:32], config)
        assert post.call_count == 2
