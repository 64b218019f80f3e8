import math

import pytest

from honest import client
from honest.client import (
    FIXED_TEMPERATURES,
    SamplingConfig,
    SeedMode,
    ask_yes_no,
    extract_code_block,
    sample_programs,
    sample_records,
)
from honest.embeddings import EmbeddingProviderConfig, ProviderKind, embed_text
from honest.errors import (EmptyCompletion, EndpointError, LogprobsUnavailable,
                           ProviderUnavailable, TooFewUsable)
from honest.model import Language

# A well-formed endpoint for configs that send nothing (port 9 is discard).
ENDPOINT = "http://127.0.0.1:9/v1"


def config(server, **overrides):
    base = dict(endpoint=server.endpoint, model="mock", n=5, parallelism=4,
                retries=2, backoff=0.01)
    base.update(overrides)
    return SamplingConfig(**base)


class TestExtractCodeBlock:
    def test_fenced_with_language_tag(self):
        assert extract_code_block("```python\nx = 1\n```") == "x = 1"

    def test_fenced_without_tag(self):
        assert extract_code_block("```\nx = 1\n```") == "x = 1"

    def test_first_fence_wins(self):
        raw = "```python\na = 1\n```\ntext\n```python\nb = 2\n```"
        assert extract_code_block(raw) == "a = 1"

    def test_surrounding_prose_stripped(self):
        raw = "Sure, here you go:\n```python\nx = 1\n```\nHope that helps."
        assert extract_code_block(raw) == "x = 1"

    def test_no_fence_returns_trimmed_whole(self):
        assert extract_code_block("  x = 1\n") == "x = 1"

    def test_idempotent_on_plain_code(self):
        code = "def f():\n    return 1"
        assert extract_code_block(extract_code_block(f"```python\n{code}\n```")) == code

    def test_crlf_fence(self):
        assert extract_code_block("```python\r\nx = 1\n```") == "x = 1"


class TestSamplingConfig:
    def test_temperature_range(self):
        with pytest.raises(ValueError):
            SamplingConfig(endpoint=ENDPOINT, model="m", temperature=2.5)

    def test_fixed_schedule_temperatures(self):
        c = SamplingConfig(endpoint=ENDPOINT, model="m", n=20,
                           seed_mode=SeedMode.FIXED_SCHEDULE)
        assert c.temperatures() == [0.0, 0.2, 0.6, 0.8, 1.0]
        assert FIXED_TEMPERATURES == (0.0, 0.2, 0.6, 0.8, 1.0)

    def test_independent_temperatures(self):
        c = SamplingConfig(endpoint=ENDPOINT, model="m", n=3, temperature=0.7)
        assert c.temperatures() == [0.7, 0.7, 0.7]

    def test_retries_at_least_zero(self):
        assert SamplingConfig(endpoint=ENDPOINT, model="m", retries=0).retries == 0
        with pytest.raises(ValueError, match="retries"):
            SamplingConfig(endpoint=ENDPOINT, model="m", retries=-1)

    @pytest.mark.parametrize("backoff", [-1.0, -0.01, math.inf, math.nan])
    def test_backoff_finite_and_at_least_zero(self, backoff):
        assert SamplingConfig(endpoint=ENDPOINT, model="m", backoff=0.0).backoff == 0.0
        with pytest.raises(ValueError, match="backoff"):
            SamplingConfig(endpoint=ENDPOINT, model="m", backoff=backoff)

    @pytest.mark.parametrize("timeout", [0.0, -1.0, math.inf, math.nan])
    def test_timeout_finite_and_positive(self, timeout):
        assert SamplingConfig(endpoint=ENDPOINT, model="m", timeout=0.01).timeout == 0.01
        with pytest.raises(ValueError, match="timeout"):
            SamplingConfig(endpoint=ENDPOINT, model="m", timeout=timeout)


class TestSampling:
    def test_sample_count_and_order(self, mock_server):
        records = sample_records("sort a list", Language.PYTHON, config(mock_server))
        assert len(records) == 5
        indices = [r.program.origin.sample_index for r in records]
        assert indices == [0, 1, 2, 3, 4]

    def test_token_probs_are_probabilities(self, mock_server):
        records = sample_records("sort a list", Language.PYTHON, config(mock_server))
        for record in records:
            probs = record.program.origin.token_probs
            assert probs
            assert all(0.0 < p <= 1.0 for p in probs)

    def test_stable_prompt_yields_identical_programs(self, mock_server):
        ss = sample_programs("STABLE reverse a string", Language.PYTHON,
                             config(mock_server), requirement_id="r1")
        assert len({p.source for p in ss.programs}) == 1
        assert ss.requirement_id == "r1"

    def test_unfenced_flag_set(self, mock_server):
        records = sample_records("NOFENCE describe", Language.PYTHON,
                                 config(mock_server, n=2))
        assert all(r.program.origin.unfenced for r in records)

    def test_retry_on_transient_failure(self, mock_server):
        before = mock_server.request_count
        records = sample_records("FAILTWICE STABLE go", Language.PYTHON,
                                 config(mock_server, n=1))
        assert len(records) == 1
        assert mock_server.request_count - before == 3  # two 500s, then success

    def test_retries_exhausted_raises(self, mock_server):
        with pytest.raises(EndpointError):
            sample_records("FAILTWICE STABLE too few attempts", Language.PYTHON,
                           config(mock_server, n=1, retries=1))

    def test_unreachable_endpoint(self):
        bad = SamplingConfig(endpoint="http://127.0.0.1:9/v1", model="m",
                             n=1, retries=0, backoff=0.0, timeout=0.5)
        with pytest.raises(EndpointError):
            sample_records("x", Language.PYTHON, bad)

    def test_parallelism_is_bounded(self, mock_server):
        mock_server.max_in_flight = 0
        mock_server.delay = 0.05
        try:
            sample_records("sort", Language.PYTHON,
                           config(mock_server, n=8, parallelism=3))
        finally:
            mock_server.delay = 0.0
        assert 1 < mock_server.max_in_flight <= 3

    def test_all_empty_completions(self, mock_server):
        with pytest.raises(EmptyCompletion):
            sample_programs("EMPTY", Language.PYTHON, config(mock_server, n=2))

    def test_too_few_usable(self, mock_server):
        # the fixed schedule includes exactly one temperature-zero request,
        # so only one completion comes back non-empty
        with pytest.raises(TooFewUsable):
            sample_programs("ONLYZERO sort", Language.PYTHON,
                            config(mock_server, n=5,
                                   seed_mode=SeedMode.FIXED_SCHEDULE))

    def test_audit_log_written(self, mock_server, tmp_path):
        log = tmp_path / "audit.jsonl"
        sample_records("sort", Language.PYTHON,
                       config(mock_server, n=3, audit_log=str(log)))
        lines = log.read_text().splitlines()
        assert len(lines) == 3
        import json
        for line in lines:
            entry = json.loads(line)
            assert "request" in entry and "response" in entry


class TestAskYesNo:
    def test_renormalized_yes_mass(self, mock_server):
        mock_server.judge_alternatives = [("Yes", math.log(0.7)), ("No", math.log(0.2))]
        p = ask_yes_no("Answer with exactly one word: Yes or No.",
                       config(mock_server))
        assert p == pytest.approx(0.7 / 0.9, abs=1e-9)

    def test_yes_only_uses_raw_mass(self, mock_server):
        mock_server.judge_alternatives = [("Yes", math.log(0.4))]
        p = ask_yes_no("Answer with exactly one word: Yes or No.",
                       config(mock_server))
        assert p == pytest.approx(0.4, abs=1e-9)

    def test_no_only_scores_zero(self, mock_server):
        mock_server.judge_alternatives = [("No", math.log(0.8))]
        p = ask_yes_no("Answer with exactly one word: Yes or No.",
                       config(mock_server))
        assert p == 0.0

    def test_case_and_whitespace_insensitive_tokens(self, mock_server):
        mock_server.judge_alternatives = [(" YES", math.log(0.5)),
                                          ("no", math.log(0.25))]
        p = ask_yes_no("Answer with exactly one word: Yes or No.",
                       config(mock_server))
        assert p == pytest.approx(0.5 / 0.75, abs=1e-9)

    def test_missing_logprobs(self, mock_server):
        with pytest.raises(LogprobsUnavailable):
            ask_yes_no("NOLOGPROBS Answer with exactly one word: Yes or No.",
                       config(mock_server))


@pytest.mark.parametrize("key", ["test-key", None])
def test_api_key_is_a_bearer_token_on_every_request(mock_server, monkeypatch, key):
    """HONEST_API_KEY, when set, goes out as ``Authorization: Bearer`` on chat and
    /embeddings requests alike; unset, no request carries the header."""
    if key:
        monkeypatch.setenv("HONEST_API_KEY", key)
    else:
        monkeypatch.delenv("HONEST_API_KEY", raising=False)
    before = len(mock_server.requests)
    sample_records("STABLE sort", Language.PYTHON, config(mock_server, n=1))
    embed_text("sort a list", EmbeddingProviderConfig(
        kind=ProviderKind.REMOTE, endpoint=mock_server.endpoint,
        model_name=f"api-key-{key}"))
    sent = mock_server.requests[before:]
    assert [path for path, _ in sent] == ["/v1/chat/completions", "/v1/embeddings"]
    assert [headers.get("Authorization") for _, headers in sent] == (
        [f"Bearer {key}"] * 2 if key else [None, None])


@pytest.mark.parametrize("key", ["line\nbreak", "carriage\r\nreturn", "tab\tkey",
                                 "ellipsis\u2026"])
def test_a_key_that_is_not_printable_ascii_is_refused_unsent(mock_server, monkeypatch, key):
    """An HONEST_API_KEY that cannot be a bearer token raises the caller's
    typed error naming the variable, before any attempt; the first two keys
    would make ``urlopen`` refuse the header on every attempt."""
    monkeypatch.setenv("HONEST_API_KEY", key)
    attempts = []
    monkeypatch.setattr(client.urllib.request, "urlopen",
                        lambda *args, **kwargs: attempts.append(args))
    with pytest.raises(EndpointError, match="HONEST_API_KEY"):
        sample_records("STABLE sort", Language.PYTHON, config(mock_server, n=1))
    with pytest.raises(ProviderUnavailable, match="HONEST_API_KEY"):
        embed_text("sort a list", EmbeddingProviderConfig(
            kind=ProviderKind.REMOTE, endpoint=mock_server.endpoint, model_name="bad-key"))
    assert attempts == []
