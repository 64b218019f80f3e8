"""OpenAI-compatible chat-completions client: temperature sampling of N
candidate programs, code-fence extraction, and yes/no self-ask probes."""
from __future__ import annotations

import http.client
import json
import math
import os
import re
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Any, Callable, Optional, TypeVar

from .errors import (
    EmptyCompletion,
    EndpointError,
    HonestError,
    LogprobsUnavailable,
    TooFewUsable,
)
from .model import Language, Origin, Program, SampleSet

API_KEY_ENV = "HONEST_API_KEY"
ENDPOINT_ENV = "HONEST_ENDPOINT"

# Fixed five-temperature schedule used by the preset sampling mode.
FIXED_TEMPERATURES = (0.0, 0.2, 0.6, 0.8, 1.0)

T = TypeVar("T")

# Zero-shot stand-in prompt; the exact production prompt is deployment-specific.
CODEGEN_PROMPT = (
    "You are an expert {language} developer.\n"
    "Solve the following requirement. Reply with exactly one fenced code block"
    " containing a complete {language} program, and nothing else.\n\n"
    "Requirement:\n{requirement}\n"
)

CODE_JUDGE_PROMPT = (
    "Here is a requirement and a candidate program.\n\nRequirement:\n{requirement}\n\n"
    "Program:\n{program}\n\n"
    "Is this program functionally correct for the requirement?"
    " Answer with exactly one word: Yes or No.\n"
)

REQUIREMENT_JUDGE_PROMPT = (
    "Here is a programming requirement:\n{requirement}\n\n"
    "Can you solve this requirement correctly?"
    " Answer with exactly one word: Yes or No.\n"
)


def _check_endpoint(endpoint: str) -> None:
    """Raise ValueError unless *endpoint* is an http(s) URL with a host and
    a usable port, if it names one: ``urlopen`` would also open ``file:``
    and ``ftp:`` URLs."""
    parts = urllib.parse.urlsplit(endpoint)
    # reading .port raises ValueError on a port that is not a number up to 65535
    if parts.scheme not in ("http", "https") or not parts.hostname or parts.port == 0:
        raise ValueError(f"endpoint must be an http(s) URL with a host, got {endpoint!r}")


class SeedMode(Enum):
    INDEPENDENT = "independent"
    FIXED_SCHEDULE = "fixed-schedule"


@dataclass(frozen=True)
class SamplingConfig:
    endpoint: str
    model: str
    n: int = 20
    temperature: float = 1.0
    max_tokens: int = 1024
    parallelism: int = 4
    seed_mode: SeedMode = SeedMode.INDEPENDENT
    retries: int = 2
    backoff: float = 0.5
    timeout: float = 120.0
    audit_log: Optional[str] = None  # JSON Lines of raw request/response pairs

    def __post_init__(self):
        _check_endpoint(self.endpoint)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be in [0, 2]")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")

    def temperatures(self) -> list[float]:
        if self.seed_mode is SeedMode.FIXED_SCHEDULE:
            return list(FIXED_TEMPERATURES)
        return [self.temperature] * self.n


@dataclass(frozen=True)
class GenerationRecord:
    program: Program


_FENCE_RE = re.compile(r"```[ \t]*[\w+-]*[ \t]*\r?\n(.*?)```", re.DOTALL)

_audit_lock = threading.Lock()


def extract_code_block(response: str) -> str:
    """First triple-backtick fenced block with the language tag stripped;
    falls back to the whole trimmed response when no fence exists."""
    match = _FENCE_RE.search(response)
    if match:
        return match.group(1).strip("\n")
    return response.strip()


# What reading a reply that is not JSON (ValueError), JSON nested too deep to
# decode (RecursionError), or JSON of the wrong shape raises: a missing key or
# index, a value of the wrong type (or without the method read calls on it), or
# a number out of range.
_MALFORMED_REPLY = (LookupError, TypeError, AttributeError, ValueError, OverflowError,
                    RecursionError)


def _post_json(url: str, body: dict, read: Callable[[Any], T],
               error: type[HonestError], *, retries: int, backoff: float,
               timeout: float) -> T:
    """POST *body* as JSON and return ``read(reply)``.

    Tries ``retries + 1`` times, sleeping ``backoff * 2**(attempt - 1)``
    between attempts. A transport error, an HTTP error status and a reply
    that *read* cannot read each count as a failed attempt; after the last
    one, raises *error*.
    """
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(
        url, data=json.dumps(body, allow_nan=False).encode(), headers=headers)
    last_error = ""
    for attempt in range(retries + 1):
        if attempt:
            time.sleep(backoff * 2 ** (attempt - 1))
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                return read(json.load(resp))
        except urllib.error.HTTPError as exc:  # a 4xx or 5xx status
            exc.close()
            last_error = str(exc)
        except (OSError, http.client.HTTPException) as exc:
            last_error = str(exc)
        except _MALFORMED_REPLY as exc:
            last_error = f"malformed reply ({type(exc).__name__}: {exc})"
    raise error(last_error)


def _chat(prompt: str, temperature: float, max_tokens: int,
          config: SamplingConfig, read: Callable[[dict], T]) -> T:
    """One chat completion of *prompt*; returns ``read(choice)`` of its first
    choice. Raises EndpointError after the configured retries."""
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": temperature,
        "max_tokens": max_tokens,
        "logprobs": True,
        "top_logprobs": 5,
        "n": 1,
    }
    data, value = _post_json(
        config.endpoint.rstrip("/") + "/chat/completions", payload,
        lambda reply: (reply, read(reply["choices"][0])), EndpointError,
        retries=config.retries, backoff=config.backoff, timeout=config.timeout)
    if config.audit_log:
        line = json.dumps({"request": payload, "response": data}, sort_keys=True)
        with _audit_lock:
            with open(config.audit_log, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
    return value


def _logprobs(choice: dict) -> list:
    """The per-token log-probabilities of a choice; empty when it has none."""
    return (choice.get("logprobs") or {}).get("content") or []


def _record(choice: dict, language: Language, temperature: float,
            index: int) -> GenerationRecord:
    raw = choice["message"]["content"] or ""
    source = extract_code_block(raw)
    probs = tuple(math.exp(item["logprob"]) for item in _logprobs(choice)
                  if item.get("logprob") is not None)
    program = Program(
        source=source,
        language=language,
        origin=Origin(sample_index=index, temperature=temperature,
                      token_probs=probs or None,
                      unfenced=_FENCE_RE.search(raw) is None),
    )
    return GenerationRecord(program=program)


def sample_records(requirement: str, language: Language,
                   config: SamplingConfig) -> list[GenerationRecord]:
    prompt = CODEGEN_PROMPT.format(language=language.value, requirement=requirement)
    with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
        futures = [pool.submit(_chat, prompt, t, config.max_tokens, config,
                               partial(_record, language=language,
                                       temperature=t, index=i))
                   for i, t in enumerate(config.temperatures())]
        return [f.result() for f in futures]  # request order, not arrival order


def sample_programs(requirement: str, language: Language,
                    config: SamplingConfig,
                    requirement_id: str = "") -> SampleSet:
    """Sample N candidate programs at the configured temperatures.

    Requests run concurrently, bounded by config.parallelism; the returned
    set preserves request order. Raises TooFewUsable when fewer than two
    responses yield a non-empty program.
    """
    records = sample_records(requirement, language, config)
    usable = [r.program for r in records if r.program.source.strip()]
    if not usable:
        raise EmptyCompletion("every completion was empty")
    if len(usable) < 2:
        raise TooFewUsable(f"only {len(usable)} usable program(s)")
    return SampleSet(requirement_id=requirement_id, requirement=requirement,
                     programs=tuple(usable))


def _probability(logprob: float) -> float:
    if not logprob <= 0.0:  # also rejects NaN
        raise ValueError(f"log-probability must be <= 0, got {logprob!r}")
    return math.exp(logprob)


def _yes_probability(choice: dict) -> Optional[float]:
    content = _logprobs(choice)
    if not content:
        return None
    alternatives = content[0].get("top_logprobs") or [content[0]]
    yes_mass = 0.0
    no_mass = 0.0
    for alt in alternatives:
        token = (alt.get("token") or "").strip().lower()
        if token == "yes":
            yes_mass += _probability(alt["logprob"])
        elif token == "no":
            no_mass += _probability(alt["logprob"])
    if yes_mass > 0.0 and no_mass > 0.0:
        return yes_mass / (yes_mass + no_mass)
    return yes_mass


def ask_yes_no(prompt: str, config: SamplingConfig) -> float:
    """Probability mass on a "Yes" first token, renormalized over the combined
    Yes/No mass when both appear in the top-k alternatives."""
    score = _chat(prompt, 0.0, 4, config, _yes_probability)
    if score is None:
        raise LogprobsUnavailable("endpoint returned no log-probabilities")
    return score
