"""OpenAI-compatible chat-completions client: temperature sampling of N
candidate programs, code-fence extraction, and yes/no self-ask probes."""
from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import requests

from .errors import EmptyCompletion, EndpointError, LogprobsUnavailable, TooFewUsable
from .model import Language, Origin, Program, SampleSet

API_KEY_ENV = "HONEST_API_KEY"
ENDPOINT_ENV = "HONEST_ENDPOINT"

# Fixed five-temperature schedule used by the preset sampling mode.
FIXED_TEMPERATURES = (0.0, 0.2, 0.6, 0.8, 1.0)

PROMPT_VERSION = "v1"

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
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be in [0, 2]")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")

    def temperatures(self) -> list[float]:
        if self.seed_mode is SeedMode.FIXED_SCHEDULE:
            return list(FIXED_TEMPERATURES)
        return [self.temperature] * self.n


@dataclass(frozen=True)
class GenerationRecord:
    program: Program
    raw_response: str
    token_probs: tuple[float, ...]
    finish_reason: str
    unfenced: bool = False


_FENCE_RE = re.compile(r"```[ \t]*[\w+-]*[ \t]*\r?\n(.*?)```", re.DOTALL)

_audit_lock = threading.Lock()


def extract_code_block(response: str) -> str:
    """First triple-backtick fenced block with the language tag stripped;
    falls back to the whole trimmed response when no fence exists."""
    match = _FENCE_RE.search(response)
    if match:
        return match.group(1).strip("\n")
    return response.strip()


def _post_chat(url: str, payload: dict, config: SamplingConfig) -> dict:
    headers = {}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last_error: Exception | None = None
    for attempt in range(config.retries + 1):
        if attempt:
            time.sleep(config.backoff * 2 ** (attempt - 1))
        try:
            resp = requests.post(url, json=payload, headers=headers,
                                 timeout=config.timeout)
            resp.raise_for_status()
            data = resp.json()
            break
        except (requests.RequestException, ValueError) as exc:
            last_error = exc
    else:
        raise EndpointError(str(last_error))
    if config.audit_log:
        line = json.dumps({"request": payload, "response": data}, sort_keys=True)
        with _audit_lock:
            with open(config.audit_log, "a") as fh:
                fh.write(line + "\n")
    return data


def _completion_url(endpoint: str) -> str:
    return endpoint.rstrip("/") + "/chat/completions"


def _token_probs(choice: dict) -> tuple[float, ...]:
    logprobs = choice.get("logprobs") or {}
    content = logprobs.get("content") or []
    return tuple(math.exp(item["logprob"]) for item in content
                 if item.get("logprob") is not None)


def _one_completion(requirement: str, language: Language, temperature: float,
                    index: int, config: SamplingConfig) -> GenerationRecord:
    payload = {
        "model": config.model,
        "messages": [{
            "role": "user",
            "content": CODEGEN_PROMPT.format(language=language.value,
                                             requirement=requirement),
        }],
        "temperature": temperature,
        "max_tokens": config.max_tokens,
        "logprobs": True,
        "top_logprobs": 5,
        "n": 1,
    }
    data = _post_chat(_completion_url(config.endpoint), payload, config)
    choice = data["choices"][0]
    raw = choice["message"]["content"] or ""
    source = extract_code_block(raw)
    unfenced = _FENCE_RE.search(raw) is None
    probs = _token_probs(choice)
    program = Program(
        source=source,
        language=language,
        origin=Origin(sample_index=index, temperature=temperature,
                      token_probs=probs or None, unfenced=unfenced),
    )
    return GenerationRecord(program=program, raw_response=raw,
                            token_probs=probs,
                            finish_reason=choice.get("finish_reason", ""),
                            unfenced=unfenced)


def sample_records(requirement: str, language: Language,
                   config: SamplingConfig) -> list[GenerationRecord]:
    temps = config.temperatures()
    with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
        futures = [pool.submit(_one_completion, requirement, language, t, i, config)
                   for i, t in enumerate(temps)]
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


def ask_yes_no(prompt: str, config: SamplingConfig) -> float:
    """Probability mass on a "Yes" first token, renormalized over the combined
    Yes/No mass when both appear in the top-k alternatives."""
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": 0.0,
        "max_tokens": 4,
        "logprobs": True,
        "top_logprobs": 5,
        "n": 1,
    }
    data = _post_chat(_completion_url(config.endpoint), payload, config)
    choice = data["choices"][0]
    logprobs = choice.get("logprobs") or {}
    content = logprobs.get("content") or []
    if not content:
        raise LogprobsUnavailable("endpoint returned no log-probabilities")
    alternatives = content[0].get("top_logprobs") or [content[0]]
    yes_mass = 0.0
    no_mass = 0.0
    for alt in alternatives:
        token = (alt.get("token") or "").strip().lower()
        if token == "yes":
            yes_mass += math.exp(alt["logprob"])
        elif token == "no":
            no_mass += math.exp(alt["logprob"])
    if yes_mass > 0.0 and no_mass > 0.0:
        return yes_mass / (yes_mass + no_mass)
    return yes_mass
