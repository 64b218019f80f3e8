"""JSON Lines benchmark and sample-archive I/O.

Benchmark files carry one object per line:
  {"id": ..., "language": "python"|"java", "requirement": ...,
   "labels": {model: "passed"|"failed", ...}, "split": "train"|"test"}

Sample archives replay offline what the sampling stage would produce:
  {"id": ..., "model": ..., "programs": [
     {"source": ..., "temperature": ..., "token_probs": [...]?, "verdict": "passed"|"failed"?}]}

Paths ending in .gz are transparently gzip-compressed.
"""
from __future__ import annotations

import gzip
import json
import logging
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import DuplicateId, MalformedLine, TooFewSamples, UnknownLanguage
from .model import Language, Origin

log = logging.getLogger(__name__)

_BENCHMARK_FIELDS = {"id", "language", "requirement", "labels", "split"}
_ARCHIVE_FIELDS = {"id", "model", "programs"}
_PROGRAM_FIELDS = {"source", "temperature", "token_probs", "verdict"}


@dataclass(frozen=True)
class BenchmarkSample:
    id: str
    language: Language
    requirement: str
    labels: dict[str, bool]  # model name -> passed?
    split: str  # "train" | "test"


@dataclass(frozen=True)
class ArchivedProgram:
    source: str
    temperature: float
    token_probs: Optional[tuple[float, ...]] = None
    verdict: Optional[bool] = None  # pluggable per-program correctness label


@dataclass(frozen=True)
class SampleArchiveEntry:
    id: str
    model: str
    programs: tuple[ArchivedProgram, ...]


def _open_text(path: str | Path, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _read_lines(path: str | Path) -> Iterable[tuple[int, dict]]:
    with _open_text(path, "r") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLine(number, f"invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise MalformedLine(number, "expected a JSON object")
            yield number, obj


def _parse_label(value, line_number: int) -> bool:
    if value == "passed":
        return True
    if value == "failed":
        return False
    raise MalformedLine(line_number, f"label must be passed/failed, got {value!r}")


def load_benchmark(path: str | Path) -> list[BenchmarkSample]:
    samples = []
    seen: set[str] = set()
    for number, obj in _read_lines(path):
        unknown = set(obj) - _BENCHMARK_FIELDS
        if unknown:
            log.warning("%s line %d: ignoring unknown fields %s", path, number,
                        sorted(unknown))
        for key in ("id", "language", "requirement", "labels", "split"):
            if key not in obj:
                raise MalformedLine(number, f"missing field {key!r}")
        if obj["id"] in seen:
            raise DuplicateId(obj["id"])
        seen.add(obj["id"])
        if obj["split"] not in ("train", "test"):
            raise MalformedLine(number, f"bad split {obj['split']!r}")
        try:
            language = Language.parse(obj["language"])
        except UnknownLanguage:
            raise
        labels = {model: _parse_label(v, number)
                  for model, v in obj["labels"].items()}
        samples.append(BenchmarkSample(
            id=obj["id"], language=language, requirement=obj["requirement"],
            labels=labels, split=obj["split"]))
    return samples


def save_benchmark(samples: Sequence[BenchmarkSample], path: str | Path) -> None:
    with _open_text(path, "w") as fh:
        for s in samples:
            fh.write(json.dumps({
                "id": s.id,
                "language": s.language.value,
                "requirement": s.requirement,
                "labels": {m: "passed" if v else "failed"
                           for m, v in sorted(s.labels.items())},
                "split": s.split,
            }, sort_keys=True) + "\n")


def split_benchmark(samples: Sequence[BenchmarkSample], ratio: float,
                    seed: int) -> tuple[list[BenchmarkSample], list[BenchmarkSample]]:
    """Deterministic seeded shuffle, then split at floor(ratio * n)."""
    if len(samples) < 2:
        raise TooFewSamples("need at least 2 samples to split")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    order = list(samples)
    random.Random(seed).shuffle(order)
    cut = int(ratio * len(order))
    return order[:cut], order[cut:]


def load_samples(path: str | Path) -> list[SampleArchiveEntry]:
    entries = []
    for number, obj in _read_lines(path):
        unknown = set(obj) - _ARCHIVE_FIELDS
        if unknown:
            log.warning("%s line %d: ignoring unknown fields %s", path, number,
                        sorted(unknown))
        for key in ("id", "model", "programs"):
            if key not in obj:
                raise MalformedLine(number, f"missing field {key!r}")
        if not obj["programs"]:
            raise MalformedLine(number, "programs list is empty")
        programs = []
        for p in obj["programs"]:
            if "source" not in p or "temperature" not in p:
                raise MalformedLine(number, "program needs source and temperature")
            probs = p.get("token_probs")
            verdict = p.get("verdict")
            try:
                # the bounds a sampled program's Origin enforces
                origin = Origin(temperature=float(p["temperature"]),
                                token_probs=tuple(probs) if probs else None)
            except (TypeError, ValueError) as exc:
                raise MalformedLine(number, str(exc)) from None
            programs.append(ArchivedProgram(
                source=p["source"],
                temperature=origin.temperature,
                token_probs=origin.token_probs,
                verdict=_parse_label(verdict, number) if verdict is not None else None,
            ))
        entries.append(SampleArchiveEntry(id=obj["id"], model=obj["model"],
                                          programs=tuple(programs)))
    return entries


def save_samples(entries: Sequence[SampleArchiveEntry], path: str | Path) -> None:
    with _open_text(path, "w") as fh:
        for e in entries:
            programs = []
            for p in e.programs:
                rec: dict = {"source": p.source, "temperature": p.temperature}
                if p.token_probs is not None:
                    rec["token_probs"] = list(p.token_probs)
                if p.verdict is not None:
                    rec["verdict"] = "passed" if p.verdict else "failed"
                programs.append(rec)
            fh.write(json.dumps({"id": e.id, "model": e.model,
                                 "programs": programs}, sort_keys=True) + "\n")
