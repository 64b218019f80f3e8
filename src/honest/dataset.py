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
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .errors import DuplicateId, MalformedLine
from .model import Language, Origin

log = logging.getLogger(__name__)

_BENCHMARK_FIELDS = {"id", "language", "requirement", "labels", "split"}
_ARCHIVE_FIELDS = {"id", "model", "programs"}


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


def write_text(path: str | Path, text: str) -> None:
    """Write *text* as UTF-8, gzipped with no timestamp for .gz, to a new file that then
    replaces *path*: a failed write keeps the old file. Modes are ``open(path, "w")``'s."""
    path = Path(path)
    data = text.encode("utf-8")
    if path.suffix == ".gz":
        data = gzip.compress(data, mtime=0)
    if path.exists() and not path.is_file():  # a FIFO or /dev/stdout: nothing to replace
        path.write_bytes(data)
        return
    path = path.resolve()  # through a symlink, as open(path, "w") writes
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        tmp.write_bytes(data)
        if path.exists():
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone after the replace


def _open_text(path: str | Path):
    opener = gzip.open if Path(path).suffix == ".gz" else open
    return opener(path, "rt", encoding="utf-8", newline="\n")  # only "\n" ends a line


def read_lines(path: str | Path, fields: set[str]) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line of a JSON Lines file;
    keys outside *fields* are logged as ignored."""
    with _open_text(path) as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also a too-long int
                raise MalformedLine(number, f"invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise MalformedLine(number, "expected a JSON object")
            if set(obj) - fields:
                log.warning("%s line %d: ignoring unknown fields %s", path, number,
                            sorted(set(obj) - fields))
            yield number, obj


def _field(obj: dict, key: str, kind: type, line_number: int):
    """``obj[key]``, which must be present and an instance of *kind*."""
    if key not in obj:
        raise MalformedLine(line_number, f"missing field {key!r}")
    if not isinstance(obj[key], kind):
        raise MalformedLine(line_number, f"field {key!r} must be a "
                            f"{kind.__name__}, got {obj[key]!r}")
    return obj[key]


def _parse_label(value, line_number: int) -> bool:
    if value == "passed":
        return True
    if value == "failed":
        return False
    raise MalformedLine(line_number, f"label must be passed/failed, got {value!r}")


def load_benchmark(path: str | Path) -> list[BenchmarkSample]:
    samples = []
    seen: set[str] = set()
    for number, obj in read_lines(path, _BENCHMARK_FIELDS):
        rid, language, requirement, labels, split = (
            _field(obj, key, kind, number) for key, kind in (
                ("id", str), ("language", str), ("requirement", str),
                ("labels", dict), ("split", str)))
        if rid in seen:
            raise DuplicateId(rid)
        seen.add(rid)
        if split not in ("train", "test"):
            raise MalformedLine(number, f"bad split {split!r}")
        samples.append(BenchmarkSample(
            id=rid, language=Language.parse(language), requirement=requirement,
            labels={model: _parse_label(v, number) for model, v in labels.items()},
            split=split))
    return samples


def save_benchmark(samples: Sequence[BenchmarkSample], path: str | Path) -> None:
    write_text(path, "".join(json.dumps({
        "id": s.id,
        "language": s.language.value,
        "requirement": s.requirement,
        "labels": {m: "passed" if v else "failed" for m, v in sorted(s.labels.items())},
        "split": s.split,
    }, sort_keys=True) + "\n" for s in samples))


def load_samples(path: str | Path) -> list[SampleArchiveEntry]:
    entries = []
    for number, obj in read_lines(path, _ARCHIVE_FIELDS):
        rid, model, items = (_field(obj, key, kind, number) for key, kind in (
            ("id", str), ("model", str), ("programs", list)))
        if not items:
            raise MalformedLine(number, "programs list is empty")
        programs = []
        for p in items:
            if not isinstance(p, dict) or "source" not in p or "temperature" not in p:
                raise MalformedLine(number, "program needs source and temperature")
            probs = p.get("token_probs")
            verdict = p.get("verdict")
            try:
                if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in [p["temperature"], *(probs or ())]):
                    raise TypeError("temperature and token_probs must be JSON numbers")
                # the bounds a sampled program's Origin enforces
                origin = Origin(temperature=float(p["temperature"]),
                                token_probs=tuple(probs) if probs else None)
            except (TypeError, ValueError, OverflowError) as exc:
                raise MalformedLine(number, str(exc)) from None
            programs.append(ArchivedProgram(
                source=_field(p, "source", str, number),
                temperature=origin.temperature,
                token_probs=origin.token_probs,
                verdict=_parse_label(verdict, number) if verdict is not None else None,
            ))
        entries.append(SampleArchiveEntry(id=rid, model=model,
                                          programs=tuple(programs)))
    return entries


def save_samples(entries: Sequence[SampleArchiveEntry], path: str | Path) -> None:
    lines = []
    for e in entries:
        programs = []
        for p in e.programs:
            rec: dict = {"source": p.source, "temperature": p.temperature}
            if p.token_probs is not None:
                rec["token_probs"] = list(p.token_probs)
            if p.verdict is not None:
                rec["verdict"] = "passed" if p.verdict else "failed"
            programs.append(rec)
        lines.append(json.dumps({"id": e.id, "model": e.model,
                                 "programs": programs}, sort_keys=True) + "\n")
    write_text(path, "".join(lines))
