"""The four workloads. Each one generates its inputs from the seed, runs one
operation at a time through the public API or CLI of ``honest``, and checks
the outputs against golden values or the reference in ``reference.py``.

A workload object has:

* ``setup(seed, workdir)`` / ``teardown()``: inputs, files and the stub;
* ``op(k)``: the k-th operation, returning what the check compares;
* ``sizes(k)``: (sets, programs, Python programs) the k-th operation feeds in;
* ``golden(k)`` / ``reference(k)``: the expected output, or None;
* ``matches_reference(got, want)``: the comparison the check uses;
* ``reference_ops``: which operations the reference recomputes on seeds
  that have no golden values;
* ``cycle``: the number of consecutive operations, from a multiple of it,
  that make up the workload's whole mix;
* ``op_s``: the seed code's wall time per operation on the 2-vCPU VM the
  benchmark was calibrated on, at its slow speed level. A run's operation
  count is sized from it and ``--seconds`` (see ``run.op_count``);
* ``repeatable``: whether operation k may run a second time at the same
  cost. The traced run repeats the untraced run's operations when it is,
  and takes as many new ones, in the same mix, when it is not.
"""
from __future__ import annotations

import contextlib
import gzip
import inspect
import io
import json
import os
import random
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import NamedTuple

import honest.cli
import honest.client
import honest.confidence
import honest.gate
from honest.client import SamplingConfig, extract_code_block
from honest.embeddings import EmbeddingProviderConfig, ProviderKind
from honest.model import Language, Program, SampleSet
from honest.similarity import SimilarityWeights

import gen
import reference

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
DEFAULT_SEED = 0

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
PARALLEL = max(1, min(2, NPROC))  # threads and connections: at most nproc

LOCAL = EmbeddingProviderConfig(kind=ProviderKind.LOCAL_HASHED)
UNIFORM = SimilarityWeights.uniform()


def _load_golden(name: str, seed: int):
    if seed != DEFAULT_SEED or not GOLDEN_PATH.exists():
        return None
    return json.loads(GOLDEN_PATH.read_text()).get(name)


def _estimate(samples: SampleSet, provider, workers: int):
    """``estimate_confidence`` through the module attribute, so the traced
    run sees the call; ``workers`` only where the signature still has it."""
    fn = honest.confidence.estimate_confidence
    if "workers" in inspect.signature(fn).parameters:
        return fn(samples, UNIFORM, provider, workers=workers)
    return fn(samples, UNIFORM, provider)


def same(got, want) -> bool:
    """Floats within 1e-12, tuned weights exactly, everything else equal."""
    if isinstance(want, float) and isinstance(got, (int, float)):
        return reference.close(float(got), want)
    if isinstance(want, dict) and isinstance(got, dict):
        return want.keys() == got.keys() and all(
            list(got[k]) == list(want[k]) if k == "weights" else same(got[k], want[k])
            for k in want)
    if isinstance(want, list) and isinstance(got, (list, tuple)):
        return len(want) == len(got) and all(same(g, w) for g, w in zip(got, want))
    return got == want


# ---------------------------------------------------------------------------
# estimate-n50 and hostile-n20: estimate_confidence over a cycle of sets


class EstimateWorkload:
    """One op is ``estimate_confidence`` (local-hashed embeddings) on one
    sample set; the ops cycle through a seeded pool of sets."""

    reference_ops = (0,)
    repeatable = True
    matches_reference = staticmethod(same)

    def __init__(self, name: str, make_pool, op_s: float):
        self.name = name
        self.make_pool = make_pool
        self.op_s = op_s

    def setup(self, seed: int, workdir: Path) -> None:
        self.pool = [SampleSet(f"set-{i}", "", tuple(Program(s, lang) for s in sources))
                     for i, (lang, sources) in enumerate(self.make_pool(random.Random(seed)))]
        self.cycle = len(self.pool)
        self._golden = _load_golden(self.name, seed)

    def teardown(self) -> None:
        pass

    def _set(self, k: int) -> SampleSet:
        return self.pool[k % len(self.pool)]

    def op(self, k: int):
        return _estimate(self._set(k), LOCAL, workers=1).confidence

    def sizes(self, k: int) -> tuple[int, int, int]:
        s = self._set(k)
        return 1, len(s), len(s) if s.language is Language.PYTHON else 0

    def golden(self, k: int):
        return None if self._golden is None else self._golden[k % len(self.pool)]

    def reference(self, k: int):
        return reference.confidence(self._set(k).programs, UNIFORM, LOCAL)

    def record(self) -> list:
        """Golden entries for the whole pool: a value or an exception name."""
        out = []
        for k in range(len(self.pool)):
            try:
                out.append(self.op(k))
            except Exception as exc:  # recorded, not hidden: the op fails here
                out.append({"raises": type(exc).__name__})
        return out


def estimate_pool(rng: random.Random):
    """Mostly Python, some Java; confident sets alternate with unsure ones."""
    n = 50
    return [
        (Language.PYTHON, gen.agreement_set(rng, n, gen.python_program)),
        (Language.PYTHON, gen.diverse_set(rng, n, gen.python_program)),
        (Language.JAVA, gen.agreement_set(rng, n, gen.java_program)),
        (Language.PYTHON, gen.diverse_set(rng, n, gen.python_program)),
    ]


def hostile_pool(rng: random.Random):
    """Damaged output at N=20: seven Python sets and one Java set, whose
    programs include one nested 3000 parentheses deep."""
    n = 20
    return [(Language.JAVA, gen.hostile_java_set(rng, n)) if i == 5
            else (Language.PYTHON, gen.hostile_python_set(rng, n))
            for i in range(8)]


# ---------------------------------------------------------------------------
# tune-eval-n5: the CLI's tune, then eval with three methods


MODEL = "bench-model"
FIVE_TEMPERATURES = (0.0, 0.2, 0.6, 0.8, 1.0)
TRAIN_SETS = 240
TEST_SETS = 60


def _short_program(rng: random.Random, language: Language) -> str:
    pool = gen.PYTHON_SNIPPETS if language is Language.PYTHON else gen.JAVA_SNIPPETS
    return gen.rename_defs(rng.choice(pool), f"_{rng.randrange(10)}")


class Requirement(NamedTuple):
    id: str
    language: Language
    text: str
    split: str
    passed: bool
    programs: list  # (source, token probabilities, correct)


def _write_jsonl(path: Path, rows) -> None:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "wt", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_labeled_benchmark(rng: random.Random, bench_path: Path,
                            archive_path: Path) -> list[Requirement]:
    """Requirements with five programs each (the five-temperature preset),
    written in the benchmark and archive formats ``honest.dataset`` reads.
    Confident requirements repeat one program and pass more often."""
    requirements = []
    for i in range(TRAIN_SETS + TEST_SETS):
        language = Language.JAVA if i % 10 == 9 else Language.PYTHON
        confident = i % 2 == 0
        base = _short_program(rng, language)
        passed = rng.random() < (0.75 if confident else 0.3)
        programs = []
        for _ in FIVE_TEMPERATURES:
            repeat = rng.random() < (0.8 if confident else 0.3)
            source = base if repeat else _short_program(rng, language)
            high = 0.9 if confident else 0.6
            probs = [round(rng.uniform(high - 0.3, high + 0.1), 4) for _ in range(8)]
            programs.append((source, probs, passed and repeat))
        requirements.append(Requirement(
            f"req-{i}", language, gen.requirement_text(rng),
            "train" if i < TRAIN_SETS else "test", passed, programs))
    label = {True: "passed", False: "failed"}
    _write_jsonl(bench_path, (
        {"id": r.id, "language": r.language.value, "requirement": r.text,
         "labels": {MODEL: label[r.passed]}, "split": r.split}
        for r in requirements))
    _write_jsonl(archive_path, (
        {"id": r.id, "model": MODEL, "programs": [
            {"source": source, "temperature": t, "token_probs": probs,
             "verdict": label[correct]}
            for t, (source, probs, correct) in zip(FIVE_TEMPERATURES, r.programs)]}
        for r in requirements))
    return requirements


class CliFailed(Exception):
    """An ``honest`` command exited with a non-zero code."""


class TuneEvalWorkload:
    """One op is ``honest tune`` followed by ``honest eval`` with the methods
    honest, avg-prob and knn-bm25, all through ``honest.cli.main``."""

    name = "tune-eval-n5"
    reference_ops = (0,)
    cycle = 1
    op_s = 8.7
    repeatable = True

    def setup(self, seed: int, workdir: Path) -> None:
        self.bench = workdir / "benchmark.jsonl"
        self.archive = workdir / "archive.jsonl.gz"
        self.weights = workdir / "weights.json"
        self.sweep = workdir / "sweep.csv"
        self.requirements = write_labeled_benchmark(random.Random(seed), self.bench, self.archive)
        self._golden = _load_golden(self.name, seed)
        self.phase_s: list[tuple[float, float]] = []

    def teardown(self) -> None:
        pass

    def _cli(self, *argv) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = honest.cli.main([str(a) for a in argv])
        if code != 0:
            raise CliFailed(f"honest {argv[0]} exited {code}: {err.getvalue().strip()}")
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def op(self, k: int):
        common = ("--benchmark", self.bench, "--model", MODEL)
        start = time.perf_counter()
        tuned = self._cli("tune", *common, "--archive", self.archive, "--out", self.weights)
        mid = time.perf_counter()
        evals = {
            "honest": self._cli("eval", *common, "--archive", self.archive,
                                "--method", "honest", "--weights", self.weights,
                                "--sweep-out", self.sweep),
            "avg-prob": self._cli("eval", *common, "--archive", self.archive,
                                  "--method", "avg-prob"),
            "knn-bm25": self._cli("eval", *common, "--method", "knn-bm25"),
        }
        self.phase_s.append((mid - start, time.perf_counter() - mid))
        out = {
            "weights": [tuned[key] for key in ("alpha", "beta", "gamma", "delta")],
            "train_auroc": tuned["train_auroc"],
            "sweep_rows": len(self.sweep.read_text().splitlines()),
        }
        for method, result in evals.items():
            out[method] = {"auroc": result["auroc"], "aucpr": result["aucpr"]}
        out["knn-bm25"]["k"] = evals["knn-bm25"]["k"]
        return out

    def sizes(self, k: int) -> tuple[int, int, int]:
        programs = sum(len(r.programs) for r in self.requirements)
        python = sum(len(r.programs) for r in self.requirements
                     if r.language is Language.PYTHON)
        return len(self.requirements), programs, python

    def golden(self, k: int):
        return self._golden

    def _split(self, split: str):
        for r in self.requirements:
            if r.split == split:
                yield r, [Program(source, r.language) for source, _, _ in r.programs]

    def reference(self, k: int):
        """Everything but the K-NNS result, recomputed from public functions."""
        train = list(self._split("train"))
        means = [reference.modality_means(programs, LOCAL) for _, programs in train]
        weights, train_auroc = reference.tune(means, [r.passed for r, _ in train])
        tuned = SimilarityWeights(*weights)
        test = list(self._split("test"))
        labels = [r.passed for r, _ in test]
        honest_scores = [reference.confidence(programs, tuned, LOCAL) for _, programs in test]
        probs = [[p for _, ps, _ in r.programs for p in ps] for r, _ in test]
        avg_scores = [sum(ps) / len(ps) for ps in probs]
        return {
            "weights": list(weights),
            "train_auroc": train_auroc,
            "sweep_rows": 101,
            "honest": {"auroc": reference.auroc(honest_scores, labels),
                       "aucpr": reference.average_precision(honest_scores, labels)},
            "avg-prob": {"auroc": reference.auroc(avg_scores, labels),
                         "aucpr": reference.average_precision(avg_scores, labels)},
        }

    def matches_reference(self, got: dict, want: dict) -> bool:
        # the reference has no K-NNS
        return same({k: v for k, v in got.items() if k != "knn-bm25"}, want)

    def record(self):
        return self.op(0)


# ---------------------------------------------------------------------------
# online-gate-n20: sample from the stub, embed remotely, gate


THRESHOLD = 0.6
N_ONLINE = 20


class OnlineGateWorkload:
    """One op covers one requirement: ``client.sample_programs`` (N=20), then
    ``estimate_confidence`` with the remote embedding provider, then
    ``gate.decide``. Both endpoints are the benchmark's stub process.

    ``estimate_confidence`` runs with ``workers=1``. With a thread pool, the
    seed code now and then fails with CPython 3.11's ``SystemError: AST
    constructor recursion depth mismatch``, because the AST converter's
    recursion depth is kept per interpreter and two threads can be inside
    ``ast.parse`` at once. That failure depends on thread timing, not on the
    seed, so two runs of one seed would not agree on which ops fail."""

    name = "online-gate-n20"
    reference_ops = (0, 1)
    # two requirements in three are confident ("agree"): assumed, not measured
    cycle = 3
    op_s = 1.8
    # the stub and the provider's cache remember a requirement once served
    repeatable = False
    # The speed is probed between ops: probed inside them, with the HTTP
    # client threads running, CPU time per op spread about twice as much
    # over five seeds.
    sample_speed_in_op = False
    matches_reference = staticmethod(same)
    golden_ops = 32

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.teardown()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        endpoint = self.base + "/v1"
        self.sampling = SamplingConfig(endpoint=endpoint, model=MODEL, n=N_ONLINE,
                                       parallelism=PARALLEL, backoff=0.02, timeout=30.0)
        self.provider = EmbeddingProviderConfig(
            kind=ProviderKind.REMOTE, endpoint=endpoint, model_name="bench-embed",
            max_in_flight=PARALLEL, backoff=0.02)
        self.rng = random.Random(seed)
        self.requirements: list[str] = []
        self.usable: dict[int, int] = {}
        self._golden = _load_golden(self.name, seed)

    def teardown(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is None:
            return
        try:
            proc.stdin.close()
            proc.terminate()
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
        finally:
            proc.stdout.close()
            self.proc = None

    def stats(self) -> dict:
        with urllib.request.urlopen(self.base + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def _requirement(self, k: int) -> str:
        while len(self.requirements) <= k:
            i = len(self.requirements)
            kind = "diverse" if i % self.cycle == self.cycle - 1 else "agree"
            self.requirements.append(f"[req:{self.seed}-{i}-{kind}] {gen.requirement_text(self.rng)}")
        return self.requirements[k]

    def op(self, k: int):
        samples = honest.client.sample_programs(self._requirement(k), Language.PYTHON,
                                                self.sampling, requirement_id=f"req-{k}")
        self.usable[k] = len(samples)
        report = _estimate(samples, self.provider, workers=1)
        decision = honest.gate.decide(report, samples, THRESHOLD)
        return {"confidence": report.confidence, "verdict": decision.verdict.value,
                "n": len(samples)}

    def sizes(self, k: int) -> tuple[int, int, int]:
        n = self.usable.get(k, N_ONLINE)
        return 1, n, n

    def golden(self, k: int):
        if self._golden is None or k >= len(self._golden):
            return None
        return self._golden[k]

    def reference(self, k: int):
        """The stub's k-th requirement, rebuilt without the network."""
        tag = self._requirement(k).split("]")[0][len("[req:"):]
        sources = [extract_code_block(gen.chat_reply(self.seed, tag, i))
                   for i in range(N_ONLINE)]
        programs = [Program(s, Language.PYTHON) for s in sources if s.strip()]
        vectors = {p.source: gen.embedding_vector(self.seed, p.source) for p in programs}
        value = reference.confidence(programs, UNIFORM, self.provider, vectors)
        return {"confidence": value,
                "verdict": "show" if value > THRESHOLD else "refuse",
                "n": len(programs)}

    def record(self):
        return [self.op(k) for k in range(self.golden_ops)]


WORKLOADS = {
    "estimate-n50": lambda: EstimateWorkload("estimate-n50", estimate_pool, op_s=3.0),
    "tune-eval-n5": TuneEvalWorkload,
    "hostile-n20": lambda: EstimateWorkload("hostile-n20", hostile_pool, op_s=1.9),
    "online-gate-n20": OnlineGateWorkload,
}
