"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line. Run with `pytest -v -s tests/test_acceptance.py`."""
import functools
import hashlib
import json
import keyword
import math
import os
import random
import re
import time

import pytest
from corpus import JAVA_CORPUS, PYTHON_CORPUS

from honest.baselines import avg_prob
from honest.cli import main
from honest.client import SamplingConfig
from honest.confidence import (
    ProgramAnalysis,
    estimate_confidence,
    pairwise_confidence,
    tune_weights_from_modality_means,
)
from honest.dataset import BenchmarkSample, save_benchmark
from honest.evaluation import ScoredSample, aucpr, auroc, threshold_sweep
from honest.gate import Verdict, decide
from honest.model import Language, Origin, Program, SampleSet, TokenSequence, tokenize
from honest.similarity import (
    SimilarityBreakdown,
    SimilarityWeights,
    sim_dataflow,
    sim_embed,
    sim_hybrid,
    sim_syntax,
    sim_text,
)
from test_evaluation import pairwise_auroc, prefix_cut_aucpr
from test_similarity import brute_force_sim_text


def criterion(name):
    """Emit one [acceptance] PASS/FAIL/SKIP line per criterion."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"\n[acceptance] {name}: SKIP")
                raise
            except BaseException:
                print(f"\n[acceptance] {name}: FAIL")
                raise
            print(f"\n[acceptance] {name}: PASS")
        return wrapper
    return deco


def py(source):
    return Program(source, Language.PYTHON)


def sample_set(sources, language=Language.PYTHON, rid="req"):
    programs = tuple(Program(s, language) for s in sources)
    return SampleSet(rid, "requirement text", programs)


@criterion("similarity-oracle-equivalence")
def test_similarity_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(424242)
    alphabet = ["a", "b", "c", "x", "y", "z", "=", "(", ")", "+"]
    for _ in range(50):
        ti = [rng.choice(alphabet) for _ in range(rng.randint(0, 40))]
        tj = [rng.choice(alphabet) for _ in range(rng.randint(0, 40))]
        expected = brute_force_sim_text(ti, tj)
        got = sim_text(TokenSequence(tuple(ti)), TokenSequence(tuple(tj)))
        assert got == pytest.approx(expected, abs=1e-9), (ti, tj)
    assert time.monotonic() - started < 5.0


@criterion("identity-suite")
def test_identity_suite(local_provider):
    for language, source in ((Language.PYTHON, PYTHON_CORPUS[1]),
                             (Language.JAVA, JAVA_CORPUS[2])):
        from honest.analysis import extract_dataflow, extract_subtrees, parse_cst
        from honest.embeddings import embed
        program = Program(source, language)
        toks = tokenize(program)
        bag = extract_subtrees(parse_cst(program))
        dfg = extract_dataflow(program)
        vec = embed(program, local_provider)
        assert sim_text(toks, toks) == pytest.approx(1.0, abs=1e-9)
        assert sim_syntax(bag, bag) == pytest.approx(1.0, abs=1e-9)
        assert sim_dataflow(dfg, dfg) == pytest.approx(1.0, abs=1e-9)
        assert sim_embed(vec, vec) == pytest.approx(1.0, abs=1e-9)
        assert sim_hybrid(1.0, 1.0, 1.0, 1.0,
                          SimilarityWeights.uniform()) == pytest.approx(1.0, abs=1e-9)
        report = estimate_confidence(sample_set([source] * 5, language),
                                     SimilarityWeights.uniform(), local_provider)
        assert report.confidence == pytest.approx(1.0, abs=1e-9)


def _random_program(rng):
    names = ["a", "b", "c", "total", "out", "xs", "value"]
    lines = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        lhs, rhs1, rhs2 = rng.choice(names), rng.choice(names), rng.choice(names)
        if kind < 0.5:
            lines.append(f"{lhs} = {rhs1} + {rng.randint(0, 9)}")
        elif kind < 0.8:
            lines.append(f"{lhs} = {rhs1} * {rhs2}")
        else:
            lines.append(f"for {lhs} in range({rng.randint(1, 9)}):\n"
                         f"    {rhs1} = {lhs}")
    return "\n".join(lines) + "\n"


@criterion("range-suite")
def test_range_suite(local_provider):
    from honest.confidence import analyze_program

    rng = random.Random(77)
    programs = [py(_random_program(rng)) for _ in range(80)]
    programs[0] = py("")  # include the degenerate empty program
    analyses = [analyze_program(p, local_provider) for p in programs]

    cache = {}

    def sims(i, j):
        if (i, j) not in cache:
            cache[(i, j)] = (
                sim_text(analyses[i].tokens, analyses[j].tokens),
                sim_syntax(analyses[i].subtree_bag, analyses[j].subtree_bag),
                sim_dataflow(analyses[i].dataflow, analyses[j].dataflow),
                sim_embed(analyses[i].embedding, analyses[j].embedding),
            )
        return cache[(i, j)]

    for _ in range(10_000):
        i, j = rng.randrange(80), rng.randrange(80)
        if i == j:
            continue
        components = sims(i, j)
        raw = [rng.random() for _ in range(4)]
        total = sum(raw)
        weights = SimilarityWeights(*(r / total for r in raw))
        assert all(0.0 <= c <= 1.0 for c in components), (i, j, components)
        hybrid = sim_hybrid(*components, weights)
        assert 0.0 <= hybrid <= 1.0

    for _ in range(20):
        chosen = rng.sample(range(1, 80), 3)
        raw = [rng.random() for _ in range(4)]
        total = sum(raw)
        weights = SimilarityWeights(*(r / total for r in raw))
        report = estimate_confidence(
            sample_set([programs[i].source for i in chosen]),
            weights, local_provider)
        assert 0.0 <= report.confidence <= 1.0


def _stub_hybrid(src_i, src_j):
    digest = hashlib.sha256(f"{src_i}\x00{src_j}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


@criterion("algorithm-1-fidelity")
def test_algorithm_1_fidelity(monkeypatch, local_provider):
    import honest.confidence as confidence_mod

    monkeypatch.setattr(
        confidence_mod, "analyze_program",
        lambda program, provider, height=2: ProgramAnalysis(
            tokens=program.source, subtree_bag=None, dataflow=None,
            embedding=None))

    def stub_breakdown(i, j, a_i, a_j, weights):
        h = _stub_hybrid(a_i.tokens, a_j.tokens)
        return SimilarityBreakdown(i, j, h, h, h, h, h)

    monkeypatch.setattr(confidence_mod, "pair_breakdown", stub_breakdown)

    rng = random.Random(5)
    for n in (2, 3, 5, 20):
        sources = [f"x = {k}\n" for k in range(n)]
        expected = pairwise_confidence([
            _stub_hybrid(sources[i], sources[j])
            for i in range(n) for j in range(n) if i != j
        ])
        report = confidence_mod.estimate_confidence(
            sample_set(sources), SimilarityWeights.uniform(), local_provider)
        assert report.confidence == expected  # exact, same ordered-pair mean
        shuffled = list(sources)
        rng.shuffle(shuffled)
        permuted = confidence_mod.estimate_confidence(
            sample_set(shuffled), SimilarityWeights.uniform(), local_provider)
        assert permuted.confidence == pytest.approx(report.confidence, abs=1e-9)


def _random_datasets(seed, count=100):
    rng = random.Random(seed)
    datasets = []
    while len(datasets) < count:
        n = rng.randint(2, 200)
        tie_pool = [round(rng.random(), 1) for _ in range(4)]  # force ties
        samples = [
            ScoredSample(id=f"d{len(datasets)}-{i}",
                         score=rng.choice(tie_pool + [rng.random()]),
                         label=rng.random() < 0.5)
            for i in range(n)
        ]
        if len({s.label for s in samples}) == 2:
            datasets.append(samples)
    return datasets


@criterion("auroc-correctness")
def test_auroc_correctness():
    started = time.monotonic()
    for samples in _random_datasets(2024):
        value = auroc(samples)
        assert value == pytest.approx(pairwise_auroc(samples), abs=1e-12)
        flipped = [ScoredSample(id=s.id, score=s.score, label=not s.label)
                   for s in samples]
        assert auroc(flipped) == pytest.approx(1.0 - value, abs=1e-12)
        squashed = [ScoredSample(id=s.id, score=math.tanh(2.0 * s.score),
                                 label=s.label) for s in samples]
        assert auroc(squashed) == pytest.approx(value, abs=1e-12)
    assert time.monotonic() - started < 2.0


@criterion("aucpr-correctness")
def test_aucpr_correctness():
    for samples in _random_datasets(2024):
        assert aucpr(samples) == pytest.approx(prefix_cut_aucpr(samples), abs=1e-9)
    perfect = [ScoredSample(id="p", score=0.9, label=True),
               ScoredSample(id="n", score=0.1, label=False)]
    assert aucpr(perfect) == 1.0
    all_positive = [ScoredSample(id=f"p{i}", score=random.Random(1).random(),
                                 label=True) for i in range(10)]
    assert aucpr(all_positive) == 1.0


_KEYWORDS = set(keyword.kwlist)


def _rename_identifier(source, rng, suffix):
    candidates = sorted(set(re.findall(r"\b[a-z_][a-z0-9_]*\b", source))
                        - _KEYWORDS - {"range", "len", "sorted", "set", "sum",
                                       "zip", "max", "min", "dict", "print"})
    if not candidates:
        return source
    name = rng.choice(candidates)
    return re.sub(rf"\b{name}\b", f"{name}_{suffix}", source)


def _permute_statements(source, rng):
    """Swap one adjacent pair of same-indent simple statements, if any."""
    lines = source.splitlines()
    swappable = []
    for k in range(len(lines) - 1):
        a, b = lines[k], lines[k + 1]
        if (a.strip() and b.strip() and not a.rstrip().endswith(":")
                and not b.rstrip().endswith(":")
                and len(a) - len(a.lstrip()) == len(b) - len(b.lstrip())):
            swappable.append(k)
    if swappable:
        k = rng.choice(swappable)
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    return "\n".join(lines) + "\n"


def _synthetic_sets(n_programs=5, per_class=40):
    rng = random.Random(20240820)
    passed, failed = [], []
    for s in range(per_class):
        seed_source = PYTHON_CORPUS[s % len(PYTHON_CORPUS)]
        variants = [seed_source]
        for v in range(n_programs - 1):
            mutated = _rename_identifier(seed_source, rng, suffix=v)
            mutated = _permute_statements(mutated, rng)
            variants.append(mutated)
        passed.append(sample_set(variants, rid=f"pass-{s}"))
        unrelated = rng.sample(PYTHON_CORPUS, n_programs)
        failed.append(sample_set(unrelated, rid=f"fail-{s}"))
    return passed, failed


def _flat_prob_origins(count=5):
    return [Origin(token_probs=(0.8,) * 10) for _ in range(count)]


@criterion("synthetic-separability")
def test_synthetic_separability(local_provider):
    started = time.monotonic()
    passed, failed = _synthetic_sets()
    weights = SimilarityWeights.uniform()
    scored = []
    for ss in passed + failed:
        report = estimate_confidence(ss, weights, local_provider)
        scored.append(ScoredSample(id=ss.requirement_id,
                                   score=report.confidence,
                                   label=ss.requirement_id.startswith("pass")))
    estimator_auroc = auroc(scored)

    flat = [ScoredSample(id=s.id, score=avg_prob(_flat_prob_origins()),
                         label=s.label) for s in scored]
    baseline_auroc = auroc(flat)  # flat probabilities cannot rank anything

    assert estimator_auroc >= 0.95, estimator_auroc
    assert estimator_auroc > baseline_auroc
    assert baseline_auroc == 0.5
    assert time.monotonic() - started < 60.0
    test_synthetic_separability.scored = scored  # reused by the sweep criterion


@criterion("sweep-behavior")
def test_sweep_behavior(local_provider):
    scored = getattr(test_synthetic_separability, "scored", None)
    if scored is None:  # criterion run in isolation
        passed, failed = _synthetic_sets()
        weights = SimilarityWeights.uniform()
        scored = [
            ScoredSample(id=ss.requirement_id,
                         score=estimate_confidence(ss, weights,
                                                   local_provider).confidence,
                         label=ss.requirement_id.startswith("pass"))
            for ss in passed + failed
        ]
    counted = [
        ScoredSample(id=s.id, score=s.score, label=s.label,
                     programs_correct=4 if s.label else 1, programs_total=5)
        for s in scored
    ]
    sweep = threshold_sweep(counted)
    assert len(sweep) == 100
    for a, b in zip(sweep, sweep[1:]):
        assert b.shown_correct <= a.shown_correct
        assert b.shown_erroneous <= a.shown_erroneous
    # the star point: at threshold = min score everything is shown
    assert sweep[0].threshold == min(s.score for s in counted)
    assert sweep[0].shown_correct == sum(s.programs_correct for s in counted)
    assert sweep[0].shown_erroneous == sum(
        s.programs_total - s.programs_correct for s in counted)


@criterion("weight-tuning-sanity")
def test_weight_tuning_sanity():
    for axis in range(4):
        rng = random.Random(1000 + axis)
        means, labels = [], []
        for label in (True, False):
            lo, hi = (0.52, 0.56) if label else (0.44, 0.48)
            for _ in range(25):
                point = [rng.random() for _ in range(4)]
                point[axis] = rng.uniform(lo, hi)
                means.append(tuple(point))
                labels.append(label)
        result = tune_weights_from_modality_means(means, labels)
        assert result.weights.as_tuple()[axis] >= 0.9, (axis, result.weights)


@criterion("gate-contract")
def test_gate_contract(local_provider):
    ss = sample_set([PYTHON_CORPUS[0]] * 5)
    report = estimate_confidence(ss, SimilarityWeights.uniform(), local_provider)
    shown = decide(report, ss, threshold=0.5)
    assert shown.verdict is Verdict.SHOW
    assert len(shown.programs) == 5

    refused = decide(report, ss, threshold=1.0)  # confidence == T refuses
    assert refused.verdict is Verdict.REFUSE
    assert refused.programs == ()
    assert refused.message == "Sorry, I cannot solve this requirement."


def _pipeline_fixture(tmp_path):
    samples = []
    for i in range(20):
        consistent = i % 2 == 0
        requirement = (f"STABLE implement task number {i}" if consistent
                       else f"implement task number {i}")
        samples.append(BenchmarkSample(
            id=f"t{i}", language=Language.PYTHON, requirement=requirement,
            labels={"mock": consistent}, split="train" if i < 10 else "test"))
    path = tmp_path / "bench.jsonl"
    save_benchmark(samples, path)
    return path


def _run_pipeline(mock_server, bench_path, out_dir, capsys):
    out_dir.mkdir()
    archive = out_dir / "archive.jsonl"
    report = out_dir / "report.jsonl"
    metrics = out_dir / "metrics.json"
    assert main(["sample", "--benchmark", str(bench_path),
                 "--endpoint", mock_server.endpoint, "--model", "mock",
                 "--preset", "five-temps", "--seed", "42",
                 "--out", str(archive)]) == 0
    assert main(["estimate", "--archive", str(archive), "--language", "python",
                 "--dimension", "128", "--seed", "42",
                 "--out", str(report)]) == 0
    capsys.readouterr()
    assert main(["gate", "--report", str(report), "--archive", str(archive),
                 "--id", "t0", "--language", "python",
                 "--threshold", "0.5"]) == 0
    gate_output = capsys.readouterr().out
    assert main(["eval", "--benchmark", str(bench_path),
                 "--archive", str(archive), "--model", "mock",
                 "--method", "honest", "--dimension", "128", "--seed", "42",
                 "--out", str(metrics)]) == 0
    capsys.readouterr()
    return (archive.read_bytes(), report.read_bytes(), gate_output,
            metrics.read_bytes())


@criterion("end-to-end-offline")
def test_end_to_end_offline(mock_server, tmp_path, capsys):
    started = time.monotonic()
    bench_path = _pipeline_fixture(tmp_path)
    first = _run_pipeline(mock_server, bench_path, tmp_path / "run1", capsys)
    second = _run_pipeline(mock_server, bench_path, tmp_path / "run2", capsys)
    assert first == second  # bitwise-identical artifacts under a fixed seed

    metrics = json.loads(first[3])
    assert metrics["n_samples"] == 10
    assert 0.0 <= metrics["auroc"] <= 1.0
    gate_payload = json.loads(first[2])
    assert gate_payload["verdict"] == "show"  # STABLE samples are identical
    assert time.monotonic() - started < 30.0


@criterion("live-endpoint")
def test_live_endpoint(tmp_path):
    endpoint = os.environ.get("HONEST_ENDPOINT")
    if not endpoint:
        pytest.skip("HONEST_ENDPOINT not set; live check skipped")
    from honest.client import SeedMode, sample_records

    model = os.environ.get("HONEST_MODEL", "gpt-4o-mini")
    config = SamplingConfig(endpoint=endpoint, model=model, n=20)
    records = sample_records("Write a function that reverses a string.",
                             Language.PYTHON, config)
    assert len(records) == 20
    assert any(r.program.origin.token_probs for r in records)
    preset = SamplingConfig(endpoint=endpoint, model=model,
                            seed_mode=SeedMode.FIXED_SCHEDULE)
    preset_records = sample_records("Write a function that adds two numbers.",
                                    Language.PYTHON, preset)
    assert len(preset_records) == 5
