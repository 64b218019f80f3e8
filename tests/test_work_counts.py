"""Work counts as a perf check that needs no clock.

``analyze_program`` runs over the benchmark's distinct seed 0-2 programs of
each language (``bench_sources``), with ``ast.parse`` and both Pygments
lexers' ``get_tokens`` counted. ``estimate_confidence`` runs over the seed-0
``estimate-n50`` and ``hostile-n20`` pools, with the pair stage's
``level_masks``, ``masked_overlap`` and cosine calls counted, and the bytes
and excess keys of the level masks summed. ``tune_weights`` runs over the
seed-0 ``tune-eval-n5`` train split, with its AUROCs counted, and the hybrids
and breakdowns that its modality means make, which are none. Both count the
blake2b hashes of the local embedding, as misses of ``_bucket``'s cache,
cleared first. The totals are compared with ``work_counts.json``. A count
may fall but not rise: a change that lowers one lowers the table with it,
and a change that raises one explains why. The inputs (sets, programs and
their characters) must equal the table's, or the counts are of other inputs.
"""
import ast
import json
import random
import sys
from pathlib import Path

import pytest
from pygments.lexers import JavaLexer, PythonLexer
from test_analysis import bench_gen, bench_sources

from honest import confidence, embeddings, similarity
from honest.confidence import analyze_program, estimate_confidence, tune_weights
from honest.model import Language, Program, SampleSet
from honest.similarity import SimilarityWeights

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402  (needs bench/ on the path)

TABLE = json.loads((Path(__file__).parent / "work_counts.json").read_text(encoding="utf-8"))
INPUTS = ("programs", "source_characters")


@pytest.mark.parametrize("language", ["python", "java"])
def test_work_counts_do_not_rise(language, local_provider, monkeypatch):
    sources = bench_sources(language)
    counts = dict.fromkeys(TABLE[language], 0)
    counts.update(programs=len(sources), source_characters=sum(map(len, sources)))
    parse = ast.parse

    def counted_parse(source, *args, **kwargs):
        counts["ast_parse_calls"] += 1
        counts["ast_parse_characters"] += len(source)
        return parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counted_parse)
    for lexer, key in ((PythonLexer, "python_lexer_passes"), (JavaLexer, "java_lexer_passes")):
        def counted_lex(self, text, *args, real=lexer.get_tokens, key=key):
            counts[key] += 1
            return real(self, text, *args)

        monkeypatch.setattr(lexer, "get_tokens", counted_lex)
    for source in sources:
        analyze_program(Program(source, Language(language)), local_provider)
    assert {k: counts[k] for k in INPUTS} == {k: TABLE[language][k] for k in INPUTS}
    risen = {k: (TABLE[language][k], v) for k, v in counts.items() if v > TABLE[language][k]}
    assert not risen, f"counts above work_counts.json (table, now): {risen}"


def counted(counts, key, real):
    """``real``, counting its calls under ``key`` of ``counts``."""
    def call(*args):
        counts[key] += 1
        return real(*args)
    return call


def count_pair_stage(counts, monkeypatch):
    """Count the pair stage's ``level_masks``, ``masked_overlap`` and cosine
    calls in ``counts``, and add up the level masks' bytes and excess keys."""
    def masks(multisets, real=confidence.level_masks):
        out = real(multisets)
        counts["level_masks_calls"] += 1
        counts["mask_bytes"] += sum((bits.bit_length() + 7) // 8 for bits, _ in out)
        counts["excess_keys"] += sum(len(excess or ()) for _, excess in out)
        return out

    monkeypatch.setattr(confidence, "level_masks", masks)
    monkeypatch.setattr(confidence, "masked_overlap",
                        counted(counts, "masked_overlap_calls", confidence.masked_overlap))
    monkeypatch.setattr(similarity, "cosine", counted(counts, "cosine_calls", similarity.cosine))


def bench_pool(name):
    """The seed-0 pool of the ``estimate-n50`` or ``hostile-n20`` workload,
    built from ``bench/gen.py`` as ``bench/workloads.py`` builds it."""
    gen = bench_gen()
    rng = random.Random(0)
    if name == "estimate-n50":
        return [(Language.PYTHON, gen.agreement_set(rng, 50, gen.python_program)),
                (Language.PYTHON, gen.diverse_set(rng, 50, gen.python_program)),
                (Language.JAVA, gen.agreement_set(rng, 50, gen.java_program)),
                (Language.PYTHON, gen.diverse_set(rng, 50, gen.python_program))]
    return [(Language.JAVA, gen.hostile_java_set(rng, 20)) if i == 5
            else (Language.PYTHON, gen.hostile_python_set(rng, 20))
            for i in range(8)]


@pytest.mark.parametrize("pool", ["estimate-n50", "hostile-n20"])
def test_pair_stage_counts_do_not_rise(pool, local_provider, monkeypatch):
    sets = bench_pool(pool)
    counts = dict.fromkeys(TABLE[pool], 0)
    counts.update(sets=len(sets), programs=sum(len(sources) for _, sources in sets),
                  source_characters=sum(len(s) for _, sources in sets for s in sources))
    count_pair_stage(counts, monkeypatch)
    embeddings._bucket.cache_clear()
    for language, sources in sets:
        samples = SampleSet(pool, "", tuple(Program(s, language) for s in sources))
        estimate_confidence(samples, SimilarityWeights.uniform(), local_provider)
    counts["blake2b_hashes"] = embeddings._bucket.cache_info().misses
    inputs = ("sets", *INPUTS)
    assert {k: counts[k] for k in inputs} == {k: TABLE[pool][k] for k in inputs}
    risen = {k: (TABLE[pool][k], v) for k, v in counts.items() if v > TABLE[pool][k]}
    assert not risen, f"counts above work_counts.json (table, now): {risen}"


def test_tune_counts_do_not_rise(local_provider, monkeypatch, tmp_path):
    """``tune_weights`` over the seed-0 ``tune-eval-n5`` train split, built as
    ``bench/workloads.py`` builds it."""
    requirements = workloads.write_labeled_benchmark(
        random.Random(0), tmp_path / "benchmark.jsonl", tmp_path / "archive.jsonl.gz")
    train = [(SampleSet(r.id, r.text, tuple(Program(s, r.language) for s, _, _ in r.programs)),
              r.passed) for r in requirements if r.split == "train"]
    counts = dict.fromkeys(TABLE["tune-eval-n5"], 0)
    counts.update(sets=len(train), programs=sum(len(s) for s, _ in train),
                  source_characters=sum(len(p.source) for s, _ in train for p in s.programs))
    for name in ("mann_whitney_auroc", "pair_breakdown", "sim_hybrid"):
        monkeypatch.setattr(confidence, name,
                            counted(counts, f"{name}_calls", getattr(confidence, name)))
    embeddings._bucket.cache_clear()
    tune_weights(train, local_provider)
    counts["blake2b_hashes"] = embeddings._bucket.cache_info().misses
    inputs = ("sets", *INPUTS)
    table = TABLE["tune-eval-n5"]
    assert {k: counts[k] for k in inputs} == {k: table[k] for k in inputs}
    risen = {k: (table[k], v) for k, v in counts.items() if v > table[k]}
    assert not risen, f"counts above work_counts.json (table, now): {risen}"
