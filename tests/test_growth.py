"""The growth contract, checked without a clock.

Each shape is built at sizes s, 2s, 4s and 8s from a seeded ``random.Random``,
and each doubling of its size may multiply each count of work by at most
``GROWTH``. Python recovery counts ``ast.parse`` calls and the characters the
parser reads: the whole text of a parse that succeeds, and the text up to and
including the error's line of one that fails (past it, a failed parse only
scans for a later tokenizer error). The same shapes count the nodes of their
walk, and their def-use edges from 8 programs up, where sampling noise no
longer moves a doubling's count past ``GROWTH``. The pair stage counts its
pair terms (``masked_overlap`` and cosine calls) and the bytes of its level
masks on sets of N distinct programs, which may grow by ``PAIR_GROWTH`` as N
doubles.

Shapes still superlinear, so not here: a run of backslash-newlines, and seeded
junk, whose drops each re-parse the whole rest, and bad lines that open with no
closing bracket inside one class body, where no mark forms. A wide tuple
assignment is unbounded too: it adds an edge from every name it reads to every
name it writes, so m names on each side make m * m edges.
"""
import ast
import random
from collections import Counter

import pytest
from test_analysis import at_column_0, bench_gen, class_body
from test_work_counts import count_pair_stage

from honest.analysis import _parse_python_ast, _walk_and_dataflow
from honest.confidence import estimate_confidence
from honest.model import Language, Program, SampleSet
from honest.similarity import SimilarityWeights

GROWTH = 2.5
PAIR_GROWTH = 4.5  # N * (N - 1) ordered pairs: a doubling of N makes about 4 times as many
SIZES = [2, 4, 8, 16]  # benchmark programs of about 30 lines each
EDGE_SIZES = [8, 16, 32, 64]
SET_SIZES = [8, 16, 32, 64]  # programs in a set


def programs(rng, count):
    return "\n".join(bench_gen().python_program(rng) for _ in range(count))


def bad_lines(rng, count):
    """As ``gen.long_python``: about 85 bad lines in 300."""
    return bench_gen().with_bad_lines(programs(rng, count), rng, 8 * count)


def truncated(rng, count):
    """Cut off in the last function's parameter list."""
    source = programs(rng, count)
    return source[:source.index("(", source.rindex("def ")) + 1]


def prose(rng, count):
    sentences = bench_gen().PROSE.split("\n")[:-1]
    return "\n".join(rng.choice(sentences) for _ in range(30 * count)) + "\n"


# shape -> (rng, size) -> Python source
PYTHON_SHAPES = {
    "bad-lines": bad_lines,
    "class-body-bad-lines": lambda rng, count: class_body(bad_lines(rng, count)),
    # the same bad lines without their closing bracket: the marks loop's path
    "column-0-bad-lines": lambda rng, count: at_column_0(bad_lines(rng, count)),
    "truncated": truncated,
    "prose": prose,
}


def parse_work(source, monkeypatch):
    """[ast.parse calls, characters the parser reads] of recovering ``source``."""
    counts = [0, 0]
    parse = ast.parse

    def counted(text, *args, **kwargs):
        counts[0] += 1
        try:
            module = parse(text, *args, **kwargs)
        except SyntaxError as exc:
            counts[1] += len("\n".join(text.split("\n")[:exc.lineno or None]))
            raise
        counts[1] += len(text)
        return module

    monkeypatch.setattr(ast, "parse", counted)
    _parse_python_ast(source)
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("shape", PYTHON_SHAPES)
@pytest.mark.parametrize("seed", [0, 1])
def test_python_recovery_grows_linearly(shape, seed, monkeypatch):
    work = [parse_work(PYTHON_SHAPES[shape](random.Random(seed), size), monkeypatch)
            for size in SIZES]
    assert grows_linearly(work), work


def grows_linearly(work, factor=GROWTH):
    return all(b <= factor * a for small, large in zip(work, work[1:])
               for a, b in zip(small, large))


@pytest.mark.parametrize("shape", PYTHON_SHAPES)
@pytest.mark.parametrize("seed", [0, 1])
def test_walk_and_edges_grow_linearly(shape, seed):
    """Walk nodes at ``SIZES``, def-use edges at ``EDGE_SIZES``; prose holds no edges."""
    sizes = SIZES if shape == "prose" else sorted({*SIZES, *EDGE_SIZES})
    work = {}
    for size in sizes:
        walk, edges = _walk_and_dataflow(
            Program(PYTHON_SHAPES[shape](random.Random(seed), size), Language.PYTHON))
        work[size] = [len(walk), edges.size]
    walks = [[work[size][0]] for size in SIZES]
    assert grows_linearly(walks), walks
    edges = [[work[size][1]] for size in EDGE_SIZES if size in work]
    assert grows_linearly(edges), edges


@pytest.mark.parametrize("language", ["python", "java"])
@pytest.mark.parametrize("seed", [0, 1])
def test_pair_stage_grows_with_pairs(language, seed, local_provider, monkeypatch):
    gen, counts, work = bench_gen(), Counter(), []
    count_pair_stage(counts, monkeypatch)
    for n in SET_SIZES:
        counts.clear()
        sources = gen.diverse_set(random.Random(seed), n, getattr(gen, f"{language}_program"))
        samples = SampleSet("r", "", tuple(Program(s, Language(language)) for s in sources))
        estimate_confidence(samples, SimilarityWeights.uniform(), local_provider)
        terms = counts["masked_overlap_calls"] + counts["cosine_calls"]
        work.append([terms, counts["mask_bytes"]])
    assert grows_linearly(work, PAIR_GROWTH), work
