"""The growth contract, checked without a clock.

Each shape is built at sizes s, 2s, 4s and 8s from a seeded ``random.Random``,
and each doubling of its size may multiply each count of work by at most
``GROWTH``. Python recovery counts ``ast.parse`` calls and the characters the
parser reads: the whole text of a parse that succeeds, and the text up to and
including the error's line of one that fails (past it, a failed parse only
scans for a later tokenizer error).

Shapes still superlinear, so not here: a run of backslash-newlines, and seeded
junk, whose drops each re-parse the whole rest, and bad lines that open with no
closing bracket inside one class body, where no mark forms.
"""
import ast
import random

import pytest
from test_analysis import at_column_0, bench_gen, class_body

from honest.analysis import _parse_python_ast

GROWTH = 2.5
SIZES = [2, 4, 8, 16]  # benchmark programs of about 30 lines each


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
    for small, large in zip(work, work[1:]):
        assert all(b <= GROWTH * a for a, b in zip(small, large)), work
