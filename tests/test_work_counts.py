"""Work counts as a perf check that needs no clock.

``analyze_program`` runs over the benchmark's distinct seed 0-2 programs of
each language (``bench_sources``), with ``ast.parse`` and both Pygments
lexers' ``get_tokens`` counted, and the totals are compared with
``work_counts.json``. A count may fall but not rise: a change that lowers one
lowers the table with it, and a change that raises one explains why. The
programs and their characters must equal the table's, or the counts are of
other inputs.
"""
import ast
import json
from pathlib import Path

import pytest
from pygments.lexers import JavaLexer, PythonLexer
from test_analysis import bench_sources

from honest.confidence import analyze_program
from honest.model import Language, Program

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
