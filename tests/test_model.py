import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from corpus import JAVA_CORPUS, PYTHON_CORPUS
from hypothesis import given, settings
from hypothesis import strategies as st
from pygments.token import Comment, String
from test_analysis import bench_sources
from test_confidence import program_text

from honest.model import (
    _TOKEN_CLASSES,
    Language,
    Origin,
    Program,
    SampleSet,
    TokenSequence,
    _python_tokens,
    lex,
    ngram_counts,
    token_class,
    token_sequence,
    tokenize,
)


def py(source):
    return Program(source, Language.PYTHON)


class TestTokenize:
    def test_simple_assignment(self):
        assert tokenize(py("x = 1")).tokens == ("x", "=", "1")

    def test_empty_source(self):
        assert tokenize(py("")).tokens == ()

    def test_comment_stripped(self):
        assert tokenize(py("x = 1  # note")).tokens == ("x", "=", "1")

    def test_string_literal_is_single_token(self):
        assert tokenize(py("s = 'a b c'")).tokens == ("s", "=", "'a b c'")

    def test_java_comment_stripped(self):
        program = Program("int x = 1; // tally", Language.JAVA)
        assert tokenize(program).tokens == ("int", "x", "=", "1", ";")

    def test_blank_lines_removed(self):
        assert tokenize(py("x = 1\n\n\ny = 2")).tokens == ("x", "=", "1", "y", "=", "2")

    def test_deterministic(self):
        for source in PYTHON_CORPUS:
            assert tokenize(py(source)) == tokenize(py(source))
        for source in JAVA_CORPUS:
            p = Program(source, Language.JAVA)
            assert tokenize(p) == tokenize(p)

    def test_no_comment_text_survives(self):
        source = "total = 0  # running total\n# another comment\ntotal += 1\n"
        tokens = tokenize(py(source)).tokens
        assert not any("comment" in t or "#" in t for t in tokens)

    def test_no_empty_tokens_in_corpus(self):
        for source in PYTHON_CORPUS:
            assert all(tokenize(py(source)).tokens)


def seed_token_sequence(lexed):
    """``token_sequence`` as first written, testing each token's type with ``in``."""
    tokens, string_run = [], []
    for kind, text in lexed:
        if kind in String:
            string_run.append(text)
            continue
        if string_run:
            tokens.append("".join(string_run))
            string_run = []
        if kind in Comment or text.strip() == "":
            continue
        tokens.append(text.strip())
    if string_run:
        tokens.append("".join(string_run))
    return tuple(tokens)


@given(source=program_text, language=st.sampled_from(list(Language)))
@settings(max_examples=200, deadline=None)
def test_token_classes_read_as_membership_does(source, language):
    lexed = lex(Program(source, language))
    assert token_sequence(lexed).tokens == seed_token_sequence(lexed)
    for kind, _ in lexed:
        cls = token_class(kind)
        assert [c for c in _TOKEN_CLASSES if kind in c] == ([] if cls is None else [cls])


def pygments_tokens(source):
    return token_sequence(lex(py(source))).tokens


# Where the stdlib tokenizer and Pygments part ways: Pygments' tokens written
# out, which the fast path either reproduces or hands back to Pygments.
REPRODUCED = [
    # the operator rule runs over adjacent operators: "<=" "=" and "->" ">"
    ("x = a<==b\n", ("x", "=", "a", "<", "==", "b")),
    ("a->>b\n", ("a", "-", ">>", "b")),
    ("a @=b\n", ("a", "@", "=", "b")),
    # "@" glues to a following name
    ("@dec\ndef f(): pass\n", ("@dec", "def", "f", "(", ")", ":", "pass")),
    ("a@b\n", ("a", "@b")),
    # "yield from" is one keyword with exactly one space, after "." too
    ("yield from x\n", ("yield from", "x")),
    ("yield  from x\n", ("yield", "from", "x")),
    ("x.yield from y\n", ("x", ".", "yield from", "y")),
    # adjacent string literals are one string
    ("'a''b'\n", ("'a''b'",)),
    # neither lexer matches brackets
    ("x = (1,\n", ("x", "=", "(", "1", ",")),
]
HANDED_BACK = [
    # text outside printable ASCII, tab and newline, and a backslash-newline
    ("x = '\u00e9'\n", ("x", "=", "'\u00e9'")),
    ("x = 1\r\ny = 2\n", ("x", "=", "1", "y", "=", "2")),
    ("x = 1\fy\n", ("x", "=", "1", "y")),
    ("x = 1\vy\n", ("x", "=", "1", "y")),
    ("x = 1\0\n", ("x", "=", "1", "\0")),
    ("x = 1 + \\\n    2\n", ("x", "=", "1", "+", "\\", "2")),
    # the stdlib tokenizer fails, or reads a token type Pygments splits
    ("x = '''a\ny = 2\n", ("x", "=", "'''a\ny = 2\n")),
    ("x = 'a\ny = 2\n", ("x", "=", "'a", "y", "=", "2")),
    ("print(f'{x}')\n", ("print", "(", "f'{", "x", "}'", ")")),
    # Pygments' docstring rule ignores escapes
    ('"""a\\"""b"""\n', ('"""a\\"""b"""\n',)),
    ("s = 'It\\'s'\n", ("s", "=", "'It\\'s'")),
    # an escape or format field reaching past the string's closing quote
    ("x = '\\N{' + '}'\n", ("x", "=", "'\\N{' + '}'")),
    ("x = '{a[' + ']}'\n", ("x", "=", "'{a[' + ']}'")),
    # names lexed in states of their own after def, class, from, import and @
    ("def rb'z'\n", ("def", "rb", "'z'")),
    ("@rb'z'\n", ("@rb", "'z'")),
    ("class\n'x'\n", ("class", "'", "x", "'")),
    ("import os\nclass 'x'\n", ("import", "os", "class", "'", "x", "'")),
    ("from .5 import x\n", ("from", ".", "5", "import", "x")),
    ("import rb'x'\n", ("import", "rb", "'x'")),
    ("import yield from x\n", ("import", "yield", "from", "x")),
    # string prefixes Pygments takes and Python does not
    ("t'x'\n", ("t'x'",)),
    ("ub'''x'''\n", ("ub'''x'''",)),
    # numbers Pygments' ordered rules read differently, and numbers or names
    # right after a token they may run into
    ("x = 10j\n", ("x", "=", "10", "j")),
    ("x = 1.5j\n", ("x", "=", "1.5", "j")),
    ("...0\n", (".", ".", ".0")),
    ("x = 1.2.3\n", ("x", "=", "1.2", ".3")),
    ("x = 'a'1\n", ("x", "=", "'a'", "1")),
    ("x = 1if 1 else 2\n", ("x", "=", "1", "if", "1", "else", "2")),
    ("'a'if 1 else 2\n", ("'a'", "if", "1", "else", "2")),
    # a line opening with match or case, where Pygments splits "x_"
    ("match x:\n    case x_: pass\n", ("match", "x", ":", "case", "x", "_", ":", "pass")),
]

# pieces of every case above, for the property
PIECES = ["def ", "class ", "from ", "import ", "yield", " from", "yield from ", "match ",
          "case ", "_", "x_", "@", "@=", "@dec", "a", "rb", "ub", "t", "u", "r", "br", "'a'",
          '"b"', "r'\\d'", "b'x'", "'''q'''", '"""d"""', "'", '"', "\\", "\\'", '\\"', "\\N{",
          "{", "}", "{a[", "]}", "{:", "%", "%s", "(", ")", "[", "]", ":", "=", "==", "<", ">",
          "<=", ">>", "<<", "!", "!=", "-", "->", "*", "**", "/", ".", "...", ",", ";", "~",
          ":=", "0", "1", "10j", "1.5", ".5", "0777", "0x1F", "1e5", "1_0", "j", "None", "as",
          "if", "print", "f'{x}'", "# c", "\n", "\n    ", " ", "  ", "\t", "$", "\r", "\f",
          "\0", "\u00e9"]


# how many distinct ``bench_sources("python")`` programs ``_python_tokens`` hands back
BENCH_PROGRAMS_HANDED_BACK = 0


@st.composite
def mutated_corpus_programs(draw):
    source = draw(st.sampled_from(PYTHON_CORPUS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(source)))
        cut = draw(st.integers(0, 3))
        source = source[:at] + draw(st.sampled_from(PIECES)) + source[at + cut:]
    return source


class TestPythonTokens:
    """The stdlib tokenizer's path gives Pygments' tokens or hands back."""

    @pytest.mark.parametrize("source, tokens", REPRODUCED)
    def test_reproduces_pygments(self, source, tokens):
        assert pygments_tokens(source) == tokens
        assert _python_tokens(source) == tokens

    @pytest.mark.parametrize("source, tokens", HANDED_BACK)
    def test_hands_back(self, source, tokens):
        assert pygments_tokens(source) == tokens
        assert _python_tokens(source) is None
        assert tokenize(py(source)).tokens == tokens

    def test_corpus_takes_the_fast_path(self):
        for source in PYTHON_CORPUS:
            assert _python_tokens(source) == pygments_tokens(source), source

    def test_benchmark_programs(self):
        for source in bench_sources("python"):
            assert _python_tokens(source) in (None, pygments_tokens(source)), source

    def test_benchmark_programs_handed_back(self):
        """The scan is the package's own, so every interpreter hands back the
        same benchmark programs."""
        handed_back = [s for s in bench_sources("python") if _python_tokens(s) is None]
        assert len(handed_back) == BENCH_PROGRAMS_HANDED_BACK

    @given(source=st.one_of(st.lists(st.sampled_from(PIECES), max_size=30).map("".join),
                            mutated_corpus_programs()))
    @settings(max_examples=500, deadline=None)
    def test_pygments_or_handed_back(self, source):
        assert _python_tokens(source) in (None, pygments_tokens(source))


@given(tokens=st.lists(st.sampled_from(["a", "b", "=", "("]), max_size=8).map(tuple),
       n=st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_ngram_counts_equal_slices(tokens, n):
    """Counts and key order of the slice-built Counter, also for fewer than n tokens."""
    counts = ngram_counts(tokens, n)
    sliced = Counter(tuple(tokens[k:k + n]) for k in range(len(tokens) - n + 1))
    assert counts == sliced
    assert list(counts) == list(sliced)


class TestTypes:
    def test_language_parse(self):
        assert Language.parse("Python") is Language.PYTHON
        assert Language.parse("java") is Language.JAVA

    def test_language_parse_rejects_unknown(self):
        from honest.errors import UnknownLanguage
        with pytest.raises(UnknownLanguage):
            Language.parse("rust")

    def test_token_probs_validated(self):
        with pytest.raises(ValueError):
            Origin(token_probs=(0.5, 0.0))
        with pytest.raises(ValueError):
            Origin(token_probs=())
        Origin(token_probs=(1.0, 0.001))

    def test_temperature_range(self):
        with pytest.raises(ValueError):
            Origin(temperature=2.5)

    def test_negative_sample_index_rejected(self):
        with pytest.raises(ValueError):
            Origin(sample_index=-1)

    def test_sample_set_single_language(self):
        with pytest.raises(ValueError):
            SampleSet("r", "req", (py("x = 1"), Program("int x;", Language.JAVA)))

    def test_sample_set_language_is_its_programs(self):
        java = Program("int x;", Language.JAVA)
        assert SampleSet("r", "req", (java, java)).language is Language.JAVA

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            TokenSequence(("a", ""))

    def test_cached_ngrams_leave_equality_and_hash_alone(self):
        a = tokenize(py(PYTHON_CORPUS[3]))
        b = tokenize(py(PYTHON_CORPUS[3]))
        assert a.ngrams[0]  # computed and cached on a only
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1


# Runs in a fresh interpreter. Counts the PythonLexer instances built and the
# times Pygments compiles the class's rules: after the package's import, then
# after each command of the JSON list in argv[1], a CLI command line or
# ["lex-in-threads", source] (eight threads lexing one Python program at once).
_COLD_START = """
import json, sys, threading
from pygments.lexer import RegexLexerMeta
from pygments.lexers import PythonLexer

built, compiled = [], []
real_init, real_compile = PythonLexer.__init__, RegexLexerMeta.process_tokendef

def counted_init(self, *args, **kwargs):
    built.append(1)
    real_init(self, *args, **kwargs)

def counted_compile(cls, name, tokendefs=None):
    if cls is PythonLexer:
        compiled.append(1)
    return real_compile(cls, name, tokendefs)

PythonLexer.__init__ = counted_init
RegexLexerMeta.process_tokendef = counted_compile

import honest, honest.cli
from honest.model import Language, Program, lex

rows = [["import", None, len(built), len(compiled)]]
for command in json.loads(sys.argv[1]):
    code = None
    if command[0] == "lex-in-threads":
        program = Program(command[1], Language.PYTHON)
        threads = [threading.Thread(target=lex, args=(program,)) for _ in range(8)]
        sys.setswitchinterval(1e-6)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    else:
        code = honest.cli.main(command)
    rows.append([command[0], code, len(built), len(compiled)])
print(json.dumps(rows))
"""
# a program ``_python_tokens`` hands back to Pygments (an f-string)
_HANDED_BACK = 'def f(x):\n    return f"{x}"\n'


def _cold_start(commands):
    """(command, exit code, PythonLexer instances, rule compilations) after
    the import and after each command."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(commands)],
                            capture_output=True, encoding="utf-8", env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return [tuple(row) for row in json.loads(result.stdout.splitlines()[-1])]


class TestColdStart:
    """Python's lexer is built on the first program the scan hands back, not at
    import. Each check starts a fresh interpreter: this session has built every
    lexer already, which would hide a fault on first use."""

    def _archive(self, path, sources):
        path.write_text(json.dumps({"id": "r0", "model": "m", "programs": [
            {"source": source, "temperature": 1.0} for source in sources]}) + "\n")
        return str(path)

    def test_lexer_is_built_on_the_first_program_handed_back(self, tmp_path):
        sources = PYTHON_CORPUS[:3]
        assert all(_python_tokens(s) is not None for s in sources)
        assert _python_tokens(_HANDED_BACK) is None
        scanned = self._archive(tmp_path / "scanned.jsonl", sources)
        handed_back = self._archive(tmp_path / "handed-back.jsonl", [_HANDED_BACK] * 2)
        report = str(tmp_path / "report.jsonl")
        assert _cold_start([
            ["estimate", "--archive", scanned, "--language", "python", "--out", report],
            ["gate", "--report", report, "--archive", scanned, "--id", "r0",
             "--language", "python", "--threshold", "0.5"],
            ["estimate", "--archive", handed_back, "--language", "python",
             "--out", str(tmp_path / "handed-back-report.jsonl")],
        ]) == [("import", None, 0, 0), ("estimate", 0, 0, 0), ("gate", 0, 0, 0),
               ("estimate", 0, 1, 1)]

    def test_threads_compile_the_rules_once(self):
        """Threads that lex their first handed-back program at once compile
        PythonLexer's rules once between them."""
        (_, _, _, at_import), (_, _, built, compiled) = _cold_start(
            [["lex-in-threads", _HANDED_BACK]])
        assert (at_import, compiled) == (0, 1)
        assert 1 <= built <= 8
