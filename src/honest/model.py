"""Canonical program representation and lexical tokenization.

Every analysis in the package works over these immutable values. Tokens are
Pygments' lexical tokens, so comments are dropped and string literals survive
as single tokens; for Python they are read from one regular-expression scan
wherever that is proven to give the same tokens.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

from pygments.lexers import JavaLexer, PythonLexer
from pygments.token import Comment, String, _TokenType

from .errors import UnknownLanguage


class Language(Enum):
    PYTHON = "python"
    JAVA = "java"

    @classmethod
    def parse(cls, value: str) -> "Language":
        try:
            return cls(value.strip().lower())
        except ValueError:
            raise UnknownLanguage(f"unknown language: {value!r}") from None


@dataclass(frozen=True)
class Origin:
    """Where a sampled program came from. Purely informational."""

    sample_index: int = 0
    temperature: Optional[float] = None
    token_probs: Optional[tuple[float, ...]] = None
    unfenced: bool = False

    def __post_init__(self):
        if self.sample_index < 0:
            raise ValueError("sample_index must be >= 0")
        if self.temperature is not None and not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature out of [0, 2]: {self.temperature}")
        if self.token_probs is not None:
            if len(self.token_probs) == 0:
                raise ValueError("token_probs must be non-empty when present")
            for p in self.token_probs:
                if not 0.0 < p <= 1.0:
                    raise ValueError(f"token probability out of (0, 1]: {p}")


@dataclass(frozen=True)
class Program:
    source: str
    language: Language
    origin: Optional[Origin] = None


MAX_NGRAM_ORDER = 4


def ngram_counts(tokens: tuple[str, ...], n: int) -> Counter:
    return Counter(zip(*(tokens[k:] for k in range(n))))


@dataclass(frozen=True)
class TokenSequence:
    tokens: tuple[str, ...]

    def __post_init__(self):
        if any(t == "" for t in self.tokens):
            raise ValueError("empty token in sequence")

    def __len__(self) -> int:
        return len(self.tokens)

    @cached_property
    def ngrams(self) -> tuple[Counter, ...]:
        """n-gram counts for n = 1..MAX_NGRAM_ORDER, built on first use and
        kept: a program's sequence is compared against every other program's.
        Not a field, so equality and hashing see only the tokens."""
        return tuple(ngram_counts(self.tokens, n) for n in range(1, MAX_NGRAM_ORDER + 1))


@dataclass(frozen=True)
class SampleSet:
    """The set of N programs sampled for one requirement."""

    requirement_id: str
    requirement: str
    programs: tuple[Program, ...]

    def __post_init__(self):
        langs = {p.language for p in self.programs}
        if len(langs) > 1:
            raise ValueError("all programs in a sample set must share one language")

    @property
    def language(self) -> Language:
        return self.programs[0].language

    def __len__(self) -> int:
        return len(self.programs)


_LEXERS = {
    Language.PYTHON: PythonLexer(stripnl=False),
    Language.JAVA: JavaLexer(stripnl=False),
}
Lexed = list[tuple[_TokenType, str]]  # a Pygments (token type, text) stream


def lex(program: Program) -> Lexed:
    """The program's Pygments stream, comments and whitespace included: the one
    lexing pass that its tokens, Java parse and dataflow, and local embedding read."""
    return list(_LEXERS[program.language].get_tokens(program.source))


def token_sequence(lexed: Lexed) -> TokenSequence:
    """The lexical tokens of a ``lex`` stream. Comments and whitespace are
    dropped; consecutive string-literal pieces (Pygments splits quotes from
    content) are merged back into one token."""
    tokens: list[str] = []
    string_run: list[str] = []
    for kind, text in lexed:
        if kind in String:
            string_run.append(text)
            continue
        if string_run:
            tokens.append("".join(string_run))
            string_run = []
        if kind in Comment:
            continue
        if text.strip() == "":
            continue
        tokens.append(text.strip())
    if string_run:
        tokens.append("".join(string_run))
    return TokenSequence(tuple(tokens))


# Text the scan and Pygments may read apart: anything but printable ASCII, tab
# and newline, and a backslash-newline.
_UNSAFE_TEXT = re.compile(r"[^\t\n -~]|\\\n")
# The token patterns of the pure-Python tokenizer (stdlib ``tokenize`` up to
# CPython 3.11), kept here so every interpreter scans alike. A token is matched
# with the whitespace after it, so no match is tried inside whitespace. Strings
# come before names (a string prefix is letters) and numbers before operators
# (".5"). A triple quote always opens a triple-quoted string; single-quoted ones
# end on their line. Operators match longest first; any other character is an
# error.
_PREFIX = "(?:[rR][bBfF]?|[bBfF][rR]?|[uU])?"
_DIGITS = r"[0-9](?:_?[0-9])*"
_FLOAT = (rf"(?:{_DIGITS}\.(?:{_DIGITS})?|\.{_DIGITS})(?:[eE][-+]?{_DIGITS})?"
          rf"|{_DIGITS}[eE][-+]?{_DIGITS}")
_SCAN = re.compile("(?:" + "|".join([
    rf"(?P<STRING>{_PREFIX}(?:'''[^'\\]*(?:(?:\\.|'(?!''))[^'\\]*)*'''"
    r'|"""[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*"""'
    r"|'(?!'')[^\n'\\]*(?:\\.[^\n'\\]*)*'"
    r'|"(?!"")[^\n"\\]*(?:\\.[^\n"\\]*)*"))',
    r"(?P<NAME>[A-Za-z_]\w*)",
    rf"(?P<NUMBER>{_DIGITS}[jJ]|(?:{_FLOAT})[jJ]|{_FLOAT}|0[xX](?:_?[0-9a-fA-F])+"
    r"|0[bB](?:_?[01])+|0[oO](?:_?[0-7])+|0(?:_?0)*|[1-9](?:_?[0-9])*)",
    r"(?P<OP>\*\*=|//=|>>=|<<=|\.\.\.|\*\*|//|>>|<<|->|:=|[-+*/%&|^@=<>!]="
    r"|[-+*/%&|^@=<>~:;,.()\[\]{}])",
    r"(?P<COMMENT>#[^\n]*)",
    r"(?P<ERROR>\S)",
]) + r")[ \t\n]*")
# Pygments' Python operator rule over a run of adjacent operator characters.
_OPERATOR_RUN = re.compile(r"!=|==|<<|>>|:=|.")
# Pygments' number rules as one pattern (the first that matches wins, as in
# Pygments), and its in-string format fields.
_NUMBER_RULE = re.compile("|".join(f"(?:{rule})" for rule, _ in PythonLexer.tokens["numbers"]))
_FIELD_RULES = [re.compile(rule) for rule, kind in PythonLexer.tokens["strings-single"]
                if kind is String.Interpol]


def _python_tokens(source: str) -> tuple[str, ...] | None:
    """``token_sequence(lex(p)).tokens`` of a Python program, read from one
    ``_SCAN`` of the source, or None where the two lexers may read the text apart.

    Pygments splits operator runs its own way, glues ``@`` to a following
    name, ``yield from`` into one keyword and adjacent string literals into
    one string; those are reproduced. After ``def``, ``class``, ``from`` and
    ``import`` it lexes names in states of their own, which the loop follows
    loosely (``after`` for the next token, ``importing`` over names, dots and
    commas) to hand back what those states would read differently. Neither
    lexer matches brackets or reads indentation.
    """
    if _UNSAFE_TEXT.search(source):
        return None
    out: list[str] = []
    prev_kind, prev_text, prev_end = None, "", -1
    after, importing = None, False
    for tok in _SCAN.finditer(source):
        kind, text = tok.lastgroup, tok.group(tok.lastindex)
        start, end = tok.span(tok.lastindex)
        glued = start == prev_end
        if kind == "ERROR" or kind != "NAME" and after == "class":
            return None
        if kind == "NAME":
            if (glued and prev_kind in ("NUMBER", "STRING")
                    or (after or importing) and text == "yield"
                    or text in ("match", "case")
                    and not source[source.rfind("\n", 0, start) + 1:start].strip()):
                return None
            if glued and prev_text == "@":
                out[-1] += text
            elif (text == "from" and prev_text == "yield" == out[-1]
                  and start == prev_end + 1 and source[prev_end] == " "):
                out[-1] = "yield from"
            else:
                out.append(text)
        elif kind == "NUMBER":
            if (glued and (prev_kind in ("NAME", "NUMBER", "STRING") or prev_text.endswith("."))
                    or (after or importing) and text[0] == "."
                    or _NUMBER_RULE.match(source, start).end() != end):
                return None
            out.append(text)
        elif kind == "STRING":
            prefix = text[:text.index(text[-1])]
            fields = (rule.match(source, start + at.start())
                      for at in re.finditer("[%{]", text) for rule in _FIELD_RULES)
            if ("f" in prefix.lower() or "\\'" in text or '\\"' in text or "\\N{" in text
                    or glued and prev_kind == "NAME"
                    or prefix and (after or importing or glued and prev_text == "@")
                    or any(m and m.end() > end for m in fields)):
                return None
            if glued and prev_kind == "STRING":
                out[-1] += text
            else:
                out.append(text)
        elif kind == "OP":
            run = out.pop() + text if glued and prev_kind == "OP" else text
            out.extend(_OPERATOR_RUN.findall(run))
        importing = (kind == "NAME" and (importing or text in ("from", "import"))
                     or importing and kind == "OP" and text in (".", "...", ","))
        after = text if kind == "NAME" and text in ("def", "class") else None
        prev_kind, prev_text, prev_end = kind, text, end
    return tuple(out)


def tokenize(program: Program) -> TokenSequence:
    """A program's lexical tokens; deterministic for a fixed (source, language).
    Python comes from ``_python_tokens``' scan unless it hands the program back
    to Pygments."""
    if program.language is Language.PYTHON:
        tokens = _python_tokens(program.source)
        if tokens is not None:
            return TokenSequence(tokens)
    return token_sequence(lex(program))
