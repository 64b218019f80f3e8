"""Canonical program representation and lexical tokenization.

Every analysis in the package works over these immutable values. Tokens are
Pygments' lexical tokens, so comments are dropped and string literals survive
as single tokens; for Python they are read from the stdlib tokenizer wherever
that is proven to give the same tokens.
"""
from __future__ import annotations

import io
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from tokenize import (COMMENT, DEDENT, ENDMARKER, INDENT, NAME, NEWLINE, NL, NUMBER, OP,
                      STRING, TokenError, generate_tokens)
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
    return Counter(tuple(tokens[k:k + n]) for k in range(len(tokens) - n + 1))


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


# Text the stdlib tokenizer and Pygments may read apart: anything but printable
# ASCII, tab and newline, and a backslash-newline.
_UNSAFE_TEXT = re.compile(r"[^\t\n -~]|\\\n")
# Pygments' Python operator rule over a run of adjacent operator characters.
_OPERATOR_RUN = re.compile(r"!=|==|<<|>>|:=|.")
# Pygments' number rules, tried in order, and its in-string format fields.
_NUMBER_RULES = [re.compile(rule) for rule, _ in PythonLexer.tokens["numbers"]]
_FIELD_RULES = [re.compile(rule) for rule, kind in PythonLexer.tokens["strings-single"]
                if kind is String.Interpol]
_LAYOUT = {NL, NEWLINE, INDENT, DEDENT, ENDMARKER}


def _python_tokens(source: str) -> tuple[str, ...] | None:
    """``token_sequence(lex(p)).tokens`` of a Python program, read from the
    stdlib tokenizer, or None where the two lexers may read the text apart.

    Pygments splits operator runs its own way, glues ``@`` to a following
    name, ``yield from`` into one keyword and adjacent string literals into
    one string; those are reproduced. After ``def``, ``class``, ``from`` and
    ``import`` it lexes names in states of their own, which the loop follows
    loosely (``after`` for the next token, ``importing`` over names, dots and
    commas) to hand back what those states would read differently.
    """
    if _UNSAFE_TEXT.search(source):
        return None
    line_starts = list(accumulate((len(line) + 1 for line in source.split("\n")), initial=0))
    try:
        stream = list(generate_tokens(io.StringIO(source).readline))
    except (TokenError, SyntaxError):
        return None
    out: list[str] = []
    prev_kind, prev_text, prev_end = None, "", -1
    after, importing = None, False
    for tok in stream:
        kind, text = tok.type, tok.string
        if kind in _LAYOUT:
            continue
        start = line_starts[tok.start[0] - 1] + tok.start[1]
        end = line_starts[tok.end[0] - 1] + tok.end[1]
        glued = start == prev_end
        if kind != NAME and after == "class" or kind not in (NAME, NUMBER, STRING, OP, COMMENT):
            return None
        if kind == NAME:
            if (glued and prev_kind in (NUMBER, STRING)
                    or (after or importing) and text == "yield"
                    or text in ("match", "case")
                    and not source[line_starts[tok.start[0] - 1]:start].strip()):
                return None
            if glued and prev_text == "@":
                out[-1] += text
            elif (text == "from" and prev_text == "yield" == out[-1]
                  and start == prev_end + 1 and source[prev_end] == " "):
                out[-1] = "yield from"
            else:
                out.append(text)
        elif kind == NUMBER:
            if (glued and (prev_kind in (NAME, NUMBER, STRING) or prev_text.endswith("."))
                    or (after or importing) and text[0] == "."
                    or next((m.end() for rule in _NUMBER_RULES
                             if (m := rule.match(source, start))), None) != end):
                return None
            out.append(text)
        elif kind == STRING:
            prefix = text[:text.index(text[-1])]
            fields = (rule.match(source, start + at.start())
                      for at in re.finditer("[%{]", text) for rule in _FIELD_RULES)
            if ("f" in prefix.lower() or "\\'" in text or '\\"' in text or "\\N{" in text
                    or glued and prev_kind == NAME
                    or prefix and (after or importing or glued and prev_text == "@")
                    or any(m and m.end() > end for m in fields)):
                return None
            if glued and prev_kind == STRING:
                out[-1] += text
            else:
                out.append(text)
        elif kind == OP:
            run = out.pop() + text if glued and prev_kind == OP else text
            out.extend(_OPERATOR_RUN.findall(run))
        importing = (kind == NAME and (importing or text in ("from", "import"))
                     or importing and kind == OP and text in (".", "...", ","))
        after = text if kind == NAME and text in ("def", "class") else None
        prev_kind, prev_text, prev_end = kind, text, end
    return tuple(out)


def tokenize(program: Program) -> TokenSequence:
    """A program's lexical tokens; deterministic for a fixed (source, language).
    Python comes from the stdlib tokenizer unless ``_python_tokens`` hands it
    back to Pygments."""
    if program.language is Language.PYTHON:
        tokens = _python_tokens(program.source)
        if tokens is not None:
            return TokenSequence(tokens)
    return token_sequence(lex(program))
