"""Canonical program representation and lexical tokenization.

Every analysis in the package works over these immutable values. Tokenization
is backed by Pygments lexers so that comments are dropped and string literals
survive as single tokens.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

from pygments.lexers import JavaLexer, PythonLexer
from pygments.token import Comment, String, _TokenType

from .errors import UnknownLanguage, UnsupportedLanguage


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
    lexer = _LEXERS.get(program.language)
    if lexer is None:
        raise UnsupportedLanguage(str(program.language))
    return list(lexer.get_tokens(program.source))


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


def tokenize(program: Program) -> TokenSequence:
    """A program's lexical tokens; deterministic for a fixed (source, language)."""
    return token_sequence(lex(program))
