"""Seeded input generators for the benchmark workloads.

Every generator takes an explicit ``random.Random`` (or a seed) and returns
plain strings and lists, so the same seed always yields the same inputs and
the program under test only ever sees the generated sources and files.

The snippet pools below are copies of the fixtures in ``tests/corpus.py``.
They are kept here so that edits to the test fixtures do not silently shift
the benchmark's inputs and golden values.
"""
from __future__ import annotations

import hashlib
import random
import re

PYTHON_SNIPPETS = [
    "def add(a, b):\n    return a + b\n",
    "def factorial(n):\n    out = 1\n    for i in range(2, n + 1):\n        out *= i\n    return out\n",
    "def is_even(n):\n    return n % 2 == 0\n",
    "def reverse_string(s):\n    return s[::-1]\n",
    "def maximum(values):\n    best = values[0]\n    for v in values[1:]:\n        if v > best:\n            best = v\n    return best\n",
    "def count_vowels(text):\n    vowels = 'aeiou'\n    total = 0\n    for ch in text:\n        if ch in vowels:\n            total += 1\n    return total\n",
    "def fibonacci(n):\n    a, b = 0, 1\n    for _ in range(n):\n        a, b = b, a + b\n    return a\n",
    "def flatten(nested):\n    flat = []\n    for item in nested:\n        flat.extend(item)\n    return flat\n",
    "def square_all(xs):\n    return [x * x for x in xs]\n",
    "def word_count(text):\n    counts = {}\n    for word in text.split():\n        counts[word] = counts.get(word, 0) + 1\n    return counts\n",
    "def clamp(x, lo, hi):\n    return max(lo, min(hi, x))\n",
    "def running_sum(xs):\n    total = 0\n    out = []\n    for x in xs:\n        total += x\n        out.append(total)\n    return out\n",
    "def unique_sorted(xs):\n    return sorted(set(xs))\n",
    "def dot(u, v):\n    return sum(a * b for a, b in zip(u, v))\n",
    "def title_case(text):\n    return ' '.join(w.capitalize() for w in text.split())\n",
    "import math\n\ndef hypotenuse(a, b):\n    return math.sqrt(a * a + b * b)\n",
    "def merge(d1, d2):\n    out = dict(d1)\n    out.update(d2)\n    return out\n",
    "def chunks(xs, size):\n    return [xs[i:i + size] for i in range(0, len(xs), size)]\n",
    "def strip_digits(text):\n    return ''.join(ch for ch in text if not ch.isdigit())\n",
    "def median(xs):\n    ordered = sorted(xs)\n    mid = len(ordered) // 2\n    if len(ordered) % 2:\n        return ordered[mid]\n    return (ordered[mid - 1] + ordered[mid]) / 2\n",
]

JAVA_SNIPPETS = [
    "class Adder {\n    int add(int a, int b) {\n        return a + b;\n    }\n}\n",
    "class Counter {\n    int count = 0;\n    void bump() {\n        count += 1;\n    }\n}\n",
    "class MaxFinder {\n    int maximum(int[] xs) {\n        int best = xs[0];\n        for (int i = 1; i < xs.length; i++) {\n            if (xs[i] > best) {\n                best = xs[i];\n            }\n        }\n        return best;\n    }\n}\n",
    "class Greeter {\n    String greet(String name) {\n        return \"Hello, \" + name;\n    }\n}\n",
    "class Summer {\n    int total(int[] xs) {\n        int sum = 0;\n        for (int x : xs) {\n            sum += x;\n        }\n        return sum;\n    }\n}\n",
]

PROSE = (
    "I would start by writing a helper function that walks the input once.\n"
    "Then the main routine can call it and collect the results in a list.\n"
    "Edge cases: an empty input returns an empty result, and None is rejected.\n"
    "This keeps the solution linear in the size of the input.\n"
)

REQUIREMENT_WORDS = (
    "write a function that returns the sum of a list of numbers, reverses a "
    "string, counts vowels in text, merges two dictionaries, finds the maximum "
    "value, flattens nested lists, computes a running total, splits a list into "
    "chunks, removes digits from text, sorts unique values, computes the median"
).split()

# Programs aim at this many lexical tokens (about 30 lines), so the cost of a
# set depends on its size, not on which snippets the seed happened to pick.
TARGET_TOKENS = 180

_TOKEN_RE = re.compile(r"\w+|==|!=|<=|>=|\+=|-=|\*=|//|\*\*|[^\w\s]")
_DEF_RE = re.compile(r"\b(def|class) (\w+)")
_NUMBER_RE = re.compile(r"\b\d+\b")


def stable_seed(*parts) -> int:
    """A seed derived from ``parts`` that is the same in every process."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def approx_tokens(source: str) -> int:
    return len(_TOKEN_RE.findall(source))


def rename_defs(snippet: str, suffix: str) -> str:
    return _DEF_RE.sub(lambda m: f"{m.group(1)} {m.group(2)}{suffix}", snippet)


def python_program(rng: random.Random, target: int = TARGET_TOKENS) -> str:
    """Corpus snippets with renamed functions, padded to ``target`` tokens."""
    parts: list[str] = []
    tokens = 0
    while tokens < target - 40:
        snippet = rename_defs(rng.choice(PYTHON_SNIPPETS), f"_{rng.randrange(100)}")
        parts.append(snippet)
        tokens += approx_tokens(snippet)
    pad = 0
    while tokens < target:
        line = f"LIMIT_{pad} = {rng.randrange(1000)}\n"
        parts.append(line)
        tokens += approx_tokens(line)
        pad += 1
    return "\n".join(parts)


def java_program(rng: random.Random, target: int = TARGET_TOKENS) -> str:
    """Corpus classes with renamed names, padded to ``target`` tokens with a
    class of constant fields."""
    parts: list[str] = []
    tokens = 0
    while tokens < target - 40:
        snippet = rename_defs(rng.choice(JAVA_SNIPPETS), str(rng.randrange(100)))
        parts.append(snippet)
        tokens += approx_tokens(snippet)
    fields = []
    tokens += 5  # class Limits { }
    while tokens < target:
        field = f"    int limit{len(fields)} = {rng.randrange(1000)};"
        fields.append(field)
        tokens += approx_tokens(field)
    parts.append("class Limits {\n" + "\n".join(fields) + "\n}\n")
    return "\n".join(parts)


def variant(source: str, rng: random.Random) -> str:
    """A near-identical copy: one number literal or one defined name changes."""
    numbers = list(_NUMBER_RE.finditer(source))
    if numbers and rng.random() < 0.5:
        m = rng.choice(numbers)
        return source[:m.start()] + str(int(m.group()) + 1) + source[m.end():]
    defs = list(_DEF_RE.finditer(source))
    if not defs:
        return source + "\n"
    m = rng.choice(defs)
    return source[:m.end()] + "x" + source[m.end():]


def agreement_set(rng: random.Random, n: int, make) -> list[str]:
    """A confident model: half identical copies, then near-copies, then a few
    unrelated programs."""
    base = make(rng)
    identical = n // 2
    near = (3 * n) // 10
    sources = [base] * identical
    sources += [variant(base, rng) for _ in range(near)]
    sources += [make(rng) for _ in range(n - identical - near)]
    return sources


def diverse_set(rng: random.Random, n: int, make) -> list[str]:
    return [make(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# Damaged LLM output


def truncated(source: str, rng: random.Random) -> str:
    """Cut somewhere in the second half, usually mid-line."""
    cut = rng.randrange(len(source) // 2, len(source) - 1)
    return source[:cut]


def with_bad_lines(source: str, rng: random.Random, bad: int) -> str:
    """Insert ``bad`` lines that do not parse at random positions."""
    lines = source.splitlines()
    for k in range(bad):
        pos = rng.randrange(len(lines) + 1)
        lines.insert(pos, f"    ) broken_{k} = = {k} (")
    return "\n".join(lines) + "\n"


def long_python(rng: random.Random, lines: int, bad: int) -> str:
    parts: list[str] = []
    while sum(p.count("\n") for p in parts) < lines:
        parts.append(python_program(rng))
    return with_bad_lines("\n".join(parts), rng, bad)


def nested_java(depth: int) -> str:
    expr = "(" * depth + "1" + ")" * depth
    return ("class Deep {\n    int value() {\n        int x = " + expr
            + ";\n        return x;\n    }\n}\n")


# Fixed counts, so that every seed costs the same to recover from.
HOSTILE_BAD_LINES = 45
HOSTILE_LONG_BAD_LINES = 85


def hostile_python_set(rng: random.Random, n: int) -> list[str]:
    """The mix of damage an LLM produces, at fixed proportions per set."""
    sources = [python_program(rng) for _ in range(n // 4)]
    sources += [truncated(python_program(rng), rng) for _ in range(n // 5)]
    sources += [PROSE for _ in range(n // 10)]
    sources += [with_bad_lines(python_program(rng) + python_program(rng), rng,
                               HOSTILE_BAD_LINES) for _ in range(n // 4)]
    sources += [long_python(rng, 300, HOSTILE_LONG_BAD_LINES)
                for _ in range(n // 10)]
    while len(sources) < n:
        sources.append(truncated(python_program(rng), rng))
    rng.shuffle(sources)
    return sources


def hostile_java_set(rng: random.Random, n: int) -> list[str]:
    """Truncated and parenthesis-heavy Java, and one program nested far
    beyond what a recursive parser survives."""
    sources = [java_program(rng) for _ in range(n // 2)]
    sources += [truncated(java_program(rng), rng) for _ in range(n // 4)]
    sources += [nested_java(250) for _ in range(n // 5)]
    while len(sources) < n - 1:
        sources.append(java_program(rng))
    sources.append(nested_java(3000))
    rng.shuffle(sources)
    return sources


def requirement_text(rng: random.Random) -> str:
    return " ".join(rng.choice(REQUIREMENT_WORDS) for _ in range(12))


# ---------------------------------------------------------------------------
# Replies of the stub endpoint


def chat_reply(seed: int, requirement: str, k: int) -> str:
    """The k-th completion the stub returns for ``requirement``.

    The benchmark tags a requirement ``...-agree`` (a confident model) or
    ``...-diverse``. In every ten replies, one is damaged (unfenced prose
    for k % 20 == 9, a truncated program for k % 20 == 19); of the other
    nine, a confident model repeats one program seven times. The mix is
    fixed so that every requirement of a kind costs the same to serve and
    to score; only the programs themselves come from the seed. Both
    figures (one damaged reply in ten, seven repeats in ten) are assumed,
    not measured.
    """
    rng = random.Random(stable_seed(seed, "program", requirement, k))
    if k % 20 == 9:
        return PROSE
    if requirement.endswith("-agree") and k % 10 < 7:
        source = python_program(random.Random(stable_seed(seed, "base", requirement)))
    else:
        source = python_program(rng)
    if k % 20 == 19:
        source = truncated(source, rng)
    return f"Here is the program.\n```python\n{source}```\n"


def embedding_vector(seed: int, text: str, dimension: int = 64) -> list[float]:
    """Deterministic positive vector, so cosines are never clamped."""
    rng = random.Random(stable_seed(seed, "embedding", text))
    return [rng.random() + 0.01 for _ in range(dimension)]
