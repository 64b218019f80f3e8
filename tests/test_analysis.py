import ast
import gc
import importlib.util
import random
import sys
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

import pytest
from corpus import JAVA_CORPUS, PYTHON_CORPUS
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_confidence import program_text

from honest import analysis
from honest.analysis import (
    _JAVA_DECL_KINDS,
    Bag,
    CstNode,
    _convert_py,
    _head_kind,
    _java_tokens,
    _parse_python_ast,
    extract_dataflow,
    extract_subtrees,
    parse_cst,
)
from honest.confidence import analyze_program, estimate_confidence
from honest.model import Language, Program, SampleSet, lex
from honest.similarity import SimilarityWeights


def py(source):
    return Program(source, Language.PYTHON)


def java(source):
    return Program(source, Language.JAVA)


class TestParseCst:
    def test_python_root_kind(self):
        assert parse_cst(py("x = 1")).kind == "Module"

    def test_empty_python_source(self):
        tree = parse_cst(py(""))
        assert tree.kind == "Module"
        assert tree.children == ()

    def test_java_class_declaration(self):
        tree = parse_cst(java("class A {}"))
        kinds = _all_kinds(tree)
        assert tree.kind == "compilation_unit"
        assert "class_declaration" in kinds

    def test_java_method_declaration(self):
        tree = parse_cst(java(JAVA_CORPUS[0]))
        assert "method_declaration" in _all_kinds(tree)

    def test_python_parse_error_recovers_with_error_nodes(self):
        tree = parse_cst(py("x = 1\ndef broken(:\ny = 2\n"))
        kinds = _all_kinds(tree)
        assert "ERROR" in kinds
        assert "Assign" in kinds  # the valid lines survive

    def test_python_two_bad_lines_two_error_leaves(self):
        clean = "a = 1\nb = a\nc = a + b\n"
        damaged = "a = 1\ndef broken(:\nb = a\nx = = 2\nc = a + b\n"
        tree = parse_cst(py(damaged))
        assert _count_kind(tree, "ERROR") == 2
        assert extract_dataflow(py(damaged)).counts == extract_dataflow(py(clean)).counts

    def test_java_unbalanced_braces_recover(self):
        tree = parse_cst(java("class A { void f() {"))
        assert "ERROR" in _all_kinds(tree)
        assert "class_declaration" in _all_kinds(tree)

    def test_corpus_snapshot_kinds(self):
        # root kinds are stable over the whole golden corpus
        for source in PYTHON_CORPUS:
            assert parse_cst(py(source)).kind == "Module"
        for source in JAVA_CORPUS:
            assert parse_cst(java(source)).kind == "compilation_unit"


def _count_kind(node, kind):
    return (node.kind == kind) + sum(_count_kind(c, kind) for c in node.children)


def _all_kinds(node):
    out = {node.kind}
    for child in node.children:
        out |= _all_kinds(child)
    return out


class TestExtractSubtrees:
    def test_identical_programs_identical_bags(self):
        for source in PYTHON_CORPUS[:5]:
            a = extract_subtrees(parse_cst(py(source)))
            b = extract_subtrees(parse_cst(py(source)))
            assert a.counts == b.counts

    def test_literal_change_leaves_bags_equal(self):
        # the Python grammar does not distinguish literal values by kind
        a = extract_subtrees(parse_cst(py("x = 1")), height=1)
        b = extract_subtrees(parse_cst(py("x = 2")), height=1)
        assert a.counts == b.counts

    def test_empty_program_empty_bag(self):
        assert len(extract_subtrees(parse_cst(py("")))) == 0

    def test_nonempty_program_nonempty_bag(self):
        for source in PYTHON_CORPUS:
            assert len(extract_subtrees(parse_cst(py(source)))) >= 1

    def test_height_validation(self):
        with pytest.raises(ValueError):
            extract_subtrees(parse_cst(py("x = 1")), height=0)

    def test_fingerprints_height_limited(self):
        tree = CstNode("a", (CstNode("b", (CstNode("c", (CstNode("d"),)),)),))
        bag = extract_subtrees(tree, height=1)
        assert bag.counts == Counter({"a(b)": 1, "b(c)": 1, "c(d)": 1})


@pytest.mark.parametrize("program", [py(s) for s in PYTHON_CORPUS] + [java(s) for s in JAVA_CORPUS]
                         + [py(""), java(""), py("a = 1\ndef broken(:\nb = a\n"),
                            java("class A { void f() { int b = a;")])
def test_subtrees_and_dataflow_are_bags(program):
    for bag in (extract_subtrees(parse_cst(program)), extract_dataflow(program)):
        assert type(bag) is Bag
        assert len(bag) == bag.size == sum(bag.counts.values())


# Hand-enumerated def-use oracle: each snippet paired with its exact edge
# multiset under the linearized, name-based extraction rules.
PYTHON_DATAFLOW_ORACLE = [
    ("a = 1\nb = a\n", {("a", "b"): 1}),
    ("pass\n", {}),
    ("a = 1\nb = a\nc = a\n", {("a", "b"): 1, ("a", "c"): 1}),
    ("x = 1\ny = x + x\n", {("x", "y"): 2}),
    ("a, b = 1, 2\nc = a + b\n", {("a", "c"): 1, ("b", "c"): 1}),
    ("total = 0\nfor x in xs:\n    total += x\n",
     {("xs", "x"): 1, ("x", "total"): 1, ("total", "total"): 1}),
    ("n = 5\nout = factorial(n)\n", {("n", "out"): 1}),
    ("a = 1\na += 2\n", {("a", "a"): 1}),
    ("xs = [1]\nys = [x * 2 for x in xs]\n",
     {("x", "ys"): 1, ("xs", "ys"): 1, ("xs", "x"): 1}),
    ("with open(p) as f:\n    data = f.read()\n",
     {("p", "f"): 1, ("f", "data"): 1}),
    ("x = y = 1\n", {}),
    ("b = a\na = b\n", {("a", "b"): 1, ("b", "a"): 1}),
    ("i = 0\nwhile i < 10:\n    i = i + 1\n", {("i", "i"): 1}),
    ("d = {}\nd['k'] = v\n", {}),
    ("def f(x):\n    y = x + 1\n    return y\n", {("x", "y"): 1}),
    ("a = 1\nb: int = a\n", {("a", "b"): 1}),
    ("b: int\n", {}),
    ("if (n := len(xs)) > 0:\n    pass\n", {("xs", "n"): 1}),
    ("async def f():\n    async for x in xs:\n        y = x\n",
     {("xs", "x"): 1, ("x", "y"): 1}),
    ("async def f():\n    async with open(p) as h:\n        pass\n", {("p", "h"): 1}),
    ("with lock:\n    a = b\n", {("b", "a"): 1}),
    ("a, b = b, a\n", {("b", "a"): 1, ("a", "a"): 1, ("b", "b"): 1, ("a", "b"): 1}),
    ("d = {k: v for k, v in items}\n",
     {("k", "d"): 1, ("v", "d"): 1, ("items", "d"): 1, ("items", "k"): 1, ("items", "v"): 1}),
    # ast.parse names no line for a NUL byte: the line that holds it is dropped
    ("a = 1\nb = a\nc = b\0\n", {("a", "b"): 1}),
]

JAVA_DATAFLOW_ORACLE = [
    ("int a = 1; int b = a;", {("a", "b"): 1}),
    ("class A {}", {}),
    ("int a = 1; int b = a + c;", {("a", "b"): 1, ("c", "b"): 1}),
    ("x += y;", {("y", "x"): 1, ("x", "x"): 1}),
    ("int s = 0; for (int i = 0; i < n; i++) { s += i; }",
     {("i", "s"): 1, ("s", "s"): 1}),
    ("int result = compute(a, b);", {("a", "result"): 1, ("b", "result"): 1}),
    # comparisons are no assignment: pygments lexes "==" as "=", "="
    ("if (a == b) x = c;", {("c", "x"): 1}),
    ("if (a != b) x = c;", {("c", "x"): 1}),
    ("if (a <= b) x = c;", {("c", "x"): 1}),
    ("if (a >= b) x = c;", {("c", "x"): 1}),
    ("boolean e = a == b;", {("a", "e"): 1, ("b", "e"): 1}),
    ("x -= y;", {("y", "x"): 1, ("x", "x"): 1}),
    ("x ^= y;", {("y", "x"): 1, ("x", "x"): 1}),
    ("x <<= y;", {("y", "x"): 1, ("x", "x"): 1}),
    ("x >>= y;", {("y", "x"): 1, ("x", "x"): 1}),
    ("x >>>= y;", {("y", "x"): 1, ("x", "x"): 1}),
]


class TestExtractDataflow:
    @pytest.mark.parametrize("source,expected", PYTHON_DATAFLOW_ORACLE)
    def test_python_oracle(self, source, expected):
        assert extract_dataflow(py(source)).counts == Counter(expected)

    @pytest.mark.parametrize("source,expected", JAVA_DATAFLOW_ORACLE)
    def test_java_oracle(self, source, expected):
        assert extract_dataflow(java(source)).counts == Counter(expected)

    def test_deterministic(self):
        for source in PYTHON_CORPUS:
            assert extract_dataflow(py(source)).counts == extract_dataflow(py(source)).counts

    def test_alpha_sensitive(self):
        a = extract_dataflow(py("a = 1\nb = a\n"))
        b = extract_dataflow(py("z = 1\nb = z\n"))
        assert a.counts != b.counts

    def test_parse_error_best_effort(self):
        edges = extract_dataflow(py("a = 1\nb = a\ndef broken(:\n")).counts
        assert edges == Counter({("a", "b"): 1})

    def test_parser_warnings_stay_silent(self):
        program = py("x = 1if y else 2")  # ast.parse warns: invalid decimal literal
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse_cst(program)
            edges = extract_dataflow(program).counts
        assert [str(w.message) for w in caught] == []
        assert edges == Counter({("y", "x"): 1})


def test_python_parses_from_threads_raise_nothing():
    """CPython 3.11's ast.parse raises SystemError ("AST constructor recursion
    depth mismatch", gh-106905) when another thread enters it while it runs
    Python code, here a gc callback; and threads silencing its warnings at once
    leave the process-wide filters changed. Parsing holds a lock around both."""
    errors = []
    sources = [*PYTHON_CORPUS, "x = 1if y else 2"]  # ast.parse warns on "1if"

    def parse_for(seconds):
        end = time.perf_counter() + seconds
        try:
            while time.perf_counter() < end and not errors:
                for source in sources:
                    parse_cst(py(source))
        except Exception as exc:  # noqa: BLE001 - any escape fails the test
            errors.append(exc)

    def on_gc(phase, info):
        pass

    threads = [threading.Thread(target=parse_for, args=(1.0,)) for _ in range(4)]
    threshold, interval = gc.get_threshold(), sys.getswitchinterval()
    filters = list(warnings.filters)
    gc.callbacks.append(on_gc)
    gc.set_threshold(50)
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        gc.set_threshold(*threshold)
        gc.callbacks.remove(on_gc)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert warnings.filters == filters


class SeedPyDefUse(ast.NodeVisitor):
    """The Python def-use pass as first written: a recursive visitor."""

    def __init__(self):
        self.edges = Counter()

    @staticmethod
    def _loads(node):
        call_funcs = {id(c.func) for c in ast.walk(node)
                      if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
        return [n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                and id(n) not in call_funcs]

    @staticmethod
    def _stores(node):
        return [n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]

    def _add(self, reads, writes):
        for w in writes:
            for r in reads:
                self.edges[(r, w)] += 1

    def visit_Assign(self, node):
        reads = self._loads(node.value)
        for target in node.targets:
            self._add(reads + self._loads(target), self._stores(target))
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self._add(self._loads(node.value), self._stores(node.target))
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        writes = self._stores(node.target)
        self._add(self._loads(node.value) + writes, writes)
        self.generic_visit(node)

    def visit_NamedExpr(self, node):
        self._add(self._loads(node.value), self._stores(node.target))
        self.generic_visit(node)

    def visit_For(self, node):
        self._add(self._loads(node.iter), self._stores(node.target))
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_withitem(self, node):
        if node.optional_vars is not None:
            self._add(self._loads(node.context_expr), self._stores(node.optional_vars))
        self.generic_visit(node)

    def visit_comprehension(self, node):
        self._add(self._loads(node.iter), self._stores(node.target))
        self.generic_visit(node)


def seed_python_dataflow(source):
    visitor = SeedPyDefUse()
    try:
        visitor.visit(_parse_python_ast(source)[0])
    except (RecursionError, UnicodeEncodeError):
        return Counter()
    return visitor.edges


def seed_java_dataflow(tokens):
    """The Java def-use pass as first written, with multi-character operator
    tables and a nested per-segment closure."""
    assign_ops = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}
    compound_prefixes = {"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", ">>>"}
    edges = Counter()
    segment = []

    def process(seg):
        for idx, (kind, text) in enumerate(seg):
            if not (kind.startswith("op_") and text in assign_ops):
                continue
            compound = text != "="
            if not compound:
                nxt = seg[idx + 1][1] if idx + 1 < len(seg) else ""
                prev = seg[idx - 1][1] if idx > 0 else ""
                prev2 = seg[idx - 2][1] if idx > 1 else ""
                if nxt == "=" or prev in ("=", "!"):
                    continue
                if prev in ("<", ">"):
                    if prev2 != prev:
                        continue
                    compound = True
                elif prev in compound_prefixes:
                    compound = True
            targets = [t for k, t in seg[:idx] if k == "identifier"]
            if not targets:
                return
            target = targets[-1]
            reads = []
            rhs = seg[idx + 1:]
            for j, (k, t) in enumerate(rhs):
                if k != "identifier":
                    continue
                after = rhs[j + 1][1] if j + 1 < len(rhs) else ""
                if after == "(":
                    continue
                reads.append(t)
            if compound:
                reads.append(target)
            for r in reads:
                edges[(r, target)] += 1
            return

    for kind, text in tokens:
        if text in ";{}":
            process(segment)
            segment = []
        else:
            segment.append((kind, text))
    process(segment)
    return edges


_py_names = st.sampled_from(["a", "b", "c", "f", "xs"])
_py_targets = st.one_of(_py_names, st.sampled_from(["a, b", "(a, [b, c])", "a[i]", "a.b", "*a, b"]))
_py_exprs = st.recursive(
    st.one_of(_py_names, st.sampled_from(["1", "'s'", "f()"])),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " < ", " and ", ", "]), inner).map("".join),
        st.tuples(st.sampled_from(["f", "a.m", "len"]), inner).map(lambda p: f"{p[0]}({p[1]})"),
        st.tuples(_py_names, inner).map(lambda p: f"({p[0]} := {p[1]})"),
        st.tuples(_py_names, inner).map(lambda p: f"[{p[0]} * 2 for {p[0]} in {p[1]} if {p[0]}]"),
        st.tuples(_py_names, _py_names, inner).map(
            lambda p: f"{{{p[0]}: {p[1]} for {p[0]}, {p[1]} in {p[2]}}}"),
        inner.map(lambda e: f"-({e})"),
        inner.map(lambda e: f"lambda q: q + {e}"),
        inner.map(lambda e: f"{e}[a]")),
    max_leaves=5)
_py_statements = st.one_of(
    st.tuples(_py_targets, _py_exprs).map(lambda p: f"{p[0]} = {p[1]}"),
    st.tuples(_py_names, _py_targets, _py_exprs).map(lambda p: f"{p[0]} = {p[1]} = {p[2]}"),
    st.tuples(_py_names, st.sampled_from(["+=", "-=", "|="]), _py_exprs).map(" ".join),
    st.tuples(_py_names, _py_exprs).map(lambda p: f"{p[0]}: int = {p[1]}"),
    _py_names.map(lambda n: f"{n}: list"),
    st.tuples(_py_targets, _py_exprs, _py_names).map(
        lambda p: f"for {p[0]} in {p[1]}:\n    {p[2]} = {p[0]}"),
    st.tuples(_py_targets, _py_exprs).map(
        lambda p: f"async def g():\n    async for {p[0]} in {p[1]}:\n        pass"),
    st.tuples(_py_exprs, _py_targets).map(lambda p: f"with {p[0]} as {p[1]}:\n    pass"),
    st.tuples(_py_exprs, _py_names, _py_exprs).map(
        lambda p: f"async def g():\n    async with {p[0]} as {p[1]}, {p[2]}:\n        pass"),
    st.tuples(_py_exprs, _py_names).map(lambda p: f"def h({p[1]}):\n    return {p[0]}"),
    _py_exprs,
    st.sampled_from(["def broken(:", "x = = 1", "  y = 2", "1if a else b"]))
python_programs = st.lists(_py_statements, max_size=6).map("\n".join)

_JAVA_PIECES = st.one_of(st.sampled_from(["a", "b", "x", "f"]), st.sampled_from([
    "int", "1", '"s"', "'c'", "new", "this", "(", ")", "[", "]", ",", ".", "=", "==", "!=",
    "<=", ">=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>=", "<",
    ">", "<<", ">>", ">>>", "!", "~", "?", ":", "+", "-", "*", "&&", "++"]))
_java_statements = st.lists(_JAVA_PIECES, max_size=8).map(" ".join)
# spaced or not: pygments lexes "a+=b" and "a + = b" alike, one token per operator character
java_sources = st.tuples(
    st.lists(st.tuples(_java_statements, st.sampled_from([";", "{", "}", " "])), max_size=8),
    st.booleans()).map(lambda p: "".join(s + sep for s, sep in p[0]).replace(" ", " " * p[1]))


class TestDataflowMatchesSeedPasses:
    @given(source=python_programs)
    @example(source="a, b = b, a\nd = {k: v for k, v in items}")
    @settings(max_examples=300, deadline=None)
    def test_python(self, source):
        assert extract_dataflow(py(source)).counts == seed_python_dataflow(source)

    @given(source=java_sources)
    @example(source="x >>>= y; if (a <= b) c = d == e; f(g) != h;")
    @settings(max_examples=300, deadline=None)
    def test_java(self, source):
        program = java(source)
        assert extract_dataflow(program).counts == seed_java_dataflow(_java_tokens(lex(program)))


def seed_parse_java_group(tokens, pos, closer, in_type_body):
    """The Java group parser as first written, recursing once per bracket."""
    nodes, head = [], []

    def flush(kind="statement"):
        nonlocal head
        if head:
            nodes.append(CstNode(kind, tuple(head)))
            head = []

    while pos < len(tokens):
        kind, text = tokens[pos]
        if closer is not None and text == closer:
            return nodes, pos + 1
        if text == "{":
            construct_kind = _head_kind([n.kind for n in head], in_type_body)
            body_is_type = construct_kind in set(_JAVA_DECL_KINDS.values())
            children, pos = seed_parse_java_group(tokens, pos + 1, "}", body_is_type)
            nodes.append(CstNode(construct_kind,
                                 tuple(head) + (CstNode("block", tuple(children)),)))
            head = []
            continue
        if text == "(":
            children, pos = seed_parse_java_group(tokens, pos + 1, ")", False)
            head.append(CstNode("paren_group", tuple(children)))
            continue
        if text in ")}":
            head.append(CstNode("ERROR"))
            pos += 1
            continue
        if text == ";":
            flush()
            pos += 1
            continue
        head.append(CstNode(kind))
        pos += 1
    if closer is not None:
        flush()
        nodes.append(CstNode("ERROR"))
    else:
        flush()
    return nodes, pos


def seed_parse_java(source):
    nodes, _ = seed_parse_java_group(_java_tokens(lex(java(source))), 0, None, True)
    return CstNode("compilation_unit", tuple(nodes))


def nested_java(depth):
    expr = "(" * depth + "1" + ")" * depth
    return "class Deep {\n    int value() {\n        int x = " + expr + ";\n    }\n}\n"


class TestJavaParserIterative:
    def test_same_tree_as_recursive_parser(self):
        rng = random.Random(21)
        pieces = ["{", "}", "(", ")", ";", "class A", "interface I", "if", "else",
                  "for", "x", "=", "1", "int", "f", "return", "\"s\""]
        sources = list(JAVA_CORPUS) + [nested_java(60), "{" * 60 + "x;" + "}" * 60,
                                       "", ")}", "class A { void f() {"]
        sources += [" ".join(rng.choices(pieces, k=rng.randint(0, 60)))
                    for _ in range(400)]
        # nested_java(3000) is too deep for the recursive parser; the deep
        # nesting tests below cover it
        sources += [s for s in bench_sources("java") if "(" * 1000 not in s]
        for source in sources:
            assert parse_cst(java(source)) == seed_parse_java(source), source

    @pytest.mark.parametrize("depth", [3000, 10000])
    def test_deep_parentheses_parse(self, depth):
        program = java(nested_java(depth))
        tree = parse_cst(program)
        assert _count_kind_iterative(tree, "paren_group") >= 1
        assert len(extract_subtrees(tree)) > 0
        assert extract_dataflow(program).counts == Counter()

    @pytest.mark.parametrize("depth", [3000, 10000])
    def test_deep_blocks_keep_every_level(self, depth):
        tree = parse_cst(java("{" * depth + "x;" + "}" * depth))
        assert _count_kind_iterative(tree, "block") == depth
        assert _count_kind_iterative(tree, "ERROR") == 0
        assert sum(extract_subtrees(tree).counts.values()) == 2 * depth + 2


def _count_kind_iterative(tree, kind):
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += node.kind == kind
        stack.extend(node.children)
    return count


# Too deep for ast.parse up to CPython 3.12: RecursionError for the first two,
# which 3.13 parses, and MemoryError (its fixed parser stack) for the last.
DEEP_PYTHON = {"minus": "x = " + "-" * 3000 + "y", "plus": "x = " + "a + " * 3000 + "b",
               "minus-8000": "x = " + "-" * 8000 + "y"}
# (source, nesting depth) that ast.parse accepts; the last two nest past the
# interpreter's recursion limit
PARSED_DEEP_PYTHON = {"minus-700": ("x = " + "-" * 700 + "y", 700),
                      "not": ("x = " + "not " * 2000 + "y", 2000),
                      "minus-1500": ("x = " + "-" * 1500 + "y", 1500)}


@pytest.mark.parametrize("source, depth", PARSED_DEEP_PYTHON.values(),
                         ids=PARSED_DEEP_PYTHON.keys())
def test_deep_python_that_ast_parses_keeps_tree_and_edges(source, depth):
    program = py(source)
    tree = parse_cst(program)
    assert _count_kind_iterative(tree, "ERROR") == 0
    assert _count_kind_iterative(tree, "UnaryOp") == depth
    assert extract_dataflow(program).counts == Counter({("y", "x"): 1})


def _ast_parses(source):
    try:
        ast.parse(source)
    except (RecursionError, MemoryError):
        return False
    return True


class TestDeepPythonNesting:
    # the edges of a DEEP_PYTHON chain that ast.parse accepts
    PARSED_EDGES = {"minus": Counter({("y", "x"): 1}),
                    "plus": Counter({("a", "x"): 3000, ("b", "x"): 1})}

    @pytest.mark.parametrize("name", DEEP_PYTHON)
    def test_every_line_dropped(self, name):
        """Every line is dropped where ast.parse rejects the nesting. That limit is
        the interpreter's, not the package's: 3.13 accepts the 3000-deep chains,
        and the program then keeps its tree and edges. The 8000-deep chain
        overflows the parser's stack on 3.11 to 3.13, and drops every line."""
        program = py(DEEP_PYTHON[name] + "\nz = 1\n")
        tree = parse_cst(program)
        if name in self.PARSED_EDGES and _ast_parses(DEEP_PYTHON[name]):
            assert _count_kind_iterative(tree, "ERROR") == 0
            assert extract_dataflow(program).counts == self.PARSED_EDGES[name]
            return
        error = CstNode("ERROR")
        assert tree == CstNode("Module", (error, error))
        assert extract_dataflow(program).counts == Counter()

    @pytest.mark.parametrize(
        "source", [*DEEP_PYTHON.values(), *(s for s, _ in PARSED_DEEP_PYTHON.values())],
        ids=[*DEEP_PYTHON, *PARSED_DEEP_PYTHON])
    def test_ends_in_a_score(self, source, local_provider):
        samples = SampleSet("deep", "", (py(source), py(source), py("x = 1")))
        report = estimate_confidence(samples, SimilarityWeights.uniform(),
                                     local_provider)
        assert 0.0 <= report.confidence <= 1.0


def seed_convert_py(node):
    """The Python tree conversion as first written, recursing once per level."""
    children = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.expr_context):
            continue  # Load/Store markers add no structure
        children.append(seed_convert_py(child))
    return CstNode(type(node).__name__, tuple(children))


def seed_parse_python_ast(source):
    """The line-drop recovery as first written: every attempt parses from line 1."""
    lines = source.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")
    dropped = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while True:
            try:
                return ast.parse("\n".join(lines)), dropped
            except SyntaxError as exc:
                line = exc.lineno or next((i + 1 for i, s in enumerate(lines) if "\0" in s), 1)
                del lines[min(line, len(lines)) - 1]
                dropped += 1
            except (RecursionError, MemoryError, UnicodeEncodeError):
                return ast.Module([], []), dropped + len(lines)


def seed_python_cst(source):
    """The Python tree as first built: the seed recovery, the recursive conversion."""
    module, dropped = seed_parse_python_ast(source)
    tree = seed_convert_py(module)
    return CstNode(tree.kind, tree.children + (CstNode("ERROR"),) * dropped)


def bench_gen():
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parent.parent / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def bench_sources(language):
    """The benchmark's agreement, diverse and hostile sets of *language*
    ("python" or "java"), seeds 0-2."""
    gen = bench_gen()
    make, hostile = getattr(gen, f"{language}_program"), getattr(gen, f"hostile_{language}_set")
    sources = []
    for seed in range(3):
        rng = random.Random(seed)
        sources += gen.agreement_set(rng, 50, make)
        sources += gen.diverse_set(rng, 50, make)
        sources += hostile(rng, 20)
    return list(dict.fromkeys(sources))


# Lines that broke early versions of the recovery that resumes from marks: a
# column-0 line dropped with indented lines below it, calls that CPython's
# error-reporting pass reads as soft-keyword statements, clauses and a decorator
# at column 0 that continue the statement above, a class header whose "):" sits
# at column 0, the benchmark's bad line, a NUL byte and nesting too deep to parse.
_DAMAGE_LINES = st.sampled_from([
    "x = = 1", "def broken(:", "    ) broken_k = = k (", "match(x)", "case(1)", "type(x)",
    "else:", "except E:", "@d", "class A(\n    B\n):", "class A(", "    B", "):",
    "def f():", "if x:", "try:", "    pass", "    y = x", "        z = y", "a\0b",
    *DEEP_PYTHON.values()])
damaged_python = st.tuples(
    st.lists(st.one_of(_DAMAGE_LINES, _py_statements), max_size=12),
    st.sampled_from(["\n", "\r\n", "\r"])).map(lambda p: "\n".join(p[0]).replace("\n", p[1]))


class TestPythonConversionIterative:
    """The package's Python trees equal ``seed_python_cst``'s: the recovery that
    resumes from marks drops the lines the seed loop drops, and the iterative
    conversion builds the tree the recursive one builds."""

    # ast shares operator nodes such as ast.Add between parents
    SHARED_OPERATORS = ["x = a + b + c", "y = -a - b", "x = a + b + c\ny = -a - b\ndef f(:\n"]

    def test_same_tree_as_recursive_conversion(self):
        gen = bench_gen()
        long_programs = [gen.long_python(random.Random(s), 300, 85) for s in range(3)]
        sources = [*PYTHON_CORPUS, *(s for s, _ in PYTHON_DATAFLOW_ORACLE),
                   *self.SHARED_OPERATORS, *bench_sources("python"), *long_programs]
        for source in sources:
            assert _parse_python_ast(source)[1] == seed_parse_python_ast(source)[1], source
            assert parse_cst(py(source)) == seed_python_cst(source), source

    @given(source=st.one_of(program_text, python_programs))
    @settings(max_examples=300, deadline=None)
    def test_same_tree_on_any_text(self, source):
        assert parse_cst(py(source)) == seed_python_cst(source)

    @given(source=damaged_python)
    # a dropped mark line that left an indented line at the mark, and a call
    # read as a match statement by the error-reporting pass
    @example(source="if x:\n    pass\nclass A(\n    B\nif x:\ndef broken(:")
    @example(source="match(x)\nclass A(\nif x:\n    y = x\n    B\ncase(1)\n):")
    @settings(max_examples=300, deadline=None)
    def test_same_drops_on_damaged_text(self, source):
        module, dropped = _parse_python_ast(source)
        seed_module, seed_dropped = seed_parse_python_ast(source)
        assert dropped == seed_dropped
        # equal walks, equal trees; == on CstNodes would recurse once per level
        assert _convert_py(module, dropped)[0] == _convert_py(seed_module, seed_dropped)[0]


@pytest.mark.parametrize("source, drops, parses", [
    ("a = 1\nb = a\n", 0, 1),
    # no mark is sought before the second drop: one failed parse, one that succeeds
    ("a = 1\nx = = 2\nb = a\n", 1, 2),
    # two failed parses; the second drop makes "b = a" a mark, after two checks
    # that "a = 1" is a clean prefix (it parses; "a = 1\n=" errs at the "=");
    # the lines from the mark parse, then the whole text parses once more
    ("a = 1\ndef broken(:\nb = a\nx = = 2\nc = a + b\n", 2, 6),
    # a form feed breaks no line, for Python or for recovery: one failed parse,
    # one drop, one parse that succeeds
    ("x = 1\f\ny = = 2\nz = x\n", 1, 2),
    # four failed parses and one that succeeds; "d" is checked once, at the
    # second drop, and fails ("x = {" does not parse), then is not checked again
    ("x = {\nd\n)\n)\n)\n", 4, 6),
], ids=["clean", "one-bad-line", "two-bad-lines", "form-feed", "unclosed-bracket"])
def test_parse_count(source, drops, parses, monkeypatch):
    calls = []
    parse = analysis.ast.parse

    def counting_parse(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(analysis.ast, "parse", counting_parse)
    assert _parse_python_ast(source)[1] == drops
    assert len(calls) == parses


def test_long_damaged_program_recovers_in_bounded_time():
    """Recovery resumes from its marks, so a drop costs about the distance
    between errors, not the file: the seed loop, which parses every attempt from
    line 1, takes over 15 s on this program (CPython 3.11, 2 vCPU)."""
    source = bench_gen().long_python(random.Random(0), 2460, 1200)
    assert source.count("\n") == 3745
    start = time.perf_counter()
    tree = parse_cst(py(source))
    assert time.perf_counter() - start < 10
    assert _count_kind_iterative(tree, "ERROR") == 1200  # each inserted bad line


class TestPythonLineBreaks:
    """Recovery drops the lines Python reads: only "\\r\\n", "\\r" and "\\n" break them."""

    def test_form_feed_in_a_string_costs_no_line(self):
        source = "s = 'a\fb'\nt = s\nx = = 1\n"
        tree = parse_cst(py(source))
        assert _count_kind(tree, "ERROR") == 1
        assert extract_dataflow(py(source)).counts == Counter({("s", "t"): 1})
        plain = parse_cst(py(source.replace("a\fb", "ab")))
        assert extract_subtrees(tree) == extract_subtrees(plain)

    @pytest.mark.parametrize("source", ["a = 1\x85b = 2", "\x1c"],
                             ids=["next-line", "file-separator"])
    def test_break_python_does_not_read_is_damage(self, source):
        assert _count_kind(parse_cst(py(source)), "ERROR") == 1

    @pytest.mark.parametrize("ending", ["\r", "\n"], ids=["cr", "lf"])
    def test_carriage_return_breaks_a_line_as_newline_does(self, ending):
        source = f"a = 1{ending}b = = 2{ending}c = a{ending}"
        assert _parse_python_ast(source)[1] == 1
        assert extract_dataflow(py(source)).counts == Counter({("a", "c"): 1})

    @given(source=st.one_of(st.sampled_from(PYTHON_CORPUS), python_programs),
           bad=st.sampled_from(["x = = 1", "def broken(:", "    ) broken = = 0 ("]),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_line_endings_leave_recovery_unchanged(self, source, bad, data):
        lines = source.split("\n")
        at = data.draw(st.integers(0, len(lines)))
        damaged = "\n".join(lines[:at] + [bad] + lines[at:])
        dropped, tree = _parse_python_ast(damaged)[1], parse_cst(py(damaged))
        assert dropped >= 1
        for ending in ("\r\n", "\r"):
            rewritten = damaged.replace("\n", ending)
            assert _parse_python_ast(rewritten)[1] == dropped
            assert parse_cst(py(rewritten)) == tree


def seed_extract_subtrees(tree, height):
    """``extract_subtrees`` as it read before the walk was shared: its own
    walk of the ``CstNode`` tree, fingerprints built bottom-up."""
    walk, stack = [], [tree]
    while stack:
        node = stack.pop()
        walk.append(node)
        stack += node.children
    bag = Counter()
    prints = []
    for kind, children in reversed(walk):
        if not children:
            prints.append([kind] * height)
            continue
        start = len(prints) - len(children)
        node_prints = [kind, *(kind + "(" + ")(".join(row) + ")"
                               for row in zip(*prints[start:]))]
        bag[node_prints.pop()] += 1
        prints[start:] = [node_prints]
    return Bag(bag)


_kinds = st.sampled_from(["Module", "Name", "ERROR", "a", "b(c)", ""])
cst_trees = st.recursive(
    _kinds.map(CstNode),
    lambda children: st.builds(CstNode, _kinds, st.lists(children, max_size=4).map(tuple)),
    max_leaves=40)


class TestSharedWalk:
    """An analysis reads its subtree bag straight off the walk its parser
    emits, and ``extract_subtrees`` off a ``CstNode`` tree's walk, through the
    same fingerprint routine."""

    @given(tree=cst_trees, height=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_walk_fingerprints_equal_the_tree_routine(self, tree, height):
        want = seed_extract_subtrees(tree, height)
        assert analysis._fingerprints(analysis._flatten(tree), height) == want
        assert extract_subtrees(tree, height) == want

    @pytest.mark.parametrize("program", [
        *(py(s) for s in PYTHON_CORPUS), *(java(s) for s in JAVA_CORPUS),
        *(py(bench_gen().long_python(random.Random(seed), 120, 40)) for seed in range(3)),
        py("x = " + "(" * 10000 + "y" + ")" * 10000 + "\nz = x\n"),
        py("x = " + "-" * 10000 + "y\nz = x\n"),
        *(py(s) for s, _ in PARSED_DEEP_PYTHON.values()),
        java(nested_java(10000)),
        java("{" * 10000 + "x = y;" + "}" * 10000),
    ], ids=lambda p: f"{p.language.value}-{len(p.source)}")
    def test_analysis_equals_the_public_functions(self, program, local_provider):
        analysed = analyze_program(program, local_provider)
        assert analysed.subtree_bag == extract_subtrees(parse_cst(program))
        assert analysed.dataflow == extract_dataflow(program)

    def test_analysis_builds_no_tree(self, local_provider, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return CstNode(*args)

        monkeypatch.setattr(analysis, "CstNode", counted)
        damaged = bench_gen().long_python(random.Random(0), 60, 20)
        for program in (*(py(s) for s in (*PYTHON_CORPUS, damaged, "")),
                        *(java(s) for s in (*JAVA_CORPUS, nested_java(10000), ""))):
            analyze_program(program, local_provider)
        assert built == []
        parse_cst(java(JAVA_CORPUS[0]))  # the count sees a tree being built
        assert built
