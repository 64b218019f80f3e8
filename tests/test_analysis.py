import random
from collections import Counter

import pytest
from corpus import JAVA_CORPUS, PYTHON_CORPUS

from honest.analysis import (
    _JAVA_DECL_KINDS,
    CstNode,
    _head_kind,
    _java_tokens,
    extract_dataflow,
    extract_subtrees,
    parse_cst,
)
from honest.confidence import estimate_confidence
from honest.model import Language, Program, SampleSet
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
        assert extract_dataflow(py(damaged)).edges == extract_dataflow(py(clean)).edges

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
            assert a.entries == b.entries

    def test_literal_change_leaves_bags_equal(self):
        # the Python grammar does not distinguish literal values by kind
        a = extract_subtrees(parse_cst(py("x = 1")), height=1)
        b = extract_subtrees(parse_cst(py("x = 2")), height=1)
        assert a.entries == b.entries

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
        assert bag.entries == Counter({"a(b)": 1, "b(c)": 1, "c(d)": 1})


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
]

JAVA_DATAFLOW_ORACLE = [
    ("int a = 1; int b = a;", {("a", "b"): 1}),
    ("class A {}", {}),
    ("int a = 1; int b = a + c;", {("a", "b"): 1, ("c", "b"): 1}),
    ("x += y;", {("y", "x"): 1, ("x", "x"): 1}),
    ("int s = 0; for (int i = 0; i < n; i++) { s += i; }",
     {("i", "s"): 1, ("s", "s"): 1}),
    ("int result = compute(a, b);", {("a", "result"): 1, ("b", "result"): 1}),
]


class TestExtractDataflow:
    @pytest.mark.parametrize("source,expected", PYTHON_DATAFLOW_ORACLE)
    def test_python_oracle(self, source, expected):
        assert extract_dataflow(py(source)).edges == Counter(expected)

    @pytest.mark.parametrize("source,expected", JAVA_DATAFLOW_ORACLE)
    def test_java_oracle(self, source, expected):
        assert extract_dataflow(java(source)).edges == Counter(expected)

    def test_deterministic(self):
        for source in PYTHON_CORPUS:
            assert extract_dataflow(py(source)).edges == extract_dataflow(py(source)).edges

    def test_alpha_sensitive(self):
        a = extract_dataflow(py("a = 1\nb = a\n"))
        b = extract_dataflow(py("z = 1\nb = z\n"))
        assert a.edges != b.edges

    def test_parse_error_best_effort(self):
        edges = extract_dataflow(py("a = 1\nb = a\ndef broken(:\n")).edges
        assert edges == Counter({("a", "b"): 1})


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
            construct_kind = _head_kind(head, in_type_body)
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
    nodes, _ = seed_parse_java_group(_java_tokens(source), 0, None, True)
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
        for source in sources:
            assert parse_cst(java(source)) == seed_parse_java(source), source

    @pytest.mark.parametrize("depth", [3000, 10000])
    def test_deep_parentheses_parse(self, depth):
        program = java(nested_java(depth))
        tree = parse_cst(program)
        assert _count_kind_iterative(tree, "paren_group") >= 1
        assert len(extract_subtrees(tree)) > 0
        assert extract_dataflow(program).edges == Counter()

    @pytest.mark.parametrize("depth", [3000, 10000])
    def test_deep_blocks_keep_every_level(self, depth):
        tree = parse_cst(java("{" * depth + "x;" + "}" * depth))
        assert _count_kind_iterative(tree, "block") == depth
        assert _count_kind_iterative(tree, "ERROR") == 0
        assert sum(extract_subtrees(tree).entries.values()) == 2 * depth + 2


def _count_kind_iterative(tree, kind):
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += node.kind == kind
        stack.extend(node.children)
    return count


# Each raises RecursionError at depth: the first in the tree conversion, the
# other two inside ast.parse.
DEEP_PYTHON = ["x = " + "not " * 2000 + "y", "x = " + "-" * 3000 + "y",
               "x = " + "a + " * 3000 + "b"]


@pytest.mark.parametrize("source", DEEP_PYTHON, ids=["not", "minus", "plus"])
class TestDeepPythonNesting:
    def test_every_line_dropped(self, source):
        program = py(source + "\nz = 1\n")
        error = CstNode("ERROR")
        assert parse_cst(program) == CstNode("Module", (error, error))
        assert extract_dataflow(program).edges == Counter()

    def test_ends_in_a_score(self, source, local_provider):
        samples = SampleSet("deep", "", (py(source), py(source), py("x = 1")))
        report = estimate_confidence(samples, SimilarityWeights.uniform(),
                                     local_provider)
        assert 0.0 <= report.confidence <= 1.0
