"""Syntax trees, subtree bags, and def-use dataflow graphs.

Python programs are parsed with the stdlib ``ast`` module (with line-trimming
error recovery so malformed LLM output still yields a tree). Java programs go
through a lightweight structural parser over the Pygments token stream: brace
blocks, semicolon statements, and parenthesized groups become internal nodes,
keywords and literals become leaf kinds. Both languages produce the same
``CstNode`` shape, so downstream similarity code is language-agnostic.
"""
from __future__ import annotations

import ast
import warnings
from collections import Counter
from dataclasses import dataclass

from pygments.token import Comment, Keyword, Name, Number, Operator, Punctuation, String

from .model import Language, Lexed, Program, lex

DEFAULT_SUBTREE_HEIGHT = 2


@dataclass(frozen=True)
class CstNode:
    kind: str
    children: tuple["CstNode", ...] = ()

    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class SubtreeBag:
    """Multiset of height-limited node-kind fingerprints."""

    entries: Counter

    def __len__(self) -> int:
        return sum(self.entries.values())


@dataclass(frozen=True)
class DataflowGraph:
    """Multiset of directed (source_var, target_var) def-use edges.

    Edge (a, b) means the value of b comes from a. Name-based on purpose:
    edges from two different programs are intersected by variable name.
    """

    edges: Counter

    def __len__(self) -> int:
        return sum(self.edges.values())


# ---------------------------------------------------------------------------
# Python parsing


def _convert_py(node: ast.AST) -> CstNode:
    children = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.expr_context):
            continue  # Load/Store markers add no structure
        children.append(_convert_py(child))
    return CstNode(type(node).__name__, tuple(children))


def _ast_parse(text: str) -> ast.Module:
    """``ast.parse`` without its warnings ("1if" warns), raising RecursionError for
    all nesting too deep for it: its fixed stack fails with MemoryError."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return ast.parse(text)
    except MemoryError as exc:
        raise RecursionError("too deeply nested for ast.parse") from exc


def _parse_python_ast(source: str) -> tuple[ast.Module, int]:
    """Parse Python source, dropping offending lines one at a time until the
    rest parses. Returns the module and how many lines were dropped.

    Always ends: once every line is dropped, the empty source parses.
    """
    try:
        return _ast_parse(source), 0
    except SyntaxError:
        pass
    lines = source.splitlines()
    kept = list(range(len(lines)))
    while True:
        try:
            return _ast_parse("\n".join(lines[i] for i in kept)), len(lines) - len(kept)
        except SyntaxError as exc:
            # lineno refers to the trimmed text; map back to the original
            del kept[min((exc.lineno or 1) - 1, len(kept) - 1)]


# ---------------------------------------------------------------------------
# Java parsing

_JAVA_DECL_KINDS = {
    "class": "class_declaration",
    "interface": "interface_declaration",
    "enum": "enum_declaration",
    "record": "record_declaration",
}
_JAVA_STMT_KINDS = {
    "if": "if_statement",
    "else": "if_statement",
    "for": "for_statement",
    "while": "while_statement",
    "do": "do_statement",
    "switch": "switch_statement",
    "try": "try_statement",
    "catch": "try_statement",
    "finally": "try_statement",
    "synchronized": "synchronized_statement",
}


def _java_tokens(lexed: Lexed) -> list[tuple[str, str]]:
    """(kind, text) pairs of a ``lex`` stream, comments and whitespace removed."""
    out = []
    for tok, text in lexed:
        if tok in Comment or text.strip() == "":
            continue
        if tok in String:
            out.append(("string_literal", text))
        elif tok in Number:
            out.append(("number_literal", text))
        elif tok in Keyword:
            out.append(("kw_" + text.strip(), text.strip()))
        elif tok in Name:
            out.append(("identifier", text.strip()))
        elif tok in Operator:
            out.append(("op_" + text.strip(), text.strip()))
        elif tok in Punctuation:
            out.append((text.strip(), text.strip()))
        else:
            out.append(("token", text.strip()))
    return out


def _head_kind(head: list[CstNode], in_type_body: bool) -> str:
    kinds = [n.kind for n in head]
    for kw, kind in _JAVA_DECL_KINDS.items():
        if "kw_" + kw in kinds:
            return kind
    for kw, kind in _JAVA_STMT_KINDS.items():
        if "kw_" + kw in kinds:
            return kind
    if in_type_body and "paren_group" in kinds:
        return "method_declaration"
    return "block_construct"


class _JavaGroup:
    """One open bracket of the Java parser: the sibling nodes parsed so far
    and the tokens of the statement being accumulated."""

    __slots__ = ("closer", "in_type_body", "construct_kind", "nodes", "head")

    def __init__(self, closer: str | None, in_type_body: bool,
                 construct_kind: str | None = None):
        self.closer = closer
        self.in_type_body = in_type_body
        self.construct_kind = construct_kind  # None for "(" and the top level
        self.nodes: list[CstNode] = []
        self.head: list[CstNode] = []

    def flush(self):
        if self.head:
            self.nodes.append(CstNode("statement", tuple(self.head)))
            self.head = []


def _close_java_group(stack: list[_JavaGroup]):
    """Pop the innermost group and attach it to its parent. A statement still
    pending in the popped group is dropped."""
    group = stack.pop()
    parent = stack[-1]
    if group.construct_kind is None:
        parent.head.append(CstNode("paren_group", tuple(group.nodes)))
    else:
        parent.nodes.append(CstNode(group.construct_kind, tuple(parent.head)
                                    + (CstNode("block", tuple(group.nodes)),)))
        parent.head = []


_JAVA_DECL_KIND_VALUES = frozenset(_JAVA_DECL_KINDS.values())


def _parse_java(tokens: list[tuple[str, str]]) -> CstNode:
    """Brace blocks, parenthesized groups and semicolon statements over the
    token stream. An explicit stack of open groups, so nesting depth is
    bounded by memory, not by the interpreter's recursion limit. Groups still
    open at the end of input are closed with a trailing ERROR node."""
    stack = [_JavaGroup(None, True)]
    for kind, text in tokens:
        group = stack[-1]
        if text == group.closer:
            _close_java_group(stack)
        elif text == "{":
            construct_kind = _head_kind(group.head, group.in_type_body)
            stack.append(_JavaGroup("}", construct_kind in _JAVA_DECL_KIND_VALUES,
                                    construct_kind))
        elif text == "(":
            stack.append(_JavaGroup(")", False))
        elif text in ")}":
            # unbalanced closer: keep going, record the damage
            group.head.append(CstNode("ERROR"))
        elif text == ";":
            group.flush()
        else:
            group.head.append(CstNode(kind))
    while len(stack) > 1:
        stack[-1].flush()
        stack[-1].nodes.append(CstNode("ERROR"))
        _close_java_group(stack)
    stack[0].flush()
    return CstNode("compilation_unit", tuple(stack[0].nodes))


# ---------------------------------------------------------------------------
# Public parsing surface


def parse_cst(program: Program) -> CstNode:
    """Parse a program into a concrete-syntax-style tree.

    Malformed input yields a tree containing ERROR nodes rather than failing:
    for Python, one ERROR leaf per dropped line, after the surviving nodes.
    """
    return _cst_and_dataflow(program)[0]


def _fingerprint(node: CstNode, height: int) -> str:
    if height == 0 or node.is_leaf():
        return node.kind
    return node.kind + "(" + ")(".join(
        _fingerprint(c, height - 1) for c in node.children) + ")"


def extract_subtrees(tree: CstNode, height: int = DEFAULT_SUBTREE_HEIGHT) -> SubtreeBag:
    """One fingerprint per internal node: its kind plus descendant kinds down
    to the given height, serialized canonically. Position-independent."""
    if height < 1:
        raise ValueError("height must be >= 1")
    bag: Counter = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if not node.is_leaf():
            bag[_fingerprint(node, height)] += 1
            stack.extend(node.children)
    return SubtreeBag(bag)


# ---------------------------------------------------------------------------
# Dataflow extraction


def _names(node: ast.AST, ctx: type) -> list[str]:
    """Names under ``node`` in context ``ctx``; a name called directly is no read."""
    nodes = list(ast.walk(node))
    called = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
    return [n.id for n in nodes if isinstance(n, ast.Name)
            and isinstance(n.ctx, ctx) and id(n) not in called]


# node type -> (read field, written field) of the other binding forms; a field
# holding None (AnnAssign without value, withitem without "as") adds no edge
_PY_BINDINGS = {
    ast.AnnAssign: ("value", "target"),
    ast.NamedExpr: ("value", "target"),
    ast.For: ("iter", "target"),
    ast.AsyncFor: ("iter", "target"),
    ast.withitem: ("context_expr", "optional_vars"),
    ast.comprehension: ("iter", "target"),
}


def _python_dataflow(module: ast.Module) -> Counter:
    """One loop over ``ast.walk``, so no interpreter frame per nesting level."""
    edges: Counter = Counter()
    for node in ast.walk(module):
        kind = type(node)
        if kind is ast.Assign:
            reads = _names(node.value, ast.Load)
            pairs = [(reads + _names(t, ast.Load), _names(t, ast.Store))
                     for t in node.targets]
        elif kind is ast.AugAssign:
            writes = _names(node.target, ast.Store)
            # the previous value of the target feeds the new one
            pairs = [(_names(node.value, ast.Load) + writes, writes)]
        elif kind in _PY_BINDINGS:
            read, written = (getattr(node, field) for field in _PY_BINDINGS[kind])
            if read is None or written is None:
                continue
            pairs = [(_names(read, ast.Load), _names(written, ast.Store))]
        else:
            continue
        for reads, writes in pairs:
            edges.update((r, w) for w in writes for r in reads)
    return edges


def _java_assignment(seg: list[tuple[str, str]]) -> tuple[str | None, list[str]]:
    """(target, reads) of a statement segment's first assignment; (None, []) if
    it has none or no identifier before its "="."""
    if ("op_=", "=") not in seg:
        return None, []  # the common case, found without building texts
    texts = ["", ""] + [text for _, text in seg] + [""]  # seg[i] is texts[i + 2]
    for idx in [i for i, (kind, _) in enumerate(seg) if kind == "op_="]:
        prev2, prev, _, nxt = texts[idx:idx + 4]
        if nxt == "=" or prev in ("=", "!") or (prev in ("<", ">") and prev2 != prev):
            continue  # ==, !=, <= or >=
        targets = [t for k, t in seg[:idx] if k == "identifier"]
        if not targets:
            return None, []
        # a name followed by "(" is a method call, not a value read
        reads = [t for (k, t), after in zip(seg[idx + 1:], texts[idx + 4:])
                 if k == "identifier" and after != "("]
        # pygments lexes each operator character alone: "a += b" is "+", "="
        if prev in {"+", "-", "*", "/", "%", "&", "|", "^", "<", ">"}:
            reads.append(targets[-1])  # compound assignment reads the target
        return targets[-1], reads
    return None, []


def _java_dataflow(tokens: list[tuple[str, str]]) -> Counter:
    edges: Counter = Counter()
    # statement boundaries: ; { } anywhere (so for-header clauses split too)
    cuts = [-1] + [i for i, (_, text) in enumerate(tokens) if text in ";{}"] + [len(tokens)]
    for start, end in zip(cuts, cuts[1:]):
        target, reads = _java_assignment(tokens[start + 1:end])
        for r in reads:
            edges[(r, target)] += 1
    return edges


def extract_dataflow(program: Program) -> DataflowGraph:
    """Def-use edges from a flow-insensitive, intraprocedural pass.

    For each assignment, every variable read on the right-hand side emits an
    edge to each variable defined on the left-hand side.
    """
    return _cst_and_dataflow(program)[1]


def _cst_and_dataflow(program: Program,
                      lexed: Lexed | None = None) -> tuple[CstNode, DataflowGraph]:
    """``(parse_cst(program), extract_dataflow(program))`` from one parse: Python's
    source (with its error recovery), or Java's ``lexed`` (``lex(program)`` if None)."""
    if program.language is Language.PYTHON:
        try:
            module, dropped = _parse_python_ast(program.source)
            tree, edges = _convert_py(module), _python_dataflow(module)
        except (RecursionError, UnicodeEncodeError):
            # too deep for ast or the tree conversion, or a lone surrogate ast
            # cannot encode: where line-drop recovery ends, every line dropped
            tree, edges = CstNode("Module"), Counter()
            dropped = len(program.source.splitlines())
        return (CstNode(tree.kind, tree.children + (CstNode("ERROR"),) * dropped),
                DataflowGraph(edges))
    tokens = _java_tokens(lex(program) if lexed is None else lexed)
    return _parse_java(tokens), DataflowGraph(_java_dataflow(tokens))
