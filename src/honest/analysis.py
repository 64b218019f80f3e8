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


def _parse_python_ast(source: str) -> tuple[ast.Module, int]:
    """Parse Python source, dropping offending lines one at a time until the
    rest parses. Returns the module and how many lines were dropped.

    Always ends: once every line is dropped, the empty source parses.
    """
    try:
        return ast.parse(source), 0
    except SyntaxError:
        pass
    lines = source.splitlines()
    kept = list(range(len(lines)))
    while True:
        try:
            return ast.parse("\n".join(lines[i] for i in kept)), len(lines) - len(kept)
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


class _PyDefUse(ast.NodeVisitor):
    """Flow-insensitive def-use pass, statements in source order."""

    def __init__(self):
        self.edges: Counter = Counter()

    @staticmethod
    def _loads(node: ast.AST) -> list[str]:
        # names used directly as call targets are not value reads
        call_funcs = {id(c.func) for c in ast.walk(node)
                      if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
        return [n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                and id(n) not in call_funcs]

    @staticmethod
    def _stores(node: ast.AST) -> list[str]:
        return [n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]

    def _add(self, reads: list[str], writes: list[str]):
        for w in writes:
            for r in reads:
                self.edges[(r, w)] += 1

    def visit_Assign(self, node: ast.Assign):
        reads = self._loads(node.value)
        for target in node.targets:
            self._add(reads + self._loads(target), self._stores(target))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign):
        if node.value is not None:
            self._add(self._loads(node.value), self._stores(node.target))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign):
        writes = self._stores(node.target)
        # the previous value of the target feeds the new one
        self._add(self._loads(node.value) + writes, writes)
        self.generic_visit(node)

    def visit_NamedExpr(self, node: ast.NamedExpr):
        self._add(self._loads(node.value), self._stores(node.target))
        self.generic_visit(node)

    def visit_For(self, node: ast.For):
        self._add(self._loads(node.iter), self._stores(node.target))
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_withitem(self, node: ast.withitem):
        if node.optional_vars is not None:
            self._add(self._loads(node.context_expr),
                      self._stores(node.optional_vars))
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension):
        self._add(self._loads(node.iter), self._stores(node.target))
        self.generic_visit(node)


_JAVA_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}
# pygments splits "+=" into "+" then "="; these prefixes mark a compound assign
_JAVA_COMPOUND_PREFIXES = {"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", ">>>"}


def _java_dataflow(tokens: list[tuple[str, str]]) -> Counter:
    edges: Counter = Counter()
    # statement boundaries: ; { } anywhere (so for-header clauses split too)
    segment: list[tuple[str, str]] = []

    def process(seg: list[tuple[str, str]]):
        for idx, (kind, text) in enumerate(seg):
            if not (kind.startswith("op_") and text in _JAVA_ASSIGN_OPS):
                continue
            compound = text != "="
            if not compound:
                # pygments splits multi-char operators; classify the bare "="
                nxt = seg[idx + 1][1] if idx + 1 < len(seg) else ""
                prev = seg[idx - 1][1] if idx > 0 else ""
                prev2 = seg[idx - 2][1] if idx > 1 else ""
                if nxt == "=" or prev in ("=", "!"):
                    continue  # == or !=
                if prev in ("<", ">"):
                    if prev2 != prev:
                        continue  # <= or >=
                    compound = True  # <<= or >>=
                elif prev in _JAVA_COMPOUND_PREFIXES:
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
                if after == "(":  # method call name, not a value read
                    continue
                reads.append(t)
            if compound:
                reads.append(target)  # compound assignment reads the target
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
        visitor = _PyDefUse()
        try:
            module, dropped = _parse_python_ast(program.source)
            tree = _convert_py(module)
            visitor.visit(module)
        except (RecursionError, UnicodeEncodeError):
            # too deep for ast or the tree walks, or a lone surrogate ast cannot
            # encode: where line-drop recovery ends, every line dropped, no edges
            tree, dropped = CstNode("Module"), len(program.source.splitlines())
            visitor.edges.clear()
        return (CstNode(tree.kind, tree.children + (CstNode("ERROR"),) * dropped),
                DataflowGraph(visitor.edges))
    tokens = _java_tokens(lex(program) if lexed is None else lexed)
    return _parse_java(tokens), DataflowGraph(_java_dataflow(tokens))
