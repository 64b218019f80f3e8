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
from dataclasses import dataclass, field

from pygments.lexers import JavaLexer
from pygments.token import Comment, Keyword, Name, Number, Operator, Punctuation, String

from .errors import UnsupportedLanguage
from .model import Language, Program

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

_JAVA_LEXER = JavaLexer(stripnl=False)

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


def _java_tokens(source: str) -> list[tuple[str, str]]:
    """(kind, text) pairs with comments and whitespace removed."""
    out = []
    for tok, text in _JAVA_LEXER.get_tokens(source):
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


def _parse_java_group(tokens: list[tuple[str, str]], pos: int, closer: str | None,
                      in_type_body: bool) -> tuple[list[CstNode], int]:
    """Parse until *closer* (or EOF), returning sibling nodes and new position."""
    nodes: list[CstNode] = []
    head: list[CstNode] = []  # tokens of the statement being accumulated

    def flush(kind: str = "statement"):
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
            children, pos = _parse_java_group(tokens, pos + 1, "}", body_is_type)
            nodes.append(CstNode(construct_kind,
                                 tuple(head) + (CstNode("block", tuple(children)),)))
            head = []
            continue
        if text == "(":
            children, pos = _parse_java_group(tokens, pos + 1, ")", False)
            head.append(CstNode("paren_group", tuple(children)))
            continue
        if text in ")}":
            # unbalanced closer: keep going, record the damage
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
        return nodes, pos
    flush()
    return nodes, pos


def _parse_java(source: str) -> CstNode:
    tokens = _java_tokens(source)
    nodes, _ = _parse_java_group(tokens, 0, None, True)
    return CstNode("compilation_unit", tuple(nodes))


# ---------------------------------------------------------------------------
# Public parsing surface


def parse_cst(program: Program) -> CstNode:
    """Parse a program into a concrete-syntax-style tree.

    Malformed input yields a tree containing ERROR nodes rather than failing:
    for Python, one ERROR leaf per dropped line, after the surviving nodes.
    """
    if program.language is Language.PYTHON:
        module, dropped = _parse_python_ast(program.source)
        tree = _convert_py(module)
        return CstNode(tree.kind, tree.children + (CstNode("ERROR"),) * dropped)
    if program.language is Language.JAVA:
        return _parse_java(program.source)
    raise UnsupportedLanguage(str(program.language))


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


def _java_dataflow(source: str) -> Counter:
    tokens = _java_tokens(source)
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
    if program.language is Language.PYTHON:
        visitor = _PyDefUse()
        visitor.visit(_parse_python_ast(program.source)[0])
        return DataflowGraph(visitor.edges)
    if program.language is Language.JAVA:
        return DataflowGraph(_java_dataflow(program.source))
    raise UnsupportedLanguage(str(program.language))

