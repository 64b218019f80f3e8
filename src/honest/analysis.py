"""Syntax trees, subtree bags, and def-use dataflow graphs.

Python programs are parsed with the stdlib ``ast`` module (with line-trimming
error recovery so malformed LLM output still yields a tree). Java programs go
through a lightweight structural parser over the Pygments token stream: brace
blocks, semicolon statements, and parenthesized groups become internal nodes,
keywords and literals become leaf kinds. Both languages come out as the same
``Walk``, the (kind, child count) of each node in pre-order: Python's straight
from its ``ast`` walk, Java's as its parser emits it. Subtree fingerprints, and
the ``CstNode`` tree ``parse_cst`` returns, are both read off that walk, so
downstream similarity code is language-agnostic; no analysis builds a tree.
"""
from __future__ import annotations

import ast
import bisect
import threading
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from pygments.token import Comment, Keyword, Name, Number, Operator, Punctuation, String

from .model import Language, Lexed, Program, lex, token_class

DEFAULT_SUBTREE_HEIGHT = 2


class CstNode(NamedTuple):
    kind: str
    children: tuple["CstNode", ...] = ()


# (kind, child count) of each node of a tree in pre-order, a node's last child
# first: read backwards, each node comes right after its children, first child
# first, so trees and fingerprints are built bottom-up with no recursion.
Walk = list[tuple[str, int]]


@dataclass(frozen=True)
class Bag:
    """A multiset that similarities clip-match: a program's height-limited
    subtree fingerprints, or its directed (source_var, target_var) def-use
    edges. Edge (a, b) means the value of b comes from a. Name-based on
    purpose: edges from two different programs are intersected by variable
    name."""

    counts: Counter

    def __len__(self) -> int:
        return self.size

    @cached_property
    def size(self) -> int:
        """Total count, summed once: not a field, so equality and hashing see
        only the counts."""
        return sum(self.counts.values())


# ---------------------------------------------------------------------------
# Python parsing


# Held by the recovery loop, which is ast.parse calls and list work between
# them: CPython 3.11's ast.parse can raise "SystemError: AST constructor
# recursion depth mismatch" while another thread is inside it (gh-106905), and
# catch_warnings swaps the process-wide filter list, so threads entering it
# together leave each other's filters behind.
_AST_PARSE_LOCK = threading.Lock()


def _opens_statement(line: str) -> bool:
    """Whether ``line`` starts a top-level statement that cannot continue the one
    above it: it starts at column 0 (so it is not empty, indented or a comment),
    is not a backslash continuation, whose indentation the next line sets, and
    does not open an ``else``, ``elif``, ``except`` or ``finally`` clause."""
    return (line[:1] not in " \t\f#\\"
            and not line.startswith(("else", "elif", "except", "finally")))


def _clean_prefix(lines: list[str]) -> bool:
    """Whether ``lines`` parse alone and a "=" line after them is the first error
    the parser reports, as plain "invalid syntax".

    The second check is needed because a failed parse is parsed again from line 1
    by CPython's error-reporting pass, and that pass can fault a valid statement:
    it reads the call ``match(x)`` as a match statement missing its ':'. No
    statement starts with "=", so only such a fault gets reported before it."""
    text = "\n".join(lines)
    try:
        ast.parse(text)
    except (SyntaxError, ValueError, RecursionError, MemoryError, UnicodeEncodeError):
        return False
    try:
        ast.parse(text + "\n=")
    except SyntaxError as exc:
        return exc.msg == "invalid syntax" and exc.lineno == len(lines) + 1
    return False  # a "=" line never parses


def _holds_no_token(line: str) -> bool:
    """Whether ``line`` is blank or only a comment, so the tokenizer reads nothing on it."""
    text = line.lstrip(" \t\f")
    return not text or text[0] == "#"


def _opens_with_closer(line: str) -> bool:
    return line.lstrip(" \t\f").startswith((")", "]", "}"))


def _logical_line_bounds(module: ast.Module, lines: list[str], ends: set[int],
                         starts: set[int]) -> tuple[set[int], set[int]]:
    """Of the line numbers in ``ends``, those on which a statement of ``module``
    (parsed from ``lines``) ends with nothing after it but blanks or a comment;
    of those in ``starts``, those whose first token starts a statement."""
    found_ends, found_starts, stack = set(), set(), list(module.body)
    while stack:
        node = stack.pop()
        if node.end_lineno in ends:
            line = lines[node.end_lineno - 1]
            rest = (line[node.end_col_offset:] if line.isascii()  # the offset counts UTF-8 bytes
                    else line.encode()[node.end_col_offset:].decode())
            if _holds_no_token(rest):
                found_ends.add(node.end_lineno)
        if node.lineno in starts:
            line = lines[node.lineno - 1]
            if node.col_offset == len(line) - len(line.lstrip(" \t\f")):
                found_starts.add(node.lineno)
        for name in ("body", "orelse", "finalbody"):
            stack += getattr(node, name, ())
        for clause in (*getattr(node, "handlers", ()), *getattr(node, "cases", ())):
            stack += clause.body
    return found_ends, found_starts


def _drop_closer_lines(lines: list[str], at: int) -> tuple[ast.Module, int] | None:
    """The module and the drops that the plain loop (parse the whole text, drop
    the line its error names, repeat) ends with from ``lines``, if it drops, in
    turn, exactly the lines from ``at`` on that open with a closing bracket, and
    then parses the rest; None if one parse of the rest cannot show that.

    It is shown if the rest parses and, before each such line, the tokenizer
    ends a logical line: no line above it holds a token, or the last one that
    does ends a statement of the rest with nothing after it but blanks or a
    comment, or the next line with a token starts a statement and the one above
    does not end in a backslash.

    Why the plain loop then drops each such line in turn: its text at that drop
    agrees with the rest up to the end of that logical line. CPython's parser
    asks for tokens one at a time and acts only on those it has; it parses the
    rest, so on that text its first pass asks for the next token too, which
    comes from the line: an INDENT, a DEDENT, an indentation error raised there,
    or the bracket, an "unmatched" error at bracket level 0. The error lands on
    the line whatever the parser does next. A tokenizer error is reported where
    it is read. A failure at an INDENT or DEDENT is reported there, unless the
    error-reporting pass raises an error of its own, anywhere; the check of the
    rest of the source then reads on from that token to the bracket, and its
    error replaces that one.
    """
    kept, dropped = lines[:at], []  # dropped: where in kept each such line sat
    for line in lines[at:]:
        if _opens_with_closer(line):
            dropped.append(len(kept))
        else:
            kept.append(line)
    try:
        module = ast.parse("\n".join(kept))
    except (SyntaxError, ValueError, RecursionError, MemoryError, UnicodeEncodeError):
        return None
    with_token = [i for i, line in enumerate(kept) if not _holds_no_token(line)]
    # of each dropped line, the kept lines with a token above and below it (-1, None: none)
    around = [(with_token[k - 1] if k else -1, with_token[k] if k < len(with_token) else None)
              for k in (bisect.bisect_left(with_token, i) for i in dropped)]
    ends, starts = _logical_line_bounds(module, kept, {x + 1 for x, _ in around},
                                        {y + 1 for _, y in around if y is not None})
    for x, y in around:
        if not (x < 0 or x + 1 in ends
                or y is not None and y + 1 in starts
                and not kept[x].rstrip(" \t\f").endswith("\\")):
            return None
    return module, len(dropped)


def _parse_python_ast(source: str) -> tuple[ast.Module, int]:
    """Parse Python source, dropping the line each SyntaxError names until the
    rest parses. Returns the module and how many lines were dropped.

    Lines are the ones Python reads: they break only at "\\r\\n", "\\r" and "\\n".
    Always ends: once every line is dropped, the empty source parses. A NUL byte
    names no line (a ValueError up to CPython 3.10): the first line holding one
    is dropped. Nesting too deep for ``ast.parse`` (RecursionError; MemoryError
    from its fixed stack) or a lone surrogate it cannot encode gives an empty
    module, every line dropped.

    A clean program costs one parse. The first time an error falls on a line
    that opens with a closing bracket (")", "]" or "}", after its indentation)
    and reads "unmatched" or is an IndentationError, as such a line's error at
    the start of a logical line does, every line from there on that opens so is
    dropped at once and the rest parsed whole: ``_drop_closer_lines`` shows, from
    that one parse and its tree, that parsing the whole text at each drop would
    drop the same lines in turn. So a long program with many stray closing
    brackets costs two parses. That is the bad line the benchmark's generator
    inserts; how often real model output opens a line so is not measured.

    Otherwise, or if that cannot be shown, each attempt parses only the lines
    from the top of a stack of marks, so a drop costs the distance from that
    mark to the error, not the whole file. A mark is a line that opens a
    top-level statement (``_opens_statement``) after a clean prefix
    (``_clean_prefix``, checked from the mark below it): an error in the whole
    text then lies at or after the mark, on the line the parse from the mark
    names. From the second drop on, the last line before the error's that opens
    a statement is checked and, if its prefix is clean, becomes a mark. Lines an
    earlier drop looked at are skipped, so damage that leaves no clean prefix
    (an unclosed bracket) costs no rescans and about one failed check per
    surviving line. A mark whose own line is dropped is popped unless the line
    now there opens a statement too. Once the lines from a mark parse, the whole
    text is parsed once more, so the module is a parse of every surviving line;
    should that fail, recovery goes on from line 1.
    """
    lines = source.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")
    dropped, marks, seen, closers = 0, [0], 0, True
    with _AST_PARSE_LOCK, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # "1if" warns
        while True:
            mark = marks[-1]
            try:
                module = ast.parse("\n".join(lines[mark:]))
            except (RecursionError, MemoryError, UnicodeEncodeError):  # before ValueError, its base
                return ast.Module([], []), dropped + len(lines)
            except (SyntaxError, ValueError) as exc:
                line = getattr(exc, "lineno", None) or next(
                    (i + 1 for i, s in enumerate(lines[mark:]) if "\0" in s), 1)
                at = mark + min(line, len(lines) - mark) - 1
                if closers and _opens_with_closer(lines[at]) and (
                        isinstance(exc, IndentationError)
                        or getattr(exc, "msg", "").startswith("unmatched")):
                    closers = False  # tried once: each try parses the whole text
                    found = _drop_closer_lines(lines, at)
                    if found:
                        return found[0], dropped + found[1]
                del lines[at]
                dropped += 1
                if mark and at == mark < len(lines) and not _opens_statement(lines[at]):
                    marks.pop()
                if dropped > 1:  # a program with one bad line costs two parses
                    # lines up to seen were looked at by an earlier drop
                    top = marks[-1]
                    new = next((i for i in range(at - 1, max(top, seen), -1)
                                if _opens_statement(lines[i])), None)
                    seen = at - 1
                    if new is not None and _clean_prefix(lines[top:new]):
                        marks.append(new)
            else:
                if not mark:
                    return module, dropped
                marks = [0]  # parse the whole text: it parses, unless a mark was wrong


# node type -> (read field, written field, names of the written field that are
# also read): one edge set per target of an Assign, whose written field is a
# list; an AugAssign's target feeds its new value. A field holding None
# (AnnAssign without value, withitem without "as") adds no edge.
_PY_BINDINGS = {
    ast.Assign: ("value", "targets", ast.Load),
    ast.AugAssign: ("value", "target", ast.Store),
    ast.AnnAssign: ("value", "target", None),
    ast.NamedExpr: ("value", "target", None),
    ast.For: ("iter", "target", None),
    ast.AsyncFor: ("iter", "target", None),
    ast.withitem: ("context_expr", "optional_vars", None),
    ast.comprehension: ("iter", "target", None),
}


def _convert_py(module: ast.Module, dropped: int) -> tuple[Walk, Counter]:
    """The walk of ``module``'s tree, with one ERROR leaf per dropped line after
    the surviving children of the root, and its def-use edges.

    One pre-order walk on an explicit stack: nesting depth is bounded by
    memory, not by the recursion limit. The walk lists the names it meets, in
    its order, with their Load or Store context; a name called directly is no
    read and is left out. Each read or written field of a binding is walked
    between two marks, which record where that field's names start and end in
    the list, so the edges are read off after the walk.
    """
    walk, stack, names, called, marks, bindings = [], [module], [], set(), [], []
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is int:  # a mark
            marks[node] = len(names)
            continue
        if kind is ast.Name:  # a leaf: Load/Store add no structure
            walk.append(("Name", 0))
            if id(node) not in called:
                names.append((node.id, type(node.ctx)))
            continue
        children = []
        for field in node._fields:
            value = getattr(node, field, None)
            if type(value) is list:
                children += [c for c in value if isinstance(c, ast.AST)]
            elif isinstance(value, ast.AST) and not isinstance(value, ast.expr_context):
                children.append(value)
        walk.append((kind.__name__, len(children)))
        if kind is ast.Call:
            called.add(id(node.func))
        elif kind in _PY_BINDINGS:
            read, written, also_read = _PY_BINDINGS[kind]
            read, written = getattr(node, read), getattr(node, written)
            if read is not None and written is not None:
                fields = [read, *written] if type(written) is list else [read, written]
                at = {id(f): len(marks) + 2 * k for k, f in enumerate(fields)}
                bindings.append((len(marks), len(fields), also_read))
                marks += [0, 0] * len(fields)
                # the last child is walked first, so a field's start mark pops
                # just before it and its end mark just after its last descendant
                children = [x for c in children for x in (
                    (at[id(c)] + 1, c, at[id(c)]) if id(c) in at else (c,))]
        stack += children
    # the ERROR leaves are the root's last children, so walked right after it
    kind, count = walk[0]
    walk[0] = (kind, count + dropped)
    walk[1:1] = [("ERROR", 0)] * dropped
    edges: Counter = Counter()
    for first, count, also_read in bindings:
        spans = [names[marks[m]:marks[m + 1]] for m in range(first, first + 2 * count, 2)]
        loads = [n for n, ctx in spans[0] if ctx is ast.Load]
        for span in spans[1:]:
            writes = [n for n, ctx in span if ctx is ast.Store]
            reads = loads + [n for n, ctx in span if ctx is also_read]
            edges.update((r, w) for w in writes for r in reads)
    return walk, edges


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
        cls = token_class(tok)
        if cls is Comment or text.strip() == "":
            continue
        if cls is String:
            out.append(("string_literal", text))
        elif cls is Number:
            out.append(("number_literal", text))
        elif cls is Keyword:
            out.append(("kw_" + text.strip(), text.strip()))
        elif cls is Name:
            out.append(("identifier", text.strip()))
        elif cls is Operator:
            out.append(("op_" + text.strip(), text.strip()))
        elif cls is Punctuation:
            out.append((text.strip(), text.strip()))
        else:
            out.append(("token", text.strip()))
    return out


def _head_kind(kinds: list[str], in_type_body: bool) -> str:
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
    """One open bracket of the Java parser: its child count so far, and the node
    kinds of the statement being accumulated, whose subtrees start at ``start``."""

    __slots__ = ("closer", "in_type_body", "construct_kind", "count", "head", "start")

    def __init__(self, closer: str | None, in_type_body: bool, start: int,
                 construct_kind: str | None = None):
        self.closer = closer
        self.in_type_body = in_type_body
        self.construct_kind = construct_kind  # None for "(" and the top level
        self.count, self.start = 0, start  # start: an index in the parser's output
        self.head: list[str] = []

    def add(self, post: Walk, kind: str, count: int = 0):
        """Append a child, after its ``count`` children, ending the statement."""
        post.append((kind, count))
        self.count += 1
        self.head = []
        self.start = len(post)

    def flush(self, post: Walk):
        if self.head:
            self.add(post, "statement", len(self.head))


def _close_java_group(stack: list[_JavaGroup], post: Walk):
    """Pop the innermost group and attach it to its parent. A statement still
    pending in the popped group is dropped."""
    group = stack.pop()
    parent = stack[-1]
    del post[group.start:]
    if group.construct_kind is None:
        post.append(("paren_group", group.count))
        parent.head.append("paren_group")
    else:
        post.append(("block", group.count))
        parent.add(post, group.construct_kind, len(parent.head) + 1)


_JAVA_DECL_KIND_VALUES = frozenset(_JAVA_DECL_KINDS.values())


def _parse_java(tokens: list[tuple[str, str]]) -> Walk:
    """The walk of brace blocks, parenthesized groups and semicolon statements
    over the token stream: built in post-order, each node after its children, as
    the tokens arrive, then reversed. An explicit stack of open groups, so nesting
    depth is bounded by memory, not by the interpreter's recursion limit. Groups
    still open at the end of input are closed with a trailing ERROR node."""
    post: Walk = []
    stack = [_JavaGroup(None, True, 0)]
    for kind, text in tokens:
        group = stack[-1]
        if text == group.closer:
            _close_java_group(stack, post)
        elif text == "{":
            construct_kind = _head_kind(group.head, group.in_type_body)
            stack.append(_JavaGroup("}", construct_kind in _JAVA_DECL_KIND_VALUES,
                                    len(post), construct_kind))
        elif text == "(":
            stack.append(_JavaGroup(")", False, len(post)))
        elif text == ";":
            group.flush(post)
        else:  # a leaf; an unbalanced closer is an ERROR leaf, recording the damage
            post.append(("ERROR" if text in ")}" else kind, 0))
            group.head.append(post[-1][0])
    while len(stack) > 1:
        stack[-1].flush(post)
        stack[-1].add(post, "ERROR")
        _close_java_group(stack, post)
    stack[0].flush(post)
    return [("compilation_unit", stack[0].count), *reversed(post)]


# ---------------------------------------------------------------------------
# Public parsing surface


def parse_cst(program: Program) -> CstNode:
    """Parse a program into a concrete-syntax-style tree.

    Malformed input yields a tree containing ERROR nodes rather than failing:
    for Python, one ERROR leaf per dropped line, after the surviving nodes.
    """
    built: list[CstNode] = []
    for kind, count in reversed(_walk_and_dataflow(program)[0]):
        # a node's children were built just before it, first child deepest
        start = len(built) - count
        built[start:] = [CstNode(kind, tuple(built[start:]))]
    (root,) = built
    return root


def _flatten(tree: CstNode) -> Walk:
    """The walk of a tree: the inverse of ``parse_cst``'s build."""
    walk, stack = [], [tree]
    while stack:
        node = stack.pop()
        walk.append((node.kind, len(node.children)))
        stack += node.children
    return walk


def _fingerprints(walk: Walk, height: int = DEFAULT_SUBTREE_HEIGHT) -> Bag:
    """``extract_subtrees`` of the tree ``walk`` lists. Built bottom-up, as
    ``parse_cst`` builds nodes: a node's fingerprint of height h + 1 joins its
    children's of height h, and a leaf's is its kind at every height."""
    if height < 1:
        raise ValueError("height must be >= 1")
    bag: Counter = Counter()
    prints: list[list[str]] = []  # of each node built, its fingerprints of height 0..height-1
    for kind, count in reversed(walk):
        if not count:
            prints.append([kind] * height)
            continue
        start = len(prints) - count
        # the children's fingerprints of each height, first child first
        node_prints = [kind, *(kind + "(" + ")(".join(row) + ")"
                               for row in zip(*prints[start:]))]
        bag[node_prints.pop()] += 1
        prints[start:] = [node_prints]
    return Bag(bag)


def extract_subtrees(tree: CstNode, height: int = DEFAULT_SUBTREE_HEIGHT) -> Bag:
    """One fingerprint per internal node: its kind plus descendant kinds down
    to the given height, serialized canonically. Position-independent. Read
    off the tree's walk, as an analysis reads them off the walk its parser emits."""
    return _fingerprints(_flatten(tree), height)


# ---------------------------------------------------------------------------
# Dataflow extraction


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


def extract_dataflow(program: Program) -> Bag:
    """Def-use edges from a flow-insensitive, intraprocedural pass.

    For each assignment, every variable read on the right-hand side emits an
    edge to each variable defined on the left-hand side.
    """
    return _walk_and_dataflow(program)[1]


def _walk_and_dataflow(program: Program, lexed: Lexed | None = None) -> tuple[Walk, Bag]:
    """The walk of ``parse_cst(program)`` and ``extract_dataflow(program)``, from
    one parse: Python's source (with its error recovery), or Java's ``lexed``
    (``lex(program)`` if None). Neither language builds a ``CstNode``."""
    if program.language is Language.PYTHON:
        walk, edges = _convert_py(*_parse_python_ast(program.source))
    else:
        tokens = _java_tokens(lex(program) if lexed is None else lexed)
        walk, edges = _parse_java(tokens), _java_dataflow(tokens)
    return walk, Bag(edges)
