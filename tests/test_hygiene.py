"""Source hygiene checks that need no linter: stdlib ``ast`` only."""
import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "honest"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation


def _string_annotation_names(tree):
    """Names in forward references written as strings, e.g. tuple["CstNode", ...]."""
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from (n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | set(_string_annotation_names(tree))


def _exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    kept = _used_names(tree) | _exported_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in kept]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    """A function-local import hides a dependency from test_every_import_is_used."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hidden = [f"{fn.name} (line {node.lineno})" for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not hidden, f"{path.name} imports inside functions: {', '.join(hidden)}"


def _module_constants(tree):
    """Module-level names that are private (``_x``) or UPPER_CASE, with the
    line that binds them."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            private = name.startswith("_") and not name.startswith("__")
            if private or name.isupper():
                yield name, node.lineno


def _read_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
    yield from _string_annotation_names(tree)


def test_every_private_name_and_constant_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        read |= set(_read_names(tree)) | _exported_names(tree)
    unread = [f"{module}: {name} (line {line})" for module, tree in trees.items()
              for name, line in _module_constants(tree) if name not in read]
    assert not unread, f"names no package module reads: {', '.join(unread)}"


def _lexing_sites(tree):
    """Lines that import ``pygments.lexers`` or call a lexer's ``get_tokens``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            names = []
        calls = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "get_tokens")
        if calls or any(name.startswith("pygments.lexers") for name in names):
            yield node.lineno


def test_only_model_lexes():
    """One Pygments pass per program: ``model.lex`` owns the lexers, and every
    other module reads the stream it returns."""
    sites = {p.name: list(_lexing_sites(ast.parse(p.read_text(), filename=str(p))))
             for p in sorted(SRC.glob("*.py"))}
    lexing = {name: lines for name, lines in sites.items() if lines}
    assert set(lexing) == {"model.py"}, f"modules that lex: {lexing}"


def _top_level_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def test_every_dependency_is_imported():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    project = tomllib.loads((SRC.parent.parent / "pyproject.toml").read_text())["project"]
    imported = {name for p in SRC.glob("*.py")
                for name in _top_level_imports(ast.parse(p.read_text(), filename=str(p)))}
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    assert not declared - imported, f"declared but never imported: {sorted(declared - imported)}"
