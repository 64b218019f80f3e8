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


def _self_calls(tree):
    """Functions whose body calls the function's own name."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == fn.name for node in ast.walk(fn)):
            yield fn.name


def test_no_function_recurses():
    """Recursion per nesting level of the input fails on deep programs, so no
    function calls itself."""
    recursive = {f"{p.name}: {name}" for p in sorted(SRC.glob("*.py"))
                 for name in _self_calls(ast.parse(p.read_text(), filename=str(p)))}
    assert not recursive, f"functions that call themselves: {', '.join(sorted(recursive))}"


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


def _splitlines_calls(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "splitlines"):
            yield node.lineno


def test_no_splitlines():
    """``str.splitlines`` also breaks lines at "\\f", "\\x85", U+2028 and more,
    where Python source and JSON Lines do not."""
    calls = [f"{p.name}: line {line}" for p in sorted(SRC.glob("*.py"))
             for line in _splitlines_calls(ast.parse(p.read_text(), filename=str(p)))]
    assert not calls, f"splitlines calls: {', '.join(calls)}"


# Where a call's mode argument sits: open(file, mode) and gzip.open(file, mode),
# but path.open(mode).
_MODULES_WITH_OPEN = {"gzip", "bz2", "lzma", "io", "codecs", "builtins"}


def _open_mode(call):
    """The mode of an ``open`` call as written ("r" when left out), or None
    when it is not a string literal."""
    func = call.func
    on_path = (isinstance(func, ast.Attribute)
               and not (isinstance(func.value, ast.Name) and func.value.id in _MODULES_WITH_OPEN))
    position = 0 if on_path else 1
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[position] if len(call.args) > position else ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def _write_sites(tree):
    """``what`` for each place that writes a file other than through
    ``dataset.write_text``: tempfile, os.replace or os.rename, a
    ``write_text``/``write_bytes`` method, or an ``open`` whose mode writes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                       else [node.module])
            if "tempfile" in modules:
                yield f"line {node.lineno}: import tempfile"
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = (func.value.id if isinstance(func, ast.Attribute)
                 and isinstance(func.value, ast.Name) else None)
        if ((owner == "os" and name in ("replace", "rename"))
                or (name in ("write_text", "write_bytes") and owner != "dataset"
                    and isinstance(func, ast.Attribute))):
            yield f"line {node.lineno}: {owner or '...'}.{name}"
        elif name == "open" and owner != "os":
            mode = _open_mode(node)
            if mode is None or set(mode) & set("wxa+"):
                yield f"line {node.lineno}: open mode {mode!r}"
        elif owner == "os" and name in ("open", "fdopen"):
            yield f"line {node.lineno}: os.{name}"


def test_only_dataset_writes_files():
    """``dataset.write_text`` is the one writer: atomic, .gz-aware and
    byte-stable. The one other write is the audit log's append in client.py."""
    sites = {p.name: list(_write_sites(ast.parse(p.read_text(), filename=str(p))))
             for p in sorted(SRC.glob("*.py")) if p.name != "dataset.py"}
    writing = {name: lines for name, lines in sites.items() if lines}
    assert len(writing.get("client.py", [])) == 1
    assert writing.pop("client.py")[0].endswith("open mode 'a'")
    assert not writing, f"modules that write files: {writing}"


def test_no_global_statement():
    """State a function writes through ``global`` or ``nonlocal`` outlives
    the call and is shared by every caller and thread."""
    statements = [f"{p.name}: line {node.lineno}" for p in sorted(SRC.glob("*.py"))
                  for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
                  if isinstance(node, (ast.Global, ast.Nonlocal))]
    assert not statements, f"global or nonlocal statements: {', '.join(statements)}"


def _dotted(node):
    """``"a.b.c"`` for the expression ``a.b.c``; None for anything else."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(attrs)]) if isinstance(node, ast.Name) else None


def _owners(tree):
    """The name of the innermost function holding each node inside one."""
    owner = {}
    for fn in ast.walk(tree):  # outer functions first, so inner ones win
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(ast.walk(fn), fn.name))
    return owner


def _module_calls(tree, module):
    """``(function, name)`` for each ``module.name(...)`` call, *module*
    dotted or not, with the innermost function that makes it (None at module
    level), and ``(None, name)`` for each name imported ``from module``."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and _dotted(node.func.value) == module):
            yield owner.get(node), node.func.attr
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            yield from ((None, alias.name) for alias in node.names)


def _calls_by_module(module):
    sites = {p.name: set(_module_calls(ast.parse(p.read_text(), filename=str(p)), module))
             for p in sorted(SRC.glob("*.py"))}
    return {name: calls for name, calls in sites.items() if calls}


def test_only_post_json_calls_urlopen():
    """One HTTP retry helper: ``client._post_json`` makes every request, with
    the stdlib's ``urlopen``, and no module imports ``requests``."""
    opening = {(name, function) for name, calls in _calls_by_module("urllib.request").items()
               for function, called in calls if called == "urlopen"}
    assert opening == {("client.py", "_post_json")}
    importing = [p.name for p in sorted(SRC.glob("*.py"))
                 if "requests" in _top_level_imports(ast.parse(p.read_text(), filename=str(p)))]
    assert not importing, f"modules that import requests: {importing}"


def test_only_parse_cst_builds_a_tree():
    """No analysis builds a ``CstNode`` tree: each reads the walk its parser
    emits, and ``analysis.parse_cst`` alone builds the public tree from one."""
    building = set()
    for p in sorted(SRC.glob("*.py")):
        tree = ast.parse(p.read_text(), filename=str(p))
        owner = _owners(tree)
        building |= {(p.name, owner.get(node)) for node in ast.walk(tree)
                     if isinstance(node, ast.Call)
                     and (_dotted(node.func) or "").split(".")[-1] == "CstNode"}
    assert building == {("analysis.py", "parse_cst")}


def test_only_analysis_parses_python():
    """Python programs are parsed in ``analysis`` alone, whose recovery loop
    and lock hold every ``ast.parse`` call."""
    parsing = {name: calls for name, calls in _calls_by_module("ast").items()
               if any(called == "parse" for _, called in calls)}
    assert set(parsing) == {"analysis.py"}, f"modules that parse: {parsing}"
