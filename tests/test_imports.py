"""Every module of the package uses every name it imports, every private
function, class and method is referenced somewhere, every exception class
is raised or caught somewhere, and files are opened and JSON is read or
written only at the one file boundary, one place turns a search's layers
into a witness, one product path serves both polynomial kinds, a `Dag` is
built only where its input has been checked, one loop decodes moves, and
one table makes them.

No linter runs with the suite, so this parses each module with `ast` and
fails on an imported name that no expression of the module refers to.
`__init__.py` is skipped: its imports are the package's public API.  A
private top-level function or class, or a private method of a top-level
class, that no name or attribute in the package refers to is dead code, as
is a class defined in `errors.py` that no other module raises or catches.
A call to `open`, to a `Path`-style `.open`, `.read_text`, `.write_text`,
`.read_bytes` or `.write_bytes`, or to any `json` function outside
`graphs._read_json`, `graphs._write_json` and `cli._emit` (the one writer of
CSV, DIMACS and generated graph text) would be a loader or writer that
decides on its own how a file is decoded and which failures name it.  A call to `search._back` or
`search._walk` outside `search._solve` would be a second prune or walk that
decides on its own how on-path configurations come from a search's layers.
A call to `_mul_into` outside `_Poly.__mul__` and `nullstellensatz.verify`
would be a second product rule, such as one that takes the multiplier's
class where standard-mode `verify` needs the mode's.  A call to `Dag`
outside `graphs.build_dag` and `graphs.single_sink_restriction` would be a
graph whose names, order and predecessors nobody checked.  A call to
`_rule` or `_move_mask` outside `pebbling.replay` would be a second replay
loop that decides on its own which moves are legal.  A call to `Move`
outside `pebbling._MoveTable.__missing__` would make a second object for a
move that a strategy already holds.

Every CLI call pays for `import pebcert.cli` before it does any work, so a
cold import in a fresh interpreter must load none of `dataclasses`,
`inspect`, `ast`, `dis` and `tokenize`: `dataclasses` alone pulls in the
other four and generates code for each decorated class, which was about
three quarters of the package's import time.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pebcert"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detects_unused_import():
    assert _unused_imports("import os\nfrom json import dumps, loads\nloads('1')\n") == [
        "dumps", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def _private_definitions(source):
    """Private names (`_x`, not dunders) of the top-level functions and
    classes of `source` and of the methods of its top-level classes."""
    names = []
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.append(top.name)
        if isinstance(top, ast.ClassDef):
            names += [item.name for item in top.body if isinstance(item, ast.FunctionDef)]
    return {n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}


def _unreferenced_private(sources):
    """Private definitions of `sources` that no `ast.Name` or `ast.Attribute`
    of any of them refers to."""
    defined, used = set(), set()
    for source in sources:
        defined |= _private_definitions(source)
        used |= {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted(defined - used)


def test_detects_unreferenced_private_code():
    defining = ("def _dead():\n    pass\ndef _used():\n    pass\n"
                "class _Box:\n    def __init__(self):\n        self._live()\n"
                "    def _live(self):\n        pass\n    def _idle(self):\n        pass\n"
                "    def _nested(self):\n        def _inner():\n            pass\n")
    using = "from m import _used\n_used()\nx = _Box()._nested\n"
    assert _unreferenced_private([defining, using]) == ["_dead", "_idle"]
    assert _unreferenced_private([defining]) == ["_Box", "_dead", "_idle", "_nested", "_used"]


def test_every_private_definition_is_referenced():
    assert _unreferenced_private([p.read_text() for p in PACKAGE.glob("*.py")]) == []


def _raised_or_caught(source):
    """Names in `raise X`, `raise X(...)` and `except X` / `except (X, Y)` clauses."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(getattr(exc, "id", None))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names |= {getattr(t, "id", None) for t in types}
    return names


def test_detects_unraised_class():
    source = ("try:\n    raise A('x')\nexcept (B, C):\n    raise D\n"
              "except E as exc:\n    F(exc)\n")
    assert _raised_or_caught(source) - {None} == {"A", "B", "C", "D", "E"}


def test_every_error_class_is_raised_or_caught():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "errors.py":
            used |= _raised_or_caught(path.read_text())
    assert sorted(defined - used) == []


_FILE_BOUNDARY = {("graphs.py", "_read_json"), ("graphs.py", "_write_json"),
                  ("cli.py", "_emit")}
_PATH_FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _scoped_calls(source):
    """(enclosing top-level function, "Class.method" for a method of a
    top-level class, or None; called expression) of every call."""
    for top in ast.parse(source).body:
        scope = top.name if isinstance(top, ast.FunctionDef) else None
        methods = {}  # node -> "Class.method" of the method it sits in
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, ast.FunctionDef):
                    methods.update(dict.fromkeys(ast.walk(item), f"{top.name}.{item.name}"))
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                yield methods.get(node, scope), node.func


def _file_calls(source):
    """(enclosing top-level function or None, called name) of every call to
    `open`, to a `json` function, or to a method named in _PATH_FILE_METHODS
    (as ".name")."""
    calls = []
    for scope, func in _scoped_calls(source):
        if isinstance(func, ast.Name) and func.id == "open":
            calls.append((scope, "open"))
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id == "json"):
            calls.append((scope, f"json.{func.attr}"))
        elif isinstance(func, ast.Attribute) and func.attr in _PATH_FILE_METHODS:
            calls.append((scope, f".{func.attr}"))
    return calls


def test_detects_file_calls():
    source = ("import json\nx = json.loads('1')\n"
              "def f(p):\n    with open(p) as fh:\n        return json.load(fh)\n"
              "def g(p):\n    return Path(p).open()\n"
              "def h(p, t):\n    p.write_text(t)\n    p.read_bytes()\n"
              "    return Path(p).read_text(), p.write_bytes(b''), p.name.upper()\n")
    assert _file_calls(source) == [
        (None, "json.loads"), ("f", "open"), ("f", "json.load"), ("g", ".open"),
        ("h", ".write_text"), ("h", ".read_bytes"), ("h", ".read_text"), ("h", ".write_bytes")]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_files_are_read_and_written_only_at_the_boundary(module):
    calls = _file_calls((PACKAGE / module).read_text())
    assert [c for c in calls if (module, c[0]) not in _FILE_BOUNDARY] == []


_PRUNE = ("_back", "_walk")


def _called_name(func):
    """The name of a called expression: `f` of `f(...)` and of `m.f(...)`."""
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _prune_calls(source):
    """(enclosing top-level function or None, called name) of every call to
    `_back` or `_walk`, bare or as an attribute such as `search._walk`."""
    calls = []
    for scope, func in _scoped_calls(source):
        name = _called_name(func)
        if name in _PRUNE:
            calls.append((scope, name))
    return calls


def test_detects_prune_calls():
    source = ("def _solve(d):\n    return _walk(d, _back(d))\n"
              "def other(d):\n    return search._back(d)\n"
              "x = _walk\n")
    assert _prune_calls(source) == [("_solve", "_walk"), ("_solve", "_back"), ("other", "_back")]


def test_search_layers_are_pruned_and_walked_only_in_solve():
    calls = [(module, *call) for module in sorted(p.name for p in PACKAGE.glob("*.py"))
             for call in _prune_calls((PACKAGE / module).read_text())]
    assert {(module, scope) for module, scope, _ in calls} == {("search.py", "_solve")}
    assert [name for *_, name in calls].count("_walk") == 1


def _product_calls(source):
    """(enclosing scope, as `_scoped_calls` names it) of every call to
    `_mul_into`, bare or as an attribute such as `poly._mul_into`."""
    return [scope for scope, func in _scoped_calls(source) if _called_name(func) == "_mul_into"]


def test_detects_product_calls():
    source = ("class P:\n    def __mul__(self, o):\n        return self._mul_into(self, o, {})\n"
              "    x = _mul_into(1)\n"
              "def verify(c):\n    return P._mul_into(c, c, {})\n")
    assert _product_calls(source) == [None, "P.__mul__", "verify"]


def test_one_product_path_for_both_polynomial_kinds():
    calls = [(module, scope) for module in sorted(p.name for p in PACKAGE.glob("*.py"))
             for scope in _product_calls((PACKAGE / module).read_text())]
    assert calls == [("algebra.py", "_Poly.__mul__"), ("nullstellensatz.py", "verify")]


def _dag_calls(source):
    """(enclosing scope, as `_scoped_calls` names it) of every call to `Dag`,
    bare or as an attribute such as `graphs.Dag`."""
    return [scope for scope, func in _scoped_calls(source) if _called_name(func) == "Dag"]


def test_detects_dag_calls():
    source = ("def build_dag(v):\n    return Dag(v, (), None)\n"
              "class G:\n    def copy(self):\n        return graphs.Dag(self.names, (), None)\n"
              "    def same(self, o):\n        return isinstance(o, Dag)\n"
              "d = Dag((), (), None)\n")
    assert _dag_calls(source) == ["build_dag", "G.copy", None]


def test_dags_are_built_only_by_build_dag_and_the_restriction():
    calls = [(module, scope) for module in sorted(p.name for p in PACKAGE.glob("*.py"))
             for scope in _dag_calls((PACKAGE / module).read_text())]
    assert calls == [("graphs.py", "build_dag"), ("graphs.py", "single_sink_restriction")]


_MOVE_DECODERS = ("_rule", "_move_mask")


def _decoder_calls(source):
    """(enclosing scope, as `_scoped_calls` names it; called name) of every
    call to `_rule` or `_move_mask`, bare or as an attribute such as
    `pebbling._move_mask`."""
    return [(scope, _called_name(func)) for scope, func in _scoped_calls(source)
            if _called_name(func) in _MOVE_DECODERS]


def test_detects_decoder_calls():
    source = ("def replay(d, ms):\n    for m in ms:\n        _rule(d, m)\n"
              "        def slow():\n            return _move_mask(d, 0, m)\n"
              "class S:\n    def step(self, m):\n        return pebbling._move_mask(self, 0, m)\n"
              "f = _rule\n")
    assert _decoder_calls(source) == [("replay", "_rule"), ("replay", "_move_mask"),
                                      ("S.step", "_move_mask")]


def test_moves_are_decoded_only_in_replay():
    calls = [(module, *call) for module in sorted(p.name for p in PACKAGE.glob("*.py"))
             for call in _decoder_calls((PACKAGE / module).read_text())]
    assert calls == [("pebbling.py", "replay", "_rule"), ("pebbling.py", "replay", "_move_mask")]


def _move_calls(source):
    """(enclosing scope, as `_scoped_calls` names it) of every call to `Move`,
    bare or as an attribute such as `pebbling.Move`."""
    return [scope for scope, func in _scoped_calls(source) if _called_name(func) == "Move"]


def test_detects_move_calls():
    source = ("class T(dict):\n    def __missing__(self, pair):\n        return Move(*pair)\n"
              "def walk(v):\n    return [pebbling.Move('place', v), T()['place', v]]\n"
              "m = Move('remove', 'v')\n")
    assert _move_calls(source) == ["T.__missing__", "walk", None]


def test_moves_are_made_only_by_the_move_table():
    calls = [(module, scope) for module in sorted(p.name for p in PACKAGE.glob("*.py"))
             for scope in _move_calls((PACKAGE / module).read_text())]
    assert calls == [("pebbling.py", "_MoveTable.__missing__")]


_HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cold_cli_import_loads_no_heavy_module():
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import pebcert.cli; "
             f"print(' '.join(m for m in {_HEAVY_MODULES!r} if m in sys.modules))")
    loaded = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                            text=True, check=True).stdout.split()
    assert loaded == []
