"""Every module of the package uses every name it imports, every private
function, class and method is referenced somewhere, every exception class
is raised or caught somewhere, and files are opened and JSON is read or
written only at the one file boundary, one place turns a search's layers
into a witness, one product path serves both polynomial kinds, one rule
turns a certificate monomial into a configuration mask, a `Dag` is built
only where its input has been checked, one loop decodes moves, moves are
made only where steps or file rows become them, and the strategies build no
vertex names.

No linter runs with the suite, so this parses each module with `ast` and
fails on an imported name that no expression of the module refers to.
`__init__.py` is skipped: its imports are the package's public API.  A
private top-level function or class, or a private method of a top-level
class, that no name or attribute in the package refers to is dead code, as
is a class defined in `errors.py` that no other module raises or catches.
A call to `open`, to a `Path`-style `.open`, `.read_text`, `.write_text`,
`.read_bytes` or `.write_bytes`, or to any `json` function outside
`graphs._read_json`, `graphs._write_json` (the generic JSON renderer) and
`graphs._write_text` (the one file writer, which every saver and
`cli._emit` call) would be a loader or writer that decides on its own how a
file is decoded and which failures name it.  A call
to `search._back` or `search._walk` outside `search._solve`, or a second
call there to either, would be a second prune or walk that decides on its
own how on-path configurations come from a search's layers.  A call to
`_mul_into` outside `_Poly.__mul__` would be a second product rule, such as
one that takes the multiplier's class where another needs ExpPoly's;
`verify` uses no product rule in either mode, as it adds on configuration
masks or on exponent codes.  A call to `_mask_rows` outside `nullstellensatz.verify` and
`nullstellensatz.config_graph` would be a second reading of certificate
terms as configuration masks, one that could give a variable outside the
DAG another bit.  A call to `Dag` outside `graphs.build_dag` and
`graphs.single_sink_restriction` would be a graph whose names, order and
predecessors nobody checked.  A call to `_rule` outside `pebbling.replay`
would be a second replay loop that decides on its own which moves are
legal and how a refusal is worded; `replay` calls it twice, for a move it
keeps and for an unhashable one.  A call to `Move` outside
`pebbling._moves` and `pebbling.strategy_from_json`, which each make one
object per distinct move, would make moves in the middle of a builder's
work, or a second object for a move that a strategy already holds; a
builder works in signed vertex steps until `_moves`.  A call to
`disable` or `enable` (the cyclic garbage collector's switches) outside
`graphs._read_json` would spread a process-wide setting over the API: only
the file reader pauses the collector, around the decoding and parsing of
one document, and it restores the caller's state.  One table,
`_CALLED_ONLY_IN`, names every such guarded callee with the scopes that
call it, and one detector reads every module against it; each guard keeps
its own self-test of that detector.  The named-tuple methods `_make`,
`_replace` and `_asdict` are public despite their underscore, so
overriding one, as `Certificate` does `_make`, is not dead code.
`strategies.py` holds no
f-string and reads no `.index` attribute: only `graphs` builds generated
vertex names, and the strategies read each family's layout off its DAG.
No module holds a `float` constant or calls `float` or `round`: the package
is exact, and a root or a logarithm it needs is found in integers.

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


_NAMED_TUPLE_API = {"_make", "_replace", "_asdict"}


def _private_definitions(source):
    """Private names (`_x`, not dunders) of the top-level functions and
    classes of `source` and of the methods of its top-level classes."""
    names = []
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.append(top.name)
        if isinstance(top, ast.ClassDef):
            names += [item.name for item in top.body if isinstance(item, ast.FunctionDef)]
    return {n for n in names if n.startswith("_") and n not in _NAMED_TUPLE_API
            and not (n.startswith("__") and n.endswith("__"))}


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
                "    def _nested(self):\n        def _inner():\n            pass\n"
                "class Rec(tuple):\n    def _make(cls, it):\n        pass\n")
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
                  ("graphs.py", "_write_text")}
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


# called name -> (module, enclosing scope) of each call the package makes to
# it, one entry per call, sorted; `_back` and `_walk` are each called exactly once
_CALLED_ONLY_IN = {
    "_back": [("search.py", "_solve")],
    "_walk": [("search.py", "_solve")],
    "_mul_into": [("algebra.py", "_Poly.__mul__")],
    "_mask_rows": [("nullstellensatz.py", "config_graph"), ("nullstellensatz.py", "verify")],
    "Dag": [("graphs.py", "build_dag"), ("graphs.py", "single_sink_restriction")],
    "_rule": [("pebbling.py", "replay"), ("pebbling.py", "replay")],
    "Move": [("pebbling.py", "_moves"), ("pebbling.py", "strategy_from_json")],
    "_undo": [("pebbling.py", "_unwind"), ("pebbling.py", "visiting")],
    "disable": [("graphs.py", "_read_json")],
    "enable": [("graphs.py", "_read_json")],
}


def _called_name(func):
    """The name of a called expression: `f` of `f(...)` and of `m.f(...)`."""
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _guarded_calls(source):
    """(enclosing scope, as `_scoped_calls` names it; called name) of every
    call to a name of _CALLED_ONLY_IN, bare or as an attribute such as
    `search._walk`."""
    return [(scope, _called_name(func)) for scope, func in _scoped_calls(source)
            if _called_name(func) in _CALLED_ONLY_IN]


def test_detects_prune_calls():
    source = ("def _solve(d):\n    return _walk(d, _back(d))\n"
              "def other(d):\n    return search._back(d)\n"
              "x = _walk\n")
    assert _guarded_calls(source) == [
        ("_solve", "_walk"), ("_solve", "_back"), ("other", "_back")]


def test_detects_product_calls():
    source = ("class P:\n    def __mul__(self, o):\n        return self._mul_into(self, o, {})\n"
              "    x = _mul_into(1)\n"
              "def verify(c):\n    return P._mul_into(c, c, {})\n")
    assert _guarded_calls(source) == [
        (None, "_mul_into"), ("P.__mul__", "_mul_into"), ("verify", "_mul_into")]


def test_detects_mask_rows_calls():
    source = ("def verify(f, c):\n    return sum(c for _, _, c in _mask_rows(f, c, {}))\n"
              "class G:\n    def edges(self, f, c):\n"
              "        return list(nullstellensatz._mask_rows(f, c, {}))\n"
              "rows = [r for r in _mask_rows(None, None, {})]\nf = _mask_rows\n")
    assert _guarded_calls(source) == [("verify", "_mask_rows"), ("G.edges", "_mask_rows"),
                                      (None, "_mask_rows")]


def test_detects_dag_calls():
    source = ("def build_dag(v):\n    return Dag(v, (), None)\n"
              "class G:\n    def copy(self):\n        return graphs.Dag(self.names, (), None)\n"
              "    def same(self, o):\n        return isinstance(o, Dag)\n"
              "d = Dag((), (), None)\n")
    assert _guarded_calls(source) == [("build_dag", "Dag"), ("G.copy", "Dag"), (None, "Dag")]


def test_detects_decoder_calls():
    source = ("def replay(d, ms):\n    for m in ms:\n        _rule(d, m)\n"
              "        def slow():\n            return _rule(d, m, 'standard')\n"
              "class S:\n    def step(self, m):\n        return pebbling._rule(self, m)\n"
              "f = _rule\n")
    assert _guarded_calls(source) == [("replay", "_rule"), ("replay", "_rule"),
                                      ("S.step", "_rule")]


def test_detects_move_calls():
    source = ("def _moves(dag, steps):\n    return {s: Move('place', s) for s in set(steps)}\n"
              "def strategy_from_json(data):\n"
              "    made = {pair: pebbling.Move(*pair) for pair in data}\n"
              "def walk(v):\n    return [Move('place', v), made['place', v]]\n"
              "m = Move('remove', 'v')\nM = Move\n")
    assert _guarded_calls(source) == [("_moves", "Move"), ("strategy_from_json", "Move"),
                                      ("walk", "Move"), (None, "Move")]


def test_detects_undo_calls():
    source = ("def _unwind(half):\n    return half + _undo(half[:-1])\n"
              "def _place(climb):\n    return climb + [1] + pebbling._undo(climb)\n"
              "class S:\n    def back(self, s):\n        return _undo(s)\n"
              "u = _undo\n")
    assert _guarded_calls(source) == [("_unwind", "_undo"), ("_place", "_undo"),
                                      ("S.back", "_undo")]


def test_detects_collector_calls():
    source = ("def _read_json(p):\n    gc.disable()\n    try:\n        return p()\n"
              "    finally:\n        gc.enable()\n"
              "class C:\n    def compile(self):\n        gc.disable()\n"
              "gc.enable()\nswitch = gc.disable\n")
    assert _guarded_calls(source) == [("_read_json", "disable"), ("_read_json", "enable"),
                                      ("C.compile", "disable"), (None, "enable")]


def _check_called_only_in(*names):
    """Every call the package makes to one of `names` is the table's, and no other."""
    calls = {name: [] for name in names}
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, name in _guarded_calls(path.read_text()):
            if name in calls:
                calls[name].append((path.name, scope))
    assert {name: sorted(c) for name, c in calls.items()} == {
        name: _CALLED_ONLY_IN[name] for name in names}


def test_search_layers_are_pruned_and_walked_only_in_solve():
    _check_called_only_in("_back", "_walk")


def test_one_product_path_for_both_polynomial_kinds():
    _check_called_only_in("_mul_into")


def test_monomials_become_masks_only_in_verify_and_config_graph():
    _check_called_only_in("_mask_rows")


def test_dags_are_built_only_by_build_dag_and_the_restriction():
    _check_called_only_in("Dag")


def test_moves_are_decoded_only_in_replay():
    _check_called_only_in("_rule")


def test_moves_are_made_only_by_the_move_table():
    _check_called_only_in("Move")


def test_steps_are_undone_only_by_the_unwind_rule_and_visiting():
    _check_called_only_in("_undo")


def test_the_collector_is_paused_only_by_the_file_reader():
    _check_called_only_in("disable", "enable")


def _name_building(source):
    """(line, what) of every f-string and every `.index` read of `source`."""
    return [(node.lineno, "f-string" if isinstance(node, ast.JoinedStr) else ".index")
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.JoinedStr)
            or isinstance(node, ast.Attribute) and node.attr == "index"]


def test_detects_name_building():
    source = "def f(dag, p):\n    x = dag.index[f'{p}s1']\n    return 'v' + str(p), [].index\n"
    assert sorted(_name_building(source)) == [(2, ".index"), (2, "f-string"), (3, ".index")]


def test_strategies_build_no_vertex_names():
    # only graphs builds generated names; the strategies read the DAG's layout
    assert _name_building((PACKAGE / "strategies.py").read_text()) == []


def _floating_point(source):
    """(line, what) of every float constant and every call to `float` or `round`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            found.append((node.lineno, node.func.id))
    return found


def test_detects_floating_point():
    source = ("def f(n, k):\n    r = max(1, round(n ** (1.0 / k)))\n"
              "    return float(r), 2e3, n // k, 'round', x.round()\n")
    assert sorted(_floating_point(source)) == [(2, "1.0"), (2, "round"), (3, "2000.0"),
                                               (3, "float")]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_floating_point(module):
    assert _floating_point((PACKAGE / module).read_text()) == []


_HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cold_cli_import_loads_no_heavy_module():
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import pebcert.cli; "
             f"print(' '.join(m for m in {_HEAVY_MODULES!r} if m in sys.modules))")
    loaded = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                            text=True, check=True).stdout.split()
    assert loaded == []
