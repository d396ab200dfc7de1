"""Graph model and family generators.

Core claims:
    - build_dag validates names, edges, acyclicity, and designated sinks, and
      refuses every container shape the graph file reader refuses, with its
      messages: the reader is build_dag behind a key lookup
    - pyramid(h) has (h+1)(h+2)/2 vertices, indegree 2, a unique sink
    - carlson_savage counts match an independent component recount, and in
      every single-sink restriction a spine vertex's predecessors are its
      outside one, then its spine predecessor (none at spine position 1),
      the layout the Carlson-Savage strategy reads without names
    - bit_reversal cross edges reverse binary indices; sigma is an involution
    - single_sink_restriction keeps exactly the ancestors and is idempotent,
      and builds the graph that rebuilding the kept names and edges builds
    - graph JSON round-trips through the loader's validation
    - the JSON writer gives the bytes of json.dumps(indent=2) plus a newline,
      and streams a file one top-level list element at a time, writing an
      element that repeats by identity from its first text; the certificate
      writer streams one multiplier at a time
    - the file reader runs no garbage collection while it decodes and parses
      a file, and leaves the collector as the caller had it, on success and
      on every failure
"""

import gc
import json
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_single_sink_dag
from pebcert import (
    bit_reversal,
    build_dag,
    carlson_savage,
    certificate_to_json,
    compile_strategy,
    graph_from_json,
    line,
    load_certificate,
    pyramid,
    save_certificate,
    single_sink_restriction,
    strat_carlson_savage,
)
from pebcert import graphs
from pebcert.algebra import Field, MultilinearPoly
from pebcert.errors import CertificateError, GraphError, ParamOutOfRange
from pebcert.graphs import Dag, _write_json, bit_reverse_index
from pebcert.pebbling import (PLACE, REMOVE, REVERSIBLE, VISITING, Move, Strategy, save_strategy,
                              strategy_to_json)


def test_build_single_vertex():
    dag = build_dag(["a"], [], "a")
    assert dag.names == ("a",)
    assert dag.sinks == (0,)
    assert dag.designated_sink_name == "a"


def test_build_two_cycle_rejected():
    with pytest.raises(GraphError, match="cycle through"):
        build_dag(["a", "b"], [("a", "b"), ("b", "a")], "b")


def test_build_duplicate_vertex():
    with pytest.raises(GraphError, match="'a' declared twice"):
        build_dag(["a", "a"], [])


def test_build_unknown_edge_endpoint():
    with pytest.raises(GraphError, match="edge endpoint 'b' not declared"):
        build_dag(["a"], [("a", "b")])


def test_build_unhashable_names():
    with pytest.raises(GraphError, match=r"^vertex name \['a'\] is not a string$"):
        build_dag([["a"]], [])
    with pytest.raises(GraphError, match=r"edge endpoint \['b'\] not declared"):
        build_dag(["a"], [("a", ["b"])])
    with pytest.raises(GraphError, match=r"designated sink \['a'\] not declared"):
        build_dag(["a"], [], ["a"])


@pytest.mark.parametrize("vertices,edges,message", [
    ("ab", [], '"vertices" must be a list of names, got \'ab\''),
    (["a"], [1], '"edges" must be a list of [tail, head] pairs, got [1]'),
    (["a"], [("a",)], '"edges" must be a list of [tail, head] pairs, got [(\'a\',)]'),
    (["a"], "aa", '"edges" must be a list of [tail, head] pairs, got \'aa\''),
    ({"a": 1}, [], '"vertices" must be a list of names, got {\'a\': 1}'),
], ids=["vertices-str", "edge-int", "edge-one-item", "edges-str", "vertices-dict"])
def test_build_refuses_the_file_readers_shapes(vertices, edges, message):
    with pytest.raises(GraphError) as exc:
        build_dag(vertices, edges)
    assert str(exc.value) == message
    with pytest.raises(GraphError) as again:
        graph_from_json({"vertices": vertices, "edges": edges})
    assert str(again.value) == message


def test_build_takes_tuples_as_lists():
    assert build_dag(("a", "b"), (("a", "b"),), "b") == build_dag(["a", "b"], [["a", "b"]], "b")


def test_build_designated_sink_with_successor():
    with pytest.raises(GraphError, match="'a' has successors"):
        build_dag(["a", "b"], [("a", "b")], "a")


def test_build_figure_pyramid_by_hand():
    dag = build_dag(
        ["p", "q", "r", "u", "v", "z"],
        [("p", "u"), ("q", "u"), ("q", "v"), ("r", "v"), ("u", "z"), ("v", "z")],
        "z")
    assert len(dag) == 6
    assert dag.pred_names("z") == ("u", "v")
    assert dag.max_indegree == 2


def test_build_reorders_topologically():
    dag = build_dag(["b", "a"], [("a", "b")], "b")
    assert dag.names == ("a", "b")


@pytest.mark.parametrize("h", range(6))
def test_pyramid_counts(h):
    dag = pyramid(h)
    assert len(dag) == (h + 1) * (h + 2) // 2
    assert len(dag.sinks) == 1
    assert dag.max_indegree == (2 if h > 0 else 0)


def test_pyramid_height_two_structure():
    dag = pyramid(2)
    assert set(dag.edge_names()) == {
        ("v0_1", "v1_1"), ("v0_2", "v1_1"),
        ("v0_2", "v1_2"), ("v0_3", "v1_2"),
        ("v1_1", "v2_1"), ("v1_2", "v2_1"),
    }
    assert dag.designated_sink_name == "v2_1"


def test_pyramid_bad_height():
    with pytest.raises(ParamOutOfRange):
        pyramid(-1)


def test_line_basics():
    assert len(line(1)) == 1
    dag = line(3)
    assert dag.edge_names() == (("v1", "v2"), ("v2", "v3"))
    nine = line(9)
    assert len(nine) == 9
    assert len(nine.edges) == 8
    assert nine.depth() == 8
    assert nine.max_indegree == 1


@pytest.mark.parametrize("value,expected", [
    (lambda: repr(line(2)), "Dag(2 vertices, 1 edges, sink='v2')"),
    (lambda: repr(carlson_savage(2, 1)), "Dag(4 vertices, 4 edges, sink=None)"),
    (lambda: line(2).__eq__(line(2).edge_names()), NotImplemented),
    (lambda: line(2) == "v1 v2", False),
], ids=["repr", "repr-no-sink", "eq-other-type", "eq-str"])
def test_dag_repr_and_foreign_equality(value, expected):
    assert value() == expected


def test_unknown_vertex_name():
    with pytest.raises(GraphError, match="^unknown vertex 'nope'$"):
        line(2).pred_names("nope")


def test_unhashable_vertex_name_is_unknown():
    with pytest.raises(GraphError, match=r"^unknown vertex \{'a'\}$"):
        line(2).pred_names({"a"})


def test_restriction_to_unhashable_sink_is_unknown():
    with pytest.raises(GraphError, match=r"^unknown vertex \['a'\]$"):
        single_sink_restriction(line(2), ["a"])


def _cs_expected_size(c, r):
    # independent recount straight off the construction
    if r == 1:
        return c + 2
    return c * r * (r + 1) // 2 + _cs_expected_size(c, r - 1) + c * (r - 1) * 2 * c


def test_cs_base_case():
    dag = carlson_savage(2, 1)
    assert len(dag) == 4
    assert len(dag.edges) == 4
    assert dag.sink_names == ("t1", "t2")
    assert dag.designated_sink is None


@pytest.mark.parametrize("c,r", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (4, 2)])
def test_cs_counts_and_shape(c, r):
    dag = carlson_savage(c, r)
    assert len(dag) == _cs_expected_size(c, r)
    assert len(dag.sinks) == c
    assert dag.max_indegree == 2
    # recount from the edge list as well
    assert len(dag) == len({v for e in dag.edge_names() for v in e} | set(dag.names))


def test_cs_examples_from_construction():
    assert len(carlson_savage(2, 2)) == 18
    assert len(carlson_savage(3, 2)) == 32


def test_cs_param_validation():
    with pytest.raises(ParamOutOfRange):
        carlson_savage(1, 1)
    with pytest.raises(ParamOutOfRange):
        carlson_savage(2, 0)


def test_single_sink_restriction_base():
    dag = carlson_savage(2, 1)
    sub = single_sink_restriction(dag, "t1")
    assert set(sub.names) == {"s1", "s2", "t1"}
    assert sub.designated_sink_name == "t1"


def test_single_sink_restriction_cs22():
    dag = carlson_savage(2, 2)
    sub = single_sink_restriction(dag, dag.sink_names[0])
    assert len(sub) == 14  # drops the other spine's section vertices
    assert not any(name.startswith("spine2/") for name in sub.names)


_SPINE_VERTEX = re.compile(r"(.*spine\d+/)sec(\d+)/v(\d+)")


@pytest.mark.parametrize("c,r", [(c, r) for c in (2, 3, 4) for r in (1, 2, 3)])
def test_cs_spine_predecessors_are_outside_then_spine(c, r):
    # strat_carlson_savage walks each spine back through preds[1] and serves
    # each spine vertex from preds[0]; it reads no names
    full = carlson_savage(c, r)
    for sink in full.sink_names:
        dag = single_sink_restriction(full, sink)
        spine = [name for name in dag.names if "spine" in name]
        # the sink's spine, and every spine of the recursive copy below it
        assert len(spine) == 2 * c * (r - 1) + sum(2 * c * c * (q - 1) for q in range(2, r))
        for name in spine:
            own, k, m = _SPINE_VERTEX.fullmatch(name).groups()
            k, m = int(k), int(m)
            preds = dag.pred_names(name)
            if (k, m) == (1, 1):
                assert len(preds) == 1
            else:
                before = f"{own}sec{k}/v{m - 1}" if m > 1 else f"{own}sec{k - 1}/v{2 * c}"
                assert len(preds) == 2 and preds[1] == before
            assert not preds[0].startswith(own)


def test_single_sink_restriction_identity_and_idempotence():
    dag = pyramid(2)
    sub = single_sink_restriction(dag, "v2_1")
    assert sub == dag
    again = single_sink_restriction(sub, "v2_1")
    assert again == sub


def _rebuilt_restriction(dag, sink):
    """The restriction rebuilt from names: the ancestors of `sink`, found by
    name, and the edges among them, through build_dag."""
    keep, todo = {sink}, [sink]
    while todo:
        for p in dag.pred_names(todo.pop()):
            if p not in keep:
                keep.add(p)
                todo.append(p)
    edges = [(a, b) for a, b in dag.edge_names() if b in keep]
    return build_dag([v for v in dag.names if v in keep], edges, sink)


def _tables(dag):
    return {slot: getattr(dag, slot) for slot in Dag.__slots__}


@pytest.mark.parametrize("c,r", [(c, r) for c in (2, 3) for r in (1, 2, 3)])
def test_single_sink_restriction_matches_rebuild_on_cs(c, r):
    dag = carlson_savage(c, r)
    for sink in dag.sink_names:
        assert _tables(single_sink_restriction(dag, sink)) == _tables(
            _rebuilt_restriction(dag, sink))


@pytest.mark.parametrize("seed", range(40))
def test_single_sink_restriction_matches_rebuild_on_random_dags(seed):
    dag = random_single_sink_dag(random.Random(seed), max_n=9)
    for sink in dag.sink_names:
        sub = single_sink_restriction(dag, sink)
        assert _tables(sub) == _tables(_rebuilt_restriction(dag, sink))
        assert _tables(sub) == _tables(dag)  # a single-sink graph is its own restriction


def test_single_sink_restriction_rejects_non_sink():
    with pytest.raises(GraphError, match="'v0_1' is not a sink"):
        single_sink_restriction(pyramid(2), "v0_1")


def test_bit_reversal_identity_for_two():
    dag = bit_reversal(2)
    cross = [(a, b) for a, b in dag.edge_names() if a[0] == "x" and b[0] == "y"]
    assert sorted(cross) == [("x1", "y1"), ("x2", "y2")]


def test_bit_reversal_four_cross_edges():
    dag = bit_reversal(4)
    cross = sorted((a, b) for a, b in dag.edge_names() if a[0] == "x" and b[0] == "y")
    assert cross == [("x1", "y1"), ("x2", "y3"), ("x3", "y2"), ("x4", "y4")]


def test_bit_reversal_sixteen_properties():
    dag = bit_reversal(16)
    assert len(dag) == 32
    assert dag.designated_sink_name == "y16"
    assert dag.max_indegree == 2
    bits = 4
    sigma = [bit_reverse_index(i, bits) for i in range(16)]
    assert sorted(sigma) == list(range(16))  # permutation
    assert all(sigma[sigma[i]] == i for i in range(16))  # involution
    assert sigma[15] == 15  # sigma(n) = n


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_bit_reversal_names_bottom_line_then_top_line(n):
    # the bit-reversal strategies take their two chains from these names
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    ys = tuple(f"y{i}" for i in range(1, n + 1))
    assert bit_reversal(n).names == xs + ys


def test_bit_reversal_rejects_non_powers():
    for bad in (0, 1, 3, 6):
        with pytest.raises(ParamOutOfRange, match="needs a power of two"):
            bit_reversal(bad)


def test_graph_json_round_trip(tmp_path):
    dag = carlson_savage(2, 2)
    data = dag.to_json()
    again = graph_from_json(json.loads(json.dumps(data)))
    assert again == dag
    assert again.sink_names == dag.sink_names


def test_graph_json_rejects_cycles():
    with pytest.raises(GraphError, match="cycle through"):
        graph_from_json({"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]],
                         "sink": None})


@pytest.mark.parametrize("data", [
    {"vertices": "az", "edges": [], "sink": "z"},
    {"vertices": ["a", "z"], "edges": ["az"], "sink": "z"},
    {"vertices": ["a", "z"], "edges": [["a"]], "sink": "z"},
    {"vertices": ["a", "z"], "edges": [["a", "z", "z"]], "sink": "z"},
    {"vertices": ["a", "z"], "edges": {"a": "z"}, "sink": "z"},
])
def test_graph_json_rejects_strings_and_bad_edges(data):
    # a string is not read letter by letter as a list of names
    with pytest.raises(GraphError):
        graph_from_json(data)


class _Name(str):
    pass


# every str of the writer goes through one escape, so the alphabet leans on
# the characters it changes: quotes, backslashes, control, non-ASCII, astral
_TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\n\t\x7f\xe9\u2028\U0001f600') | st.characters(),
                max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**80, 2**80) | _TEXT | _TEXT.map(_Name),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)


_NAMES = st.sampled_from("abc")


@settings(max_examples=120)
@given(vertices=_JSON | st.lists(_NAMES, max_size=4),
       edges=_JSON | st.lists(st.lists(_NAMES, min_size=2, max_size=2)
                              | st.tuples(_NAMES, _NAMES), max_size=5),
       sink=_JSON | _NAMES)
@example(vertices="ab", edges=[], sink=None)
@example(vertices=["a"], edges=[1], sink=None)
@example(vertices=["a"], edges=[["a"]], sink=None)
@example(vertices=["a", "b"], edges=(("a", "b"),), sink="b")
def test_file_reader_and_build_dag_agree(vertices, edges, sink):
    # the reader is a key lookup in front of build_dag: a Dag or a
    # GraphError from both, never another exception, and the same one
    data = {"vertices": vertices, "edges": edges, "sink": sink}
    try:
        read = graph_from_json(data)
    except GraphError as exc:
        read = str(exc)
    else:
        assert isinstance(read, Dag)
    try:
        built = build_dag(vertices, edges, sink)
    except GraphError as exc:
        built = str(exc)
    assert built == read


_ROW = {"op": "place", "v": "v1"}
_ITEMS = [_ROW, ["a", _ROW], _ROW]


@settings(max_examples=60)
@given(value=_JSON)
@example(value={"a": [{"b": ({"c": [[], {}, ()]},)}], "": None})
@example(value=[True, False, None, 2**64 + 1, -2**70, 0, "", _Name("\U0001f600\\\"")])
@example(value={_Name("k"): {"moves": [], "x": ()}, "\xe9\x00": "\ud7ff\U00010000"})
@example(value=())
@example(value="\x1f")
@example(value=[_ROW, _ROW, {"op": "place", "v": "v2"}, _ROW])  # one object, written three times
@example(value={"moves": _ITEMS, "again": _ITEMS})  # one list under two keys
def test_writer_matches_json_dumps_indent_2(tmp_path_factory, value):
    want = json.dumps(value, indent=2) + "\n"
    assert _write_json(value) == want
    path = tmp_path_factory.getbasetemp() / "writer_parity.json"
    _write_json(value, path)
    assert path.read_bytes() == want.encode("utf-8")


class _WriteSpy:
    """A text file that records every string written to it."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.writes.append(text)
        return self.fh.write(text)


def _writes(monkeypatch, save, value, path):
    """The strings that `save(value, path)` writes, one per `write`."""
    spies = []

    def spy_open(*args, **kwargs):
        spies.append(_WriteSpy(open(*args, **kwargs)))
        return spies[-1]

    monkeypatch.setattr(graphs, "open", spy_open, raising=False)
    save(value, path)
    [spy] = spies
    return spy.writes


def test_writer_streams_one_move_per_write(tmp_path, monkeypatch):
    names = [f"v{i}" for i in range(1, 101)]
    moves = tuple(Move(op, v) for _ in range(100) for op in (PLACE, REMOVE) for v in names)
    strategy = Strategy(REVERSIBLE, VISITING, moves)
    assert len(moves) == 20_000
    path = tmp_path / "s.json"
    writes = _writes(monkeypatch, save_strategy, strategy, path)
    assert max(w.count('"op"') for w in writes) == 1
    assert sum(w.count('"op"') for w in writes) == len(moves)
    assert path.read_text() == json.dumps(strategy_to_json(strategy), indent=2) + "\n"


def test_certificate_writer_streams_one_multiplier_per_write(tmp_path, monkeypatch):
    dag = single_sink_restriction(carlson_savage(4, 3), "spine1/sec2/v8")
    cert = compile_strategy(dag, strat_carlson_savage(4, 3, 1), Field.prime(3))
    assert sum(map(MultilinearPoly.num_monomials, cert.multipliers.values())) == 4677
    path = tmp_path / "c.json"
    writes = _writes(monkeypatch, save_certificate, cert, path)
    assert max(w.count('"axiom"') for w in writes) == 1
    assert sum(w.count('"axiom"') for w in writes) == len(cert.multipliers)
    assert path.read_text() == json.dumps(certificate_to_json(cert), indent=2) + "\n"


def test_move_table_holds_bit_and_predecessor_mask():
    # pyramid(1): sources v0_1, v0_2 (indices 0, 1), sink v1_1 (index 2)
    assert pyramid(1).toggles == ((1, 0), (2, 0), (4, 3))
    dag = carlson_savage(2, 2)
    for v, (bit, pm) in enumerate(dag.toggles):
        assert bit == 1 << v
        assert pm == sum(1 << p for p in dag.preds[v])


@pytest.fixture
def collector():
    """The cyclic garbage collector enabled for the test and restored after it."""
    was = gc.isenabled()
    gc.enable()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(scope="module")
def cs331_certificate(tmp_path_factory):
    """The compiled strat_carlson_savage(3,3,1) certificate and its file."""
    dag = single_sink_restriction(carlson_savage(3, 3), "spine1/sec2/v6")
    cert = compile_strategy(dag, strat_carlson_savage(3, 3, 1), Field.prime(3))
    path = tmp_path_factory.mktemp("reader") / "cs331.cert.json"
    save_certificate(cert, path)
    return cert, path


def _collections(read):
    """The generations of the collections that start while `read()` runs."""
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(note)
    try:
        read()
    finally:
        gc.callbacks.remove(note)
    return started


def test_reader_runs_no_collection(collector, cs331_certificate):
    cert, path = cs331_certificate
    # the same document decoded outside the reader sets collections off
    assert _collections(lambda: json.loads(path.read_text())) != []
    loaded = []
    assert _collections(lambda: loaded.append(load_certificate(path))) == []
    assert loaded == [cert]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_reader_restores_the_collector(collector, cs331_certificate, enabled):
    cert, path = cs331_certificate
    malformed = path.with_name("malformed.json")
    malformed.write_text('{"field": "GF(3)", "mode": "multilinear", "multipliers": 1}\n')
    not_json = path.with_name("not.json")
    not_json.write_text("{")
    if not enabled:
        gc.disable()
    assert load_certificate(path) == cert
    assert gc.isenabled() == enabled
    for bad, error in [(malformed, CertificateError), (not_json, CertificateError),
                       (path.with_name("missing.json"), OSError)]:
        with pytest.raises(error):
            load_certificate(bad)
        assert gc.isenabled() == enabled, bad.name
