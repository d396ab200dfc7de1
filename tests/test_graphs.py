"""Graph model and family generators.

Core claims:
    - build_dag validates names, edges, acyclicity, and designated sinks
    - pyramid(h) has (h+1)(h+2)/2 vertices, indegree 2, a unique sink
    - carlson_savage counts match an independent component recount
    - bit_reversal cross edges reverse binary indices; sigma is an involution
    - single_sink_restriction keeps exactly the ancestors and is idempotent
    - graph JSON round-trips through the loader's validation
"""

import json

import pytest

from pebcert import (
    bit_reversal,
    build_dag,
    carlson_savage,
    graph_from_json,
    line,
    pyramid,
    single_sink_restriction,
)
from pebcert.errors import (
    CycleDetected,
    DuplicateVertex,
    GraphError,
    NotASink,
    NotASinkVertex,
    NotPowerOfTwo,
    ParamOutOfRange,
    UnhashableVertex,
    UnknownVertex,
)
from pebcert.graphs import bit_reverse_index


def test_build_single_vertex():
    dag = build_dag(["a"], [], "a")
    assert dag.names == ("a",)
    assert dag.sinks == (0,)
    assert dag.designated_sink_name == "a"


def test_build_two_cycle_rejected():
    with pytest.raises(CycleDetected):
        build_dag(["a", "b"], [("a", "b"), ("b", "a")], "b")


def test_build_duplicate_vertex():
    with pytest.raises(DuplicateVertex):
        build_dag(["a", "a"], [])


def test_build_unknown_edge_endpoint():
    with pytest.raises(UnknownVertex):
        build_dag(["a"], [("a", "b")])


def test_build_unhashable_names():
    with pytest.raises(UnhashableVertex):
        build_dag([["a"]], [])
    with pytest.raises(UnknownVertex):
        build_dag(["a"], [("a", ["b"])])
    with pytest.raises(UnknownVertex):
        build_dag(["a"], [], ["a"])


def test_build_designated_sink_with_successor():
    with pytest.raises(NotASink):
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


def test_single_sink_restriction_identity_and_idempotence():
    dag = pyramid(2)
    sub = single_sink_restriction(dag, "v2_1")
    assert sub == dag
    again = single_sink_restriction(sub, "v2_1")
    assert again == sub


def test_single_sink_restriction_rejects_non_sink():
    with pytest.raises(NotASinkVertex):
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


def test_bit_reversal_rejects_non_powers():
    for bad in (0, 1, 3, 6):
        with pytest.raises(NotPowerOfTwo):
            bit_reversal(bad)


def test_graph_json_round_trip(tmp_path):
    dag = carlson_savage(2, 2)
    data = dag.to_json()
    again = graph_from_json(json.loads(json.dumps(data)))
    assert again == dag
    assert again.sink_names == dag.sink_names


def test_graph_json_rejects_cycles():
    with pytest.raises(CycleDetected):
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


def test_move_table_holds_bit_and_predecessor_mask():
    # pyramid(1): sources v0_1, v0_2 (indices 0, 1), sink v1_1 (index 2)
    assert pyramid(1).toggles == ((1, 0), (2, 0), (4, 3))
    dag = carlson_savage(2, 2)
    for v, (bit, pm) in enumerate(dag.toggles):
        assert bit == 1 << v
        assert pm == sum(1 << p for p in dag.preds[v])
