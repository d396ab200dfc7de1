"""Command-line interface: round-trip I/O and exit codes.

Every file the CLI writes must load back and re-verify to the printed
metrics.  Exit codes: 0 success, 1 invalid input, 2 infeasible/too-large,
3 internal consistency violation.
"""

import contextlib
import copy
import io
import json
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from pebcert import load_certificate, load_graph, load_strategy, verify_strategy
from pebcert.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_pyramid_with_dimacs(tmp_path, capsys):
    graph = tmp_path / "pyr2.json"
    cnf = tmp_path / "pyr2.cnf"
    code, out, _ = run(capsys, "gen", "--family", "pyramid", "--height", "2",
                       "--out", str(graph), "--dimacs", str(cnf))
    assert code == 0
    dag = load_graph(graph)
    assert len(dag) == 6
    assert cnf.read_text().splitlines()[0] == "p cnf 6 7"


def test_gen_cs_single_sink(tmp_path, capsys):
    graph = tmp_path / "cs.json"
    code, _, _ = run(capsys, "gen", "--family", "cs", "--c", "2", "--r", "2",
                     "--single-sink", "1", "--out", str(graph))
    assert code == 0
    dag = load_graph(graph)
    assert len(dag) == 14
    assert dag.designated_sink_name is not None


def test_gen_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--family", "line", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == ["v1", "v2", "v3"]


def test_solve_min_space(tmp_path, capsys):
    graph = tmp_path / "line3.json"
    witness = tmp_path / "w.json"
    run(capsys, "gen", "--family", "line", "--n", "3", "--out", str(graph))
    code, out, _ = run(capsys, "solve", "--mode", "min-space", "--game", "reversible",
                       str(graph), "--witness", str(witness))
    assert code == 0
    assert "min-space: 2" in out
    strat = load_strategy(witness)
    assert verify_strategy(load_graph(graph), strat).space == 2


def test_solve_min_time(tmp_path, capsys):
    graph = tmp_path / "pyr2.json"
    witness = tmp_path / "w.json"
    run(capsys, "gen", "--family", "pyramid", "--height", "2", "--out", str(graph))
    code, out, _ = run(capsys, "solve", "--mode", "min-time", "--space", "4", str(graph),
                       "--witness", str(witness))
    assert code == 0
    assert out.splitlines() == ["min-time within space 4: 16", "witness: time 16 space 4"]
    metrics = verify_strategy(load_graph(graph), load_strategy(witness))
    assert (metrics.time, metrics.space) == (16, 4)


def test_solve_pareto_csv(tmp_path, capsys):
    graph = tmp_path / "line3.json"
    table = tmp_path / "pareto.csv"
    wdir = tmp_path / "wit"
    wdir.mkdir()
    run(capsys, "gen", "--family", "line", "--n", "3", "--out", str(graph))
    code, _, _ = run(capsys, "solve", "--mode", "pareto", "--smax", "3", str(graph),
                     "--out", str(table), "--witness-dir", str(wdir))
    assert code == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "space,time,witness_file"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [("2", "8"), ("3", "6")]
    dag = load_graph(graph)
    for r in rows:
        metrics = verify_strategy(dag, load_strategy(r[2]))
        assert metrics.time == int(r[1])


def test_cert_pipeline(tmp_path, capsys):
    graph = tmp_path / "line2.json"
    witness = tmp_path / "w.json"
    cert = tmp_path / "cert.json"
    extracted = tmp_path / "ext.json"
    run(capsys, "gen", "--family", "line", "--n", "2", "--out", str(graph))
    run(capsys, "solve", "--mode", "min-space", str(graph), "--witness", str(witness))
    code, out, _ = run(capsys, "cert", "compile", "--field", "2", str(graph),
                       str(witness), "--out", str(cert))
    assert code == 0
    assert "size: 5 degree: 2" in out
    # field independence through the --field override
    code, out, _ = run(capsys, "cert", "verify", "--field", "5", str(graph), str(cert))
    assert code == 0
    assert "valid: true size: 5 degree: 2" in out
    code, out, _ = run(capsys, "cert", "extract", str(graph), str(cert),
                       "--out", str(extracted))
    assert code == 0
    assert "time 4 space 2" in out
    strat = load_strategy(extracted)
    assert verify_strategy(load_graph(graph), strat).time == 4
    code, out, _ = run(capsys, "cert", "multilinearize", str(graph), str(cert),
                       "--out", str(tmp_path / "ml.json"))
    assert code == 0
    assert load_certificate(tmp_path / "ml.json").mode == "multilinear"


def test_cert_verify_invalid_exits_one(tmp_path, capsys):
    graph = tmp_path / "line2.json"
    run(capsys, "gen", "--family", "line", "--n", "2", "--out", str(graph))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": {"prime": 2}, "mode": "multilinear",
        "multipliers": [{"axiom": "vertex:v1", "poly": [{"coeff": "1", "vars": []}]}],
    }))
    code, out, err = run(capsys, "cert", "verify", str(graph), str(bad))
    assert code == 1
    assert "valid: false" in out


def test_cert_verify_repeated_axiom_exits_one(tmp_path, capsys):
    # keeping only the last entry would drop a term and still verify
    graph, witness, cert = (tmp_path / name for name in ("g.json", "w.json", "c.json"))
    run(capsys, "gen", "--family", "line", "--n", "2", "--out", str(graph))
    run(capsys, "solve", "--mode", "min-space", str(graph), "--witness", str(witness))
    run(capsys, "cert", "compile", str(graph), str(witness), "--out", str(cert))
    data = json.loads(cert.read_text())
    data["multipliers"].insert(0, {"axiom": "vertex:v1",
                                   "poly": [{"coeff": "1", "vars": ["zzz"]}]})
    cert.write_text(json.dumps(data))
    code, out, err = run(capsys, "cert", "verify", str(graph), str(cert))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "repeated" in err and "Traceback" not in err


def test_cert_verify_invalid_prints_residual_summary(tmp_path, capsys):
    graph = tmp_path / "line4.json"
    run(capsys, "gen", "--family", "line", "--n", "4", "--out", str(graph))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": {"prime": 3}, "mode": "multilinear",
        "multipliers": [
            {"axiom": "vertex:v1", "poly": [{"coeff": "1", "vars": ["v3"]},
                                            {"coeff": "2", "vars": ["v2", "v4"]}]},
            {"axiom": "vertex:v3", "poly": [{"coeff": "1", "vars": []},
                                            {"coeff": "1", "vars": ["v1"]}]},
        ],
    }))
    code, out, err = run(capsys, "cert", "verify", str(graph), str(bad))
    assert code == 1
    assert out == "valid: false size: 8 degree: 3\n"
    # sum - 1 has 9 monomials; only the five of lowest degree are printed
    assert err == ("residual: 9 monomials of degree 0 to 3; lowest: 2*1 + 1*x[v2] + "
                   "1*x[v3] + 1*x[v1]*x[v2] + 2*x[v1]*x[v3]\n")


@pytest.mark.parametrize("mode", ["multilinear", "standard"])
def test_cert_verify_string_vars_exits_one(tmp_path, capsys, mode):
    graph = tmp_path / "line2.json"
    run(capsys, "gen", "--family", "line", "--n", "2", "--out", str(graph))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": {"prime": 2}, "mode": mode,
        "multipliers": [{"axiom": "sink", "poly": [{"coeff": "1", "vars": "v2"}]}],
    }))
    code, _, err = run(capsys, "cert", "verify", str(graph), str(bad))
    assert code == 1
    assert "vars" in err


@pytest.mark.parametrize("field,coeff", [
    ("rationals", "1/0"), ("rationals", "1e10000000"), ({"prime": 3.0}, "1"),
])
def test_cert_verify_bad_field_or_coefficient_exits_one(tmp_path, capsys, field, coeff):
    graph = tmp_path / "line2.json"
    run(capsys, "gen", "--family", "line", "--n", "2", "--out", str(graph))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": field, "mode": "multilinear",
        "multipliers": [{"axiom": "sink", "poly": [{"coeff": coeff, "vars": []}]}],
    }))
    start = time.perf_counter()
    code, _, err = run(capsys, "cert", "verify", str(graph), str(bad))
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("lenient", [
    lambda n: f" {n}\n", lambda n: f"0_{n}", lambda n: "".join(chr(0x660 + int(d)) for d in str(n)),
])
def test_cert_verify_rejects_non_decimal_gfp_coefficient(tmp_path, capsys, lenient):
    # each form is int()'s spelling of coefficient + 5, so a lenient reader
    # over GF(5) would load the compiled certificate unchanged
    graph, witness, cert = (tmp_path / name for name in ("g.json", "w.json", "c.json"))
    run(capsys, "gen", "--family", "line", "--n", "2", "--out", str(graph))
    run(capsys, "solve", "--mode", "min-space", str(graph), "--witness", str(witness))
    run(capsys, "cert", "compile", "--field", "5", str(graph), str(witness), "--out", str(cert))
    assert run(capsys, "cert", "verify", str(graph), str(cert))[0] == 0
    data = json.loads(cert.read_text())
    for mult in data["multipliers"]:
        for term in mult["poly"]:
            term["coeff"] = lenient(int(term["coeff"]) + 5)
    cert.write_text(json.dumps(data))
    code, _, err = run(capsys, "cert", "verify", str(graph), str(cert))
    assert code == 1
    assert "invalid coefficient" in err


def test_field_beyond_exact_primality_exits_one(tmp_path, capsys):
    graph = tmp_path / "line2.json"
    run(capsys, "gen", "--family", "line", "--n", "2", "--out", str(graph))
    witness = tmp_path / "w.json"
    run(capsys, "solve", "--mode", "min-space", str(graph), "--witness", str(witness))
    code, _, err = run(capsys, "cert", "compile", "--field", str(2**89 - 1),
                       str(graph), str(witness))
    assert code == 1
    assert "too large" in err


def test_tradeoff_cs_table(tmp_path, capsys):
    code, out, _ = run(capsys, "tradeoff", "--family", "cs", "--c", "4", "--r", "1",
                       "--game", "standard")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "space,optimal_time,theorem_bound,strategy_upper_time,cert_size,cert_degree"
    for row in lines[1:]:
        space, time, bound = row.split(",")[:3]
        assert int(time) >= int(bound)


def test_tradeoff_pyramid_golden(capsys):
    # the time and certificate columns were recorded before the strategies
    # shared one mirror; the upper-time column is strat_by_depth's persistent
    # pebbling closed at its first sink visit
    code, out, _ = run(capsys, "tradeoff", "--family", "pyramid", "--height", "3")
    assert code == 0
    assert out == ("space,optimal_time,theorem_bound,strategy_upper_time,cert_size,cert_degree\n"
                   "5,34,,,35,5\n"
                   "6,28,,,29,6\n"
                   "7,26,,54,27,7\n")


def test_tradeoff_cs_golden(capsys):
    # the upper-time column is strat_carlson_savage(3, 2, 1), the one candidate
    code, out, _ = run(capsys, "tradeoff", "--family", "cs", "--c", "3", "--r", "2")
    assert code == 0
    assert out == ("space,optimal_time,theorem_bound,strategy_upper_time,cert_size,cert_degree\n"
                   "6,88,0,148,89,6\n"
                   "7,70,0,148,71,7\n"
                   "8,64,0,148,65,8\n")


def test_tradeoff_bit_reversal_golden(tmp_path, capsys):
    # the small-space and checkpoint candidates; written with --out
    table = tmp_path / "br4.csv"
    code, out, _ = run(capsys, "tradeoff", "--family", "bit-reversal", "--n", "4",
                       "--out", str(table))
    assert (code, out) == (0, f"wrote {table} (3 rows)\n")
    assert table.read_text() == (
        "space,optimal_time,theorem_bound,strategy_upper_time,cert_size,cert_degree\n"
        "5,22,,34,23,5\n"
        "6,20,,34,21,6\n"
        "7,18,,34,19,7\n")


def test_tradeoff_line_persistent_golden(capsys):
    # strat_line_persistent is the one candidate; no certificate columns
    code, out, _ = run(capsys, "tradeoff", "--family", "line", "--n", "5",
                       "--flavor", "persistent")
    assert code == 0
    assert out == ("space,optimal_time,theorem_bound,strategy_upper_time,cert_size,cert_degree\n"
                   "4,11,,19,,\n"
                   "5,9,,19,,\n"
                   "6,9,,19,,\n")


def test_solve_pareto_to_stdout(tmp_path, capsys):
    graph = tmp_path / "line3.json"
    run(capsys, "gen", "--family", "line", "--n", "3", "--out", str(graph))
    code, out, _ = run(capsys, "solve", "--mode", "pareto", "--smax", "3", str(graph))
    assert (code, out) == (0, "space,time,witness_file\n2,8,\n3,6,\n")


def test_tradeoff_reversible_cert_identity(tmp_path, capsys):
    code, out, _ = run(capsys, "tradeoff", "--family", "line", "--n", "5",
                       "--game", "reversible")
    assert code == 0
    for row in out.strip().splitlines()[1:]:
        cols = row.split(",")
        assert int(cols[4]) == int(cols[1]) + 1  # cert size = optimal time + 1


def test_exit_code_usage_error(capsys):
    assert run(capsys, "gen", "--family", "nope")[0] == 1
    assert run(capsys, "solve", "--mode", "min-time", "missing.json")[0] == 1
    assert run(capsys, "gen", "--family", "pyramid")[0] == 1  # missing --height


def test_exit_code_invalid_graph(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a", "b"],
                               "edges": [["a", "b"], ["b", "a"]], "sink": None}))
    code, _, err = run(capsys, "solve", "--mode", "min-space", str(bad))
    assert code == 1


@pytest.mark.parametrize("graph", [
    {"vertices": "az", "edges": ["az"], "sink": "z"},
    {"vertices": ["a", "z"], "edges": ["az"], "sink": "z"},
    {"vertices": ["a", "z"], "edges": [["a", "z", "z"]], "sink": "z"},
])
def test_exit_code_graph_strings_not_read_letter_by_letter(tmp_path, capsys, graph):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(graph))
    code, out, err = run(capsys, "solve", "--mode", "min-space", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_exit_code_unhashable_vertex(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [["a"]], "edges": [], "sink": None}))
    code, _, err = run(capsys, "solve", "--mode", "min-space", str(bad))
    assert code == 1
    assert "not hashable" in err


def test_exit_code_non_string_names(tmp_path, capsys):
    graph, strategy, cert = (tmp_path / name for name in ("g.json", "s.json", "c.json"))
    run(capsys, "gen", "--family", "line", "--n", "2", "--out", str(graph))
    strategy.write_text(json.dumps({"game": "reversible", "flavor": "visiting",
                                    "moves": [{"op": "place", "v": ["a"]}]}))
    code, _, err = run(capsys, "cert", "compile", str(graph), str(strategy))
    assert code == 1 and err.startswith("error: ") and '"v"' in err
    graph.write_text(json.dumps({"vertices": [1, 2], "edges": [[1, 2]], "sink": 2}))
    for mode in ("multilinear", "standard"):
        cert.write_text(json.dumps({"field": {"prime": 2}, "mode": mode, "multipliers": [
            {"axiom": "sink", "poly": [{"coeff": "1", "vars": ["a"]}]}]}))
        code, _, err = run(capsys, "cert", "verify", str(graph), str(cert))
        assert code == 1 and err.startswith("error: ") and "not a string" in err
    graph.write_text(json.dumps({"vertices": ["a"], "edges": [], "sink": "a"}))
    cert.write_text(json.dumps({"field": {"prime": 2}, "mode": "standard", "multipliers": [],
                                "boolean_multipliers": [{"var": 1, "poly": [
                                    {"coeff": "1", "vars": ["a"]}]}]}))
    code, _, err = run(capsys, "cert", "verify", str(graph), str(cert))
    assert code == 1 and err.startswith("error: ") and '"var"' in err


def test_exit_code_infeasible(tmp_path, capsys):
    graph = tmp_path / "line2.json"
    run(capsys, "gen", "--family", "line", "--n", "2", "--out", str(graph))
    code, _, err = run(capsys, "solve", "--mode", "min-time", "--space", "1", str(graph))
    assert code == 2
    code, _, err = run(capsys, "solve", "--mode", "min-space", "--state-budget", "2",
                       str(graph))
    assert code == 2
    assert "state-budget" in err


def test_state_budget_only_on_searching_commands(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--help"])
    assert "--state-budget" not in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["tradeoff", "--help"])
    assert "--state-budget" in capsys.readouterr().out
    code, _, err = run(capsys, "gen", "--family", "line", "--n", "2", "--state-budget", "5")
    assert code == 1
    assert "--state-budget" in err


def test_search_on_more_than_64_vertices_exits_two(tmp_path, capsys):
    graph = tmp_path / "line65.json"
    run(capsys, "gen", "--family", "line", "--n", "65", "--out", str(graph))
    for mode in (["--mode", "min-space"], ["--mode", "min-time", "--space", "3"]):
        code, _, err = run(capsys, "solve", *mode, str(graph))
        assert code == 2
        assert "65 vertices" in err
        assert "state-budget" not in err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_state_budget_below_one_exits_one(tmp_path, capsys, budget):
    # a budget below one configuration is invalid input, not an exceeded budget
    graph = tmp_path / "line3.json"
    run(capsys, "gen", "--family", "line", "--n", "3", "--out", str(graph))
    for argv in (["solve", "--mode", "min-space", str(graph)],
                 ["tradeoff", "--family", "line", "--n", "3"]):
        code, out, err = run(capsys, *argv, "--state-budget", budget)
        assert (code, out) == (1, "")
        assert err == f"error: state budget must be at least 1, got {budget}\n"


def test_state_budget_report(tmp_path, capsys):
    graph = tmp_path / "line2.json"
    run(capsys, "gen", "--family", "line", "--n", "2", "--out", str(graph))
    code, _, err = run(capsys, "solve", "--mode", "min-time", "--space", "2",
                       "--state-budget", "2", str(graph))
    assert code == 2
    assert "3 configurations discovered, layers 0..1 complete" in err
    assert "raise --state-budget" in err


# -- exit-code contract under fuzzed input -------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["", "a", "z", "sink", "vertex:a", "place", "1"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)
_NAMES = st.sampled_from(["a", "z", 1]) | _JSON


def _nodes(doc, path=()):
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


@st.composite
def _mutated(draw, docs):
    """A near-valid document with at most one node replaced by a random JSON value."""
    doc = copy.deepcopy(draw(docs))  # sampled values are shared between examples
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_nodes(doc))))
        if not path:
            return draw(_JSON)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(_JSON)
    return doc


_GRAPHS = _mutated(st.fixed_dictionaries({
    "vertices": st.lists(_NAMES, max_size=3),
    "edges": st.lists(st.lists(_NAMES, min_size=2, max_size=2), max_size=2),
    "sink": _NAMES,
}))
_STRATEGIES = _mutated(st.fixed_dictionaries({
    "game": st.sampled_from(["reversible", "standard"]),
    "flavor": st.sampled_from(["visiting", "persistent"]),
    "moves": st.lists(st.fixed_dictionaries({"op": st.sampled_from(["place", "remove"]),
                                             "v": _NAMES}), max_size=4),
}))
_POLYS = st.lists(st.fixed_dictionaries({"coeff": st.sampled_from(["1", "2", "-1/2"]),
                                         "vars": st.lists(_NAMES, max_size=2)}), max_size=2)
_CERTS = _mutated(st.fixed_dictionaries({
    "field": st.sampled_from([{"prime": 2}, {"prime": 3}, "rationals"]),
    "mode": st.sampled_from(["multilinear", "standard"]),
    "multipliers": st.lists(st.fixed_dictionaries({
        "axiom": st.sampled_from(["sink", "vertex:a", "vertex:z"]), "poly": _POLYS}), max_size=3),
}, optional={"boolean_multipliers": st.lists(st.fixed_dictionaries({
    "var": _NAMES, "poly": _POLYS}), max_size=1)}))


# upper-case words stand for the written files
_COMMANDS = st.sampled_from([("solve", "--mode", "min-space", "GRAPH"),
                             ("cert", "compile", "GRAPH", "STRATEGY"),
                             ("cert", "verify", "GRAPH", "CERT"),
                             ("cert", "extract", "GRAPH", "CERT")])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(argv=_COMMANDS, graph=_GRAPHS, strategy=_STRATEGIES, cert=_CERTS)
@example(argv=("cert", "compile", "GRAPH", "STRATEGY"),
         graph={"vertices": ["a", "z"], "edges": [["a", "z"]], "sink": "z"},
         strategy={"game": "reversible", "moves": [{"op": "place", "v": ["a"]}]}, cert={})
@example(argv=("cert", "verify", "GRAPH", "CERT"),
         graph={"vertices": [1, 2], "edges": [[1, 2]], "sink": 2}, strategy={},
         cert={"field": {"prime": 2}, "mode": "multilinear",
               "multipliers": [{"axiom": "sink", "poly": [{"coeff": "1", "vars": ["a"]}]}]})
@example(argv=("cert", "verify", "GRAPH", "CERT"),
         graph={"vertices": ["a"], "edges": [], "sink": "a"}, strategy={},
         cert={"field": {"prime": 2}, "mode": "standard", "multipliers": [],
               "boolean_multipliers": [{"var": 1, "poly": [{"coeff": "1", "vars": ["a"]}]}]})
@example(argv=("solve", "--mode", "min-space", "GRAPH"),
         graph={"vertices": "az", "edges": ["az"], "sink": "z"}, strategy={}, cert={})
def test_cli_exit_codes_on_fuzzed_json(tmp_path_factory, argv, graph, strategy, cert):
    # random and mutated graph, strategy and certificate files end in a
    # documented exit code, never in an escaping exception
    folder = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, doc in (("GRAPH", graph), ("STRATEGY", strategy), ("CERT", cert)):
        paths[name] = str(folder / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([paths.get(a, a) for a in argv]) in (0, 1, 2, 3)
