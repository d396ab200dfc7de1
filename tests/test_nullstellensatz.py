"""Pebbling formulas, certificate verification, compiler, extractor.

Core claims:
    - formulas match the per-vertex axiom shape; clause and polynomial views
      agree under the standard CNF-to-polynomial translation
    - verify reports validity, pre-cancellation size, and pairwise degree
    - compiled certificates of search witnesses verify with size = time + 1
      and degree = space in every supported field
    - configuration-graph edges come only from sink-free multiplier
      monomials; signed weights satisfy the empty-is-1 / rest-is-0 law
    - extraction inverts compilation with identical metrics
    - multilinearization never grows size or degree and rejects invalid input
    - Certificate rejects a malformed shape; verify alone judges validity,
      and multilinearize and extract judge the certificate they are given
    - extract and multilinearize raise InternalConsistencyError, and the CLI
      exits 3, when a configuration graph or a clamped copy is broken
    - compiled, loaded and multilinearized certificates hold one object per
      distinct name and per distinct monomial, a written certificate one
      "vars" list per distinct monomial, and extracted strategies one Move
      per distinct move; the reader gives the per-term reader's messages,
      and config_graph builds the per-term graph, whose names and masks
      are the same under every hash seed
    - multilinear verify, which adds on configuration masks, reports what
      the product rule on name sets reports, on oracle refutations and on
      changed copies of them
    - a saved certificate is byte for byte json.dumps(certificate_to_json,
      indent=2) plus a newline, and that document lists each polynomial's
      terms by degree, then by sorted names or (name, exponent) pairs
"""

import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pebcert import (
    Certificate,
    ConfigGraph,
    Move,
    Strategy,
    bit_reversal,
    build_dag,
    carlson_savage,
    certificate_from_json,
    certificate_to_json,
    check_weights,
    compile_strategy,
    config_graph,
    extract,
    line,
    load_certificate,
    min_space,
    min_time_within_space,
    multilinearize,
    nullstellensatz,
    pebbling_formula,
    pyramid,
    save_certificate,
    single_sink_restriction,
    strat_bit_reversal_small_space,
    strat_by_depth,
    strat_carlson_savage,
    verify,
    verify_strategy,
)
from pebcert.algebra import ExpPoly, Field, MultilinearPoly
from pebcert.cli import main
from pebcert.errors import (AlgebraError, CertificateError, GraphError, IllegalMoveAt,
                            InternalConsistencyError, PebblingError)
from pebcert.graphs import mask_names
from pebcert.pebbling import REVERSIBLE, _steps, replay, visiting

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
Q = Field.rationals()
ALL_FIELDS = (F2, F3, F5, Q)


def _single_vertex():
    return build_dag(["z"], [], "z")


def _ml(field, terms):
    return MultilinearPoly(field, terms)


def _moves(*pairs):
    return tuple(Move(op, v) for op, v in pairs)


def _rv(*pairs):
    return Strategy("reversible", "visiting", _moves(*pairs))


# -- formulas -----------------------------------------------------------------

def test_formula_single_vertex():
    f = pebbling_formula(_single_vertex())
    assert f.axiom_poly("vertex:z", Q) == _ml(Q, {frozenset(): 1, frozenset({"z"}): -1})
    assert f.axiom_poly("sink", Q) == MultilinearPoly.monomial(Q, ["z"])


def test_formula_pyramid_axioms():
    f = pebbling_formula(pyramid(2))
    # A_u = x_p x_q (1 - x_u) expanded, with p,q,u = v0_1, v0_2, v1_1
    assert f.axiom_poly("vertex:v1_1", Q) == _ml(Q, {
        frozenset({"v0_1", "v0_2"}): 1,
        frozenset({"v0_1", "v0_2", "v1_1"}): -1,
    })
    assert f.axiom_poly("vertex:v0_1", Q) == _ml(Q, {frozenset(): 1, frozenset({"v0_1"}): -1})
    assert f.axiom_poly("vertex:v0_1", Q).num_monomials() == 2
    assert f.axiom_poly("sink", Q).num_monomials() == 1


def test_formula_clause_view_matches_figure():
    f = pebbling_formula(pyramid(2))
    assert f.clauses == (
        (1,), (2,), (3,),
        (-1, -2, 4), (-2, -3, 5), (-4, -5, 6),
        (-6,),
    )


def test_clause_and_polynomial_views_agree():
    # translate each clause with p(C) = prod (1-x) over positives * prod y over
    # negated variables and compare against the stored axiom, which is the
    # DAG's own move-table entry; pyramid(2)'s predecessors are adjacent in
    # topological order, the other DAGs' need not be
    from conftest import random_single_sink_dag
    cs = carlson_savage(2, 2)
    dags = [pyramid(2), bit_reversal(4), single_sink_restriction(cs, cs.sink_names[0])]
    dags += [random_single_sink_dag(random.Random(seed), max_n=7) for seed in range(10)]
    for dag in dags:
        f = pebbling_formula(dag)
        assert f.axiom("sink") == (0, 1 << dag.designated_sink)
        for v, name in enumerate(dag.names):
            assert f.axiom(f"vertex:{name}") is dag.toggles[v]
            clause = f.clauses[v]
            poly = MultilinearPoly.one(Q)
            for lit in clause:
                var = dag.names[abs(lit) - 1]
                if lit > 0:
                    poly = poly * (MultilinearPoly.one(Q) - MultilinearPoly.monomial(Q, [var]))
                else:
                    poly = poly * MultilinearPoly.monomial(Q, [var])
            assert poly == f.axiom_poly(f"vertex:{name}", Q)
        sink_clause = f.clauses[-1]
        var = dag.names[abs(sink_clause[0]) - 1]
        assert MultilinearPoly.monomial(Q, [var]) == f.axiom_poly("sink", Q)


def test_formula_rejects_multi_sink():
    with pytest.raises(GraphError, match="pebbling formula needs a unique designated sink"):
        pebbling_formula(carlson_savage(2, 1))


def test_compile_rejects_multi_sink():
    with pytest.raises(GraphError, match="^certificate compilation needs a unique designated sink$"):
        compile_strategy(carlson_savage(2, 1), Strategy("reversible", "visiting", ()), Q)


def test_dimacs_smoke():
    text = pebbling_formula(line(2)).to_dimacs()
    assert text == "p cnf 2 3\n1 0\n-1 2 0\n-2 0\n"


# -- verify -------------------------------------------------------------------

def test_verify_single_vertex_unit_multipliers():
    f = pebbling_formula(_single_vertex())
    cert = Certificate(F2, "multilinear", {
        "vertex:z": MultilinearPoly.one(F2),
        "sink": MultilinearPoly.one(F2),
    })
    report = verify(f, cert)
    assert report.valid
    assert report.size == 3  # 1*2 + 1*1
    assert report.degree == 1


def test_verify_dropped_sink_axiom():
    f = pebbling_formula(_single_vertex())
    cert = Certificate(F2, "multilinear", {"vertex:z": MultilinearPoly.one(F2)})
    report = verify(f, cert)
    assert not report.valid
    assert report.failure_residual == MultilinearPoly.monomial(F2, ["z"], -1)


def test_verify_line_two_hand_certificate():
    f = pebbling_formula(line(2))
    cert = Certificate(F3, "multilinear", {
        "vertex:v1": MultilinearPoly.one(F3),
        "vertex:v2": MultilinearPoly.one(F3),
        "sink": MultilinearPoly.monomial(F3, ["v1"]),
    })
    report = verify(f, cert)
    assert (report.valid, report.size, report.degree) == (True, 5, 2)


def test_verify_unknown_axiom():
    f = pebbling_formula(line(2))
    cert = Certificate(F2, "multilinear", {"vertex:bogus": MultilinearPoly.one(F2)})
    with pytest.raises(CertificateError, match="unknown axiom 'vertex:bogus'"):
        verify(f, cert)


def test_unhashable_axiom_is_unknown():
    with pytest.raises(CertificateError, match=r"^unknown axiom \['sink'\]$"):
        pebbling_formula(line(2)).axiom_poly(["sink"], F2)


def test_verify_standard_mode_with_boolean_multiplier():
    # Q_z = 1, Q_sink = x_z, s_z = -1:  (1-x) + x*x - (x^2-x) = 1
    dag = _single_vertex()
    f = pebbling_formula(dag)
    cert = Certificate(Q, "standard", {
        "vertex:z": ExpPoly.one(Q),
        "sink": ExpPoly.monomial(Q, ("z",)),
    }, {"z": ExpPoly.monomial(Q, (), -1)})
    report = verify(f, cert)
    assert report.valid
    assert report.size == 5  # 1*2 + 1*1 + 2*1
    assert report.degree == 2  # deg(x_z * x_z) and deg(s_z) + 2


@pytest.mark.parametrize("mode, multipliers, booleans, message", [
    # config_graph and check_weights would read either without a complaint
    ("multilinear", {"sink": ExpPoly.one(Q)}, {}, "not a multilinear polynomial"),
    ("multilinear", {"sink": MultilinearPoly.one(F3)}, {}, "over Field(GF(3))"),
    ("standard", {"sink": ExpPoly.one(F3)}, {}, "over Field(GF(3))"),
    ("standard", {}, {"z": "1"}, "not a standard polynomial"),
    ("standard", {}, {"z": ExpPoly.one(F5)}, "over Field(GF(5))"),
    ("standard", {}, {"z": MultilinearPoly.one(F2)}, "over Field(GF(2))"),
    ("standard", {"vertex:z": 1}, {}, "not a standard polynomial"),
    ("multilinear", {"vertex:z": None}, {}, "not a multilinear polynomial"),
])
def test_certificate_rejects_bad_shape(mode, multipliers, booleans, message):
    with pytest.raises(CertificateError, match=re.escape(message)):
        Certificate(Q, mode, multipliers, booleans)


def test_standard_mode_reads_multilinear_multipliers_with_exponent_one():
    # standard certificates over MultilinearPoly multipliers, as the
    # benchmark builds them, verify; so do MultilinearPoly Boolean multipliers
    dag, cert = _line2_cert(F5)
    f = pebbling_formula(dag)
    report = verify(f, Certificate(F5, "standard", cert.multipliers))
    assert (report.valid, report.size, report.degree) == (True, 5, 2)
    one, x = MultilinearPoly.one(Q), MultilinearPoly.monomial(Q, ["z"])
    f = pebbling_formula(_single_vertex())
    for kind in (lambda p: p, lambda p: ExpPoly(Q, p.terms)):
        cert = Certificate(Q, "standard", {"vertex:z": kind(one), "sink": kind(x)},
                           {"z": kind(-one)})
        report = verify(f, cert)
        assert (report.valid, report.size, report.degree) == (True, 5, 2)


# -- compile ------------------------------------------------------------------

def test_compile_single_vertex():
    dag = _single_vertex()
    cert = compile_strategy(dag, _rv(("place", "z"), ("remove", "z")), F2)
    assert cert.multipliers["vertex:z"] == MultilinearPoly.one(F2)
    assert cert.multipliers["sink"] == MultilinearPoly.one(F2)
    report = verify(pebbling_formula(dag), cert)
    assert (report.valid, report.size, report.degree) == (True, 3, 1)


def test_compile_line_two():
    dag = line(2)
    strat = _rv(("place", "v1"), ("place", "v2"), ("remove", "v2"), ("remove", "v1"))
    cert = compile_strategy(dag, strat, F5)
    assert cert.multipliers["vertex:v1"] == MultilinearPoly.one(F5)
    assert cert.multipliers["vertex:v2"] == MultilinearPoly.one(F5)
    assert cert.multipliers["sink"] == MultilinearPoly.monomial(F5, ["v1"])
    report = verify(pebbling_formula(dag), cert)
    assert (report.valid, report.size, report.degree) == (True, 5, 2)


def test_compile_pyramid_one():
    dag = pyramid(1)
    strat = _rv(("place", "v0_1"), ("place", "v0_2"), ("place", "v1_1"),
                ("remove", "v1_1"), ("remove", "v0_2"), ("remove", "v0_1"))
    cert = compile_strategy(dag, strat, F2)
    report = verify(pebbling_formula(dag), cert)
    assert (report.valid, report.size, report.degree) == (True, 7, 3)


def test_compile_warns_past_palindrome():
    # a strategy that runs past its palindromic closure compiles its prefix
    # up to the first sink visit, and no longer warns: the suite turns any
    # warning into an error
    dag = _single_vertex()
    strat = _rv(("place", "z"), ("remove", "z"), ("place", "z"), ("remove", "z"))
    report = verify(pebbling_formula(dag), compile_strategy(dag, strat, F2))
    assert (report.valid, report.size, report.degree) == (True, 3, 1)


def test_compile_rejects_bad_input():
    dag = line(2)
    with pytest.raises(CertificateError, match="only reversible strategies compile"):
        compile_strategy(dag, Strategy("standard", None, _moves(("place", "v1"))), F2)
    with pytest.raises(IllegalMoveAt, match="v2 has unpebbled predecessors") as info:
        compile_strategy(dag, _rv(("place", "v2"),), F2)
    assert info.value.step == 1
    with pytest.raises(CertificateError, match="strategy never pebbles the sink"):
        compile_strategy(dag, _rv(("place", "v1"), ("remove", "v1")), F2)
    # a reversible strategy compiles only with a flavor verify_strategy accepts
    legal = _moves(("place", "v1"), ("place", "v2"), ("remove", "v2"), ("remove", "v1"))
    for flavor, shown in (("bogus", "'bogus'"), (None, "None")):
        with pytest.raises(PebblingError, match=f"needs a flavor, got {shown}$"):
            compile_strategy(dag, Strategy("reversible", flavor, legal), F2)


def test_compile_unhashable_vertex_is_unknown():
    with pytest.raises(IllegalMoveAt) as info:
        compile_strategy(line(2), _rv(("place", ["v1"]),), F2)
    assert (info.value.step, info.value.cause) == (1, "unknown vertex ['v1']")


def test_compile_field_independent():
    dag = pyramid(1)
    strat = _rv(("place", "v0_1"), ("place", "v0_2"), ("place", "v1_1"),
                ("remove", "v1_1"), ("remove", "v0_2"), ("remove", "v0_1"))
    reports = [verify(pebbling_formula(dag), compile_strategy(dag, strat, f))
               for f in ALL_FIELDS]
    assert all(r.valid for r in reports)
    assert len({(r.size, r.degree) for r in reports}) == 1


# -- configuration graph & weights ---------------------------------------------

def _line2_cert(field):
    dag = line(2)
    strat = _rv(("place", "v1"), ("place", "v2"), ("remove", "v2"), ("remove", "v1"))
    return dag, compile_strategy(dag, strat, field)


def _weight(cg, config):
    """Signed weight of a configuration given by its names, read from
    `weights()` at the mask built from `cg.names`.  A name outside the table
    is on no endpoint, so such a configuration weighs zero."""
    if not set(config) <= set(cg.names):
        return cg.field.zero
    mask = sum(1 << cg.names.index(name) for name in config)
    return cg.weights().get(mask, cg.field.zero)


def test_config_graph_line_two():
    dag, cert = _line2_cert(F2)
    cg = config_graph(dag, cert)
    pairs = sorted((sorted(mask_names(cg.names, lo)), sorted(mask_names(cg.names, hi)))
                   for lo, hi, _ in cg.edges)
    assert pairs == [([], ["v1"]), (["v1"], ["v1", "v2"])]


def test_config_graph_filters_self_monomials():
    # a monomial of Q_v containing x_v contributes no edge
    dag = line(2)
    cert = Certificate(F2, "multilinear", {
        "vertex:v1": MultilinearPoly.monomial(F2, ["v1"]),
    })
    assert config_graph(dag, cert).edges == ()


def test_config_graph_single_vertex():
    dag = _single_vertex()
    cert = compile_strategy(dag, _rv(("place", "z"), ("remove", "z")), F3)
    cg = config_graph(dag, cert)
    assert [(sorted(mask_names(cg.names, lo)), sorted(mask_names(cg.names, hi)))
            for lo, hi, _ in cg.edges] == [([], ["z"])]


def test_config_graph_names_do_not_depend_on_the_hash_seed():
    # u and w sit outside the DAG in one monomial, a frozenset whose order
    # changes with the hash seed; they take their bits by name
    probe = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent.parent / 'src')!r})\n"
             "from pebcert import Certificate, config_graph, line\n"
             "from pebcert.algebra import Field, MultilinearPoly\n"
             "F = Field.prime(3)\n"
             "cert = Certificate(F, 'multilinear', "
             "{'vertex:v1': MultilinearPoly.monomial(F, {'u', 'w'})})\n"
             "cg = config_graph(line(2), cert)\n"
             "print(repr((cg.names, [(lo, hi) for lo, hi, _ in cg.edges])))\n")
    seen = {}
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        seen[seed] = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                    text=True, check=True, env=env).stdout.strip()
    # {} -> {v1} under x_u x_w: lo = u + w, hi = lo + v1
    assert seen == dict.fromkeys(range(4), "(('v1', 'v2', 'u', 'w'), [(12, 13)])")


@pytest.mark.parametrize("axiom_id", ["vertex:bogus", "bogus"])
def test_config_graph_unknown_axiom(axiom_id):
    # the same lookup as verify: an id without a colon is no different
    dag = line(2)
    cert = Certificate(F2, "multilinear", {axiom_id: MultilinearPoly.one(F2)})
    with pytest.raises(CertificateError, match=f"unknown axiom '{axiom_id}'"):
        verify(pebbling_formula(dag), cert)
    with pytest.raises(CertificateError, match=f"unknown axiom '{axiom_id}'"):
        config_graph(dag, cert)


def test_config_graph_needs_unique_sink():
    # a designated sink is not enough: the formula needs it to be the only sink
    dag = build_dag(["a", "b", "z"], [("a", "z")], "z")
    cert = Certificate(F2, "multilinear", {"sink": MultilinearPoly.one(F2)})
    with pytest.raises(GraphError, match="pebbling formula needs a unique designated sink"):
        config_graph(dag, cert)


def test_config_graph_needs_multilinear():
    dag = _single_vertex()
    cert = Certificate(Q, "standard", {"vertex:z": ExpPoly.one(Q)})
    with pytest.raises(CertificateError, match="need a multilinear certificate"):
        config_graph(dag, cert)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_check_weights_line_two(field):
    dag, cert = _line2_cert(field)
    cg = config_graph(dag, cert)
    report = check_weights(cg)
    assert report.ok
    assert report.empty_weight == field.one
    # {v1} sits between two +1 edges; signed sum cancels in every field
    assert _weight(cg, {"v1"}) == field.zero
    # a name that no multiplier holds is outside the table and weighs zero
    assert "elsewhere" not in cg.names
    assert _weight(cg, {"elsewhere"}) == field.zero


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_weights_drop_cancelled_and_zero_weights(field):
    # lo and hi cancel across the two edges; a zero-weight edge adds nothing
    one = field.one
    cg = ConfigGraph(("a", "b"), 1, field, [(0, 1, one), (0, 1, -one), (1, 3, field.zero)])
    assert cg.weights() == {}
    assert check_weights(cg).violations == ((frozenset(), field.zero),)


def test_check_weights_flags_violations():
    dag = line(2)
    cert = Certificate(F3, "multilinear", {
        "vertex:v2": MultilinearPoly.one(F3),  # not a valid refutation
    })
    report = check_weights(config_graph(dag, cert))
    assert not report.ok
    assert report.violations


# -- extract & multilinearize ---------------------------------------------------

def test_extract_line_two():
    dag, cert = _line2_cert(F2)
    strat = extract(dag, cert)
    metrics = verify_strategy(dag, strat)
    assert (metrics.time, metrics.space) == (4, 2)
    assert [(m.op, m.vertex) for m in strat.moves] == [
        ("place", "v1"), ("place", "v2"), ("remove", "v2"), ("remove", "v1")]


def test_extract_single_vertex():
    dag = _single_vertex()
    cert = compile_strategy(dag, _rv(("place", "z"), ("remove", "z")), Q)
    strat = extract(dag, cert)
    assert [(m.op, m.vertex) for m in strat.moves] == [("place", "z"), ("remove", "z")]


@pytest.mark.parametrize("field", [F3, Q])
def test_extract_breaks_ties_by_names(field):
    # the average of two compiled certificates is valid and its configuration
    # graph has two shortest paths; names order a before b, topological
    # order (and masks) b before a
    dag = build_dag(["b", "a", "z"], [("b", "z"), ("a", "z")], "z")
    certs = [compile_strategy(dag, _rv(("place", x), ("place", y), ("place", "z"),
                                       ("remove", "z"), ("remove", y), ("remove", x)), field)
             for x, y in (("b", "a"), ("a", "b"))]
    half = MultilinearPoly.monomial(field, [], Fraction(1, 2) if field.p is None else 2)
    multipliers = {a: (certs[0].multipliers[a] + certs[1].multipliers[a]) * half
                   for a in certs[0].multipliers}
    cert = Certificate(field, "multilinear", multipliers)
    assert verify(pebbling_formula(dag), cert).valid
    assert [(m.op, m.vertex) for m in extract(dag, cert).moves] == [
        ("place", "a"), ("place", "b"), ("place", "z"),
        ("remove", "z"), ("remove", "b"), ("remove", "a")]


# Reversible search witnesses pinned in tests/golden_witnesses.json.
GOLDEN = json.loads(Path(__file__).with_name("golden_witnesses.json").read_text())
GOLDEN_GRAPHS = {
    "pyramid(3)": lambda: pyramid(3),
    "line(8)": lambda: line(8),
    "cs(3,2)": lambda: single_sink_restriction(carlson_savage(3, 2), "spine1/sec1/v6"),
}


@pytest.mark.parametrize("pair", sorted(p for p in GOLDEN if "/reversible/" in p))
def test_extract_golden_witnesses(pair):
    # extraction gives back the witness up to its first sink visit, then the
    # inverse moves of that prefix in reverse order, in every field
    graph, _, flavor = pair.split("/")
    dag = GOLDEN_GRAPHS[graph]()
    ms = GOLDEN[pair]["min_space"]
    for s in (ms, ms + 1):
        text = GOLDEN[pair][str(s)]["moves"].split()
        moves = [("place" if t[0] == "+" else "remove", t[1:]) for t in text]
        first = next(i for i, (_, v) in enumerate(moves) if v == dag.designated_sink_name)
        prefix = moves[:first + 1]
        want = prefix + [("remove" if op == "place" else "place", v)
                         for op, v in reversed(prefix)]
        witness = Strategy("reversible", flavor, _moves(*moves))
        for field in (F2, F3, Q):
            got = extract(dag, compile_strategy(dag, witness, field))
            assert [(m.op, m.vertex) for m in got.moves] == want


# check_weights and extract on large compiled certificates, pinned in
# tests/golden_certificates.json before configurations became masks.
GOLDEN_CERTS = json.loads(Path(__file__).with_name("golden_certificates.json").read_text())
GOLDEN_CERT_CASES = {
    "cs(3,3,1)": lambda: (single_sink_restriction(carlson_savage(3, 3), "spine1/sec2/v6"),
                          strat_carlson_savage(3, 3, 1)),
    "br_small(16)": lambda: (bit_reversal(16), strat_bit_reversal_small_space(16)),
}
GOLDEN_CERT_FIELDS = {"GF(2)": F2, "GF(3)": F3, "Q": Q}


def _one_coefficient_perturbed(cert):
    """cert with c -> c + 1 on the largest monomial of the middle vertex axiom."""
    f = cert.field
    axiom_id = sorted(a for a in cert.multipliers if a != "sink")[len(cert.multipliers) // 2]
    terms = dict(cert.multipliers[axiom_id].terms)
    mono = max(terms, key=lambda m: (len(m), sorted(m)))
    f.accumulate(terms, mono, f.one)
    multipliers = dict(cert.multipliers)
    multipliers[axiom_id] = MultilinearPoly(f, terms)
    return Certificate(f, "multilinear", multipliers)


def _weights_record(dag, cert):
    report = check_weights(config_graph(dag, cert))
    return {"ok": report.ok, "empty": str(report.empty_weight),
            "violations": [[sorted(c), str(w)] for c, w in report.violations]}


def _golden_cert_record(instance):
    """Extracted moves per field, and check_weights of the compiled and of the
    one-coefficient-perturbed certificate, in the golden file's layout."""
    dag, strategy = GOLDEN_CERT_CASES[instance]()
    moves, fields = {}, {}
    for name, field in GOLDEN_CERT_FIELDS.items():
        cert = compile_strategy(dag, strategy, field)
        moves[name] = " ".join(("+" if m.op == "place" else "-") + m.vertex
                               for m in extract(dag, cert).moves)
        fields[name] = {"weights": _weights_record(dag, cert),
                        "perturbed": _weights_record(dag, _one_coefficient_perturbed(cert))}
    assert len(set(moves.values())) == 1  # the extraction does not depend on the field
    return {"moves": moves["GF(2)"], "fields": fields}


@pytest.mark.parametrize("instance", sorted(GOLDEN_CERT_CASES))
def test_golden_certificates(instance):
    assert _golden_cert_record(instance) == GOLDEN_CERTS[instance]


def test_extract_rejects_invalid():
    dag = _single_vertex()
    cert = Certificate(F2, "multilinear", {"vertex:z": MultilinearPoly.one(F2)})
    with pytest.raises(CertificateError, match="certificate does not verify; residual: "):
        extract(dag, cert)


def test_extract_of_compiled_optimum_reproduces_metrics():
    dag = pyramid(2)
    for s in (4, 5):
        t, witness = min_time_within_space(dag, "reversible", "visiting", s)
        w = verify_strategy(dag, witness)
        cert = compile_strategy(dag, witness, F3)
        report = verify(pebbling_formula(dag), cert)
        out = verify_strategy(dag, extract(dag, cert))
        assert out.time == t == report.size - 1
        assert out.space == w.space == report.degree


def test_multilinearize_standard_cert():
    dag = _single_vertex()
    f = pebbling_formula(dag)
    std = Certificate(Q, "standard", {
        "vertex:z": ExpPoly.one(Q),
        "sink": ExpPoly.monomial(Q, ("z",)),
    }, {"z": ExpPoly.monomial(Q, (), -1)})
    before = verify(f, std)
    out = multilinearize(f, std)
    after = verify(f, out)
    assert out.mode == "multilinear" and not out.boolean_multipliers
    assert after.valid
    assert after.size <= before.size
    assert after.degree <= before.degree


def test_extract_standard_mode_matches_multilinearized():
    # a compiled witness restated in standard mode: Q_sink * x_z squares x_z,
    # and the Boolean multiplier s_z = -Q_sink cancels the excess
    dag = pyramid(2)
    f = pebbling_formula(dag)
    witness = min_space(dag, "reversible", "visiting")[1]
    cert = compile_strategy(dag, witness, Q)
    z = dag.designated_sink_name
    q_sink = ExpPoly(Q, cert.multipliers["sink"].terms)
    multipliers = {a: ExpPoly(Q, q.terms) for a, q in cert.multipliers.items()}
    multipliers["sink"] = q_sink * ExpPoly.monomial(Q, (z,))
    std = Certificate(Q, "standard", multipliers, {z: -q_sink})
    assert verify(f, std).valid
    moves = extract(dag, std).moves
    assert moves == extract(dag, multilinearize(f, std)).moves == witness.moves


def test_multilinearize_idempotent():
    dag, cert = _line2_cert(F5)
    f = pebbling_formula(dag)
    out = multilinearize(f, cert)
    assert out.multipliers == cert.multipliers


def test_multilinearize_rejects_invalid():
    dag = _single_vertex()
    f = pebbling_formula(dag)
    bad = Certificate(Q, "multilinear", {"vertex:z": MultilinearPoly.one(Q)})
    with pytest.raises(CertificateError, match="certificate does not verify; residual: "):
        multilinearize(f, bad)


def _no_boolean_multiplier():
    # (1 - x_z) + x_z * x_z: the x_z^2 - x_z left over has no Boolean multiplier
    return Certificate(Q, "standard", {"vertex:z": ExpPoly.one(Q),
                                       "sink": ExpPoly.monomial(Q, ("z",))})


def test_readers_reject_a_standard_cert_that_verify_rejects():
    # the clamped copy of this certificate is valid, but the certificate is not
    dag = _single_vertex()
    f = pebbling_formula(dag)
    cert = _no_boolean_multiplier()
    assert not verify(f, cert).valid
    message = "certificate does not verify; residual: 2 monomials of degree 1 to 2"
    with pytest.raises(CertificateError, match=message):
        multilinearize(f, cert)
    with pytest.raises(CertificateError, match=message):
        extract(dag, cert)


def test_readers_judge_the_certificate_they_are_given(monkeypatch):
    # verify is the one judge: the first certificate that extract and
    # multilinearize hand it is the very object they were passed, and a
    # multilinear certificate is judged once
    seen = []
    real_verify = nullstellensatz.verify

    def spy(formula, cert):
        seen.append(cert)
        return real_verify(formula, cert)

    monkeypatch.setattr(nullstellensatz, "verify", spy)
    dag = _single_vertex()
    f = pebbling_formula(dag)
    valid_standard = Certificate(Q, "standard", {
        "vertex:z": ExpPoly.one(Q), "sink": ExpPoly.monomial(Q, ("z",)),
    }, {"z": ExpPoly.monomial(Q, (), -1)})
    multilinear = compile_strategy(dag, _rv(("place", "z"), ("remove", "z")), Q)
    invalid = _no_boolean_multiplier()
    for read in (lambda c: extract(dag, c), lambda c: multilinearize(f, c)):
        seen.clear()
        read(valid_standard)
        assert seen[0] is valid_standard and len(seen) == 2  # then its clamped copy
        seen.clear()
        read(multilinear)
        assert seen == [multilinear]
        seen.clear()
        with pytest.raises(CertificateError):
            read(invalid)
        assert seen == [invalid]


def _cert_cli(tmp_path, action, dag, cert):
    """Exit code of `pebcert cert <action>` on `dag` and `cert` saved to files."""
    graph, path = tmp_path / "graph.json", tmp_path / "cert.json"
    graph.write_text(json.dumps(dag.to_json()))
    save_certificate(cert, path)
    return main(["cert", action, str(graph), str(path)])


@pytest.mark.parametrize("dropped,message", [
    (lambda lo, hi, zbit: lo == 0, "empty configuration touches no edge"),
    (lambda lo, hi, zbit: (lo | hi) & zbit, "no path from the empty configuration to the sink"),
], ids=["empty", "sink"])
def test_extract_on_a_broken_config_graph_is_internal_error(monkeypatch, tmp_path, capsys,
                                                            dropped, message):
    # a valid certificate's graph has edges at {} and a path to the sink, so
    # losing either is a bug in config_graph, not a bad certificate
    real = nullstellensatz.config_graph

    def dropping(dag, cert):
        cg = real(dag, cert)
        zbit = 1 << cg.sink
        return cg._replace(edges=tuple(e for e in cg.edges if not dropped(e[0], e[1], zbit)))

    monkeypatch.setattr(nullstellensatz, "config_graph", dropping)
    dag = line(2)
    cert = compile_strategy(dag, min_space(dag, "reversible", "visiting")[1], F2)
    with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
        extract(dag, cert)
    assert _cert_cli(tmp_path, "extract", dag, cert) == 3
    assert capsys.readouterr().err == f"internal consistency violation: {message}\n"


def test_multilinearize_with_an_invalid_clamped_copy_is_internal_error(monkeypatch, tmp_path,
                                                                       capsys):
    # clamping keeps a valid refutation valid, so a clamped copy that fails
    # verify is a bug; verify fails every multilinear certificate here, and
    # the given one is standard, so only the second call fails
    real = nullstellensatz.verify

    def failing_clamped(formula, cert):
        report = real(formula, cert)
        return report._replace(valid=False) if cert.mode == "multilinear" else report

    monkeypatch.setattr(nullstellensatz, "verify", failing_clamped)
    dag = _single_vertex()
    cert = Certificate(Q, "standard", {
        "vertex:z": ExpPoly.one(Q), "sink": ExpPoly.monomial(Q, ("z",)),
    }, {"z": ExpPoly.monomial(Q, (), -1)})
    message = "the clamped copy of a valid certificate does not verify"
    with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
        multilinearize(pebbling_formula(dag), cert)
    assert _cert_cli(tmp_path, "multilinearize", dag, cert) == 3
    assert capsys.readouterr().err == f"internal consistency violation: {message}\n"


# -- one object per distinct name, monomial and move ------------------------------

def _one_object_each(items):
    """Equal items are one object, and some item repeats."""
    return len({id(x) for x in items}) == len(set(items)) < len(items)


def _names_and_monomials(cert):
    monos = [m for q in chain(cert.multipliers.values(), cert.boolean_multipliers.values())
             for m in q.terms]
    return [v for m in monos for v in m], monos


def _shared_sample():
    dag = pyramid(3)
    return dag, visiting(dag, _steps(replay(dag, strat_by_depth(dag).moves, REVERSIBLE)))


def test_compiled_certificate_shares_names_and_monomials():
    dag, strategy = _shared_sample()
    names, monos = _names_and_monomials(compile_strategy(dag, strategy, F3))
    assert _one_object_each(names) and _one_object_each(monos)
    assert {id(v) for v in names} <= {id(v) for v in dag.names}


@pytest.mark.parametrize("mode", ["multilinear", "standard"])
def test_loaded_certificate_shares_names_and_monomials(tmp_path, mode):
    dag, strategy = _shared_sample()
    cert = compile_strategy(dag, strategy, Q)
    booleans = {}
    if mode == "standard":  # Boolean multipliers share the multipliers' table
        cert = Certificate(Q, mode, cert.multipliers)
        booleans = {v: ExpPoly(Q, {(v, v): 1, (v, "v0_1"): 2}) for v in dag.names[:3]}
    path = tmp_path / "c.json"
    save_certificate(Certificate(Q, mode, cert.multipliers, booleans), path)
    loaded = load_certificate(path)
    names, monos = _names_and_monomials(loaded)
    assert _one_object_each(names) and _one_object_each(monos)
    assert loaded.multipliers == {a: (ExpPoly(Q, q.terms) if mode == "standard" else q)
                                  for a, q in cert.multipliers.items()}
    assert loaded.boolean_multipliers == booleans


def test_extracted_strategy_shares_one_move_per_distinct_move():
    dag, strategy = _shared_sample()
    moves = extract(dag, compile_strategy(dag, strategy, F5)).moves
    assert _one_object_each(moves) and all(type(m) is Move for m in moves)


def test_multilinearized_copy_shares_one_set_per_distinct_monomial(tmp_path):
    dag, strategy = _shared_sample()
    cert = compile_strategy(dag, strategy, F5)
    path = tmp_path / "c.json"
    save_certificate(Certificate(F5, "standard", cert.multipliers), path)
    loaded = load_certificate(path)
    assert all(isinstance(q, ExpPoly) for q in loaded.multipliers.values())
    out = multilinearize(pebbling_formula(dag), loaded)
    assert _one_object_each(_names_and_monomials(out)[1])
    assert out == cert


def test_multilinearize_sums_monomials_that_clamp_equal():
    # (1 + x_z - x_z^2) * (1 - x_z) + (2 x_z - x_z^2) * x_z = 1 with no Boolean
    # multiplier; clamped, x_z and x_z^2 are one monomial, which cancels in
    # Q_z and sums to x_z in Q_sink
    f = pebbling_formula(_single_vertex())
    one, x = MultilinearPoly.one(Q), MultilinearPoly.monomial(Q, ["z"])
    std = Certificate(Q, "standard", {
        "vertex:z": ExpPoly(Q, {(): 1, ("z",): 1, ("z", "z"): -1}),
        "sink": ExpPoly(Q, {("z",): 2, ("z", "z"): -1})})
    assert verify(f, std).valid
    assert multilinearize(f, std) == Certificate(Q, "multilinear", {"vertex:z": one, "sink": x})
    # (1 + x_z^2) * (1 - x_z) + (2 - x_z) * x_z + (1 + x_z) * (x_z^2 - x_z) = 1:
    # the x_z^2 of Q_z and the x_z of Q_sink clamp to one set object
    std = Certificate(Q, "standard", {"vertex:z": ExpPoly(Q, {(): 1, ("z", "z"): 1}),
                                      "sink": ExpPoly(Q, {(): 2, ("z",): -1})},
                      {"z": ExpPoly(Q, {(): 1, ("z",): 1})})
    out = multilinearize(f, std)
    assert out == Certificate(Q, "multilinear", {"vertex:z": one + x, "sink": one + one - x})
    assert _one_object_each([m for q in out.multipliers.values() for m in q.terms])


@pytest.mark.parametrize("mode", ["multilinear", "standard"])
def test_written_certificate_shares_one_vars_list_per_distinct_monomial(mode):
    dag, strategy = _shared_sample()
    cert = compile_strategy(dag, strategy, F3)
    if mode == "standard":
        cert = Certificate(F3, mode, {a: ExpPoly(F3, q.terms) for a, q in cert.multipliers.items()},
                           {v: ExpPoly(F3, {(v, v): 1, (v,): 2}) for v in dag.names[:3]})
    data = certificate_to_json(cert)
    rows = [row for key in ("multipliers", "boolean_multipliers")
            for entry in data.get(key, ()) for row in entry["poly"]]
    lists = [row["vars"] for row in rows]
    assert len({id(v) for v in lists}) == len({tuple(v) for v in lists}) < len(lists)
    assert certificate_from_json(json.loads(json.dumps(data))) == cert


def _old_poly_from_json(field, entries, mode):
    """The per-term reader the shared one replaced: `_read` on every term."""
    poly = MultilinearPoly if mode == "multilinear" else ExpPoly
    terms = {}
    parsed = {}
    for e in entries:
        names = e["vars"]
        if not isinstance(names, list):
            raise CertificateError(f'"vars" must be a list of name strings, got {names!r}')
        mono = poly._read(names)
        text = e["coeff"]
        if isinstance(text, str) and text in parsed:
            coeff = parsed[text]
        else:
            try:
                coeff = parsed[text] = field.parse(text)
            except (ValueError, ZeroDivisionError):
                raise CertificateError(f"invalid coefficient {text!r}") from None
        field.accumulate(terms, mono, coeff)
    return poly._of(field, terms)


def _old_certificate_from_json(data):
    try:
        spec = data["field"]
        field = Field.rationals() if spec == "rationals" else Field.prime(spec["prime"])
        mode = data["mode"]
        multipliers = {}
        for entry in data["multipliers"]:
            if entry["axiom"] in multipliers:
                raise CertificateError(f'repeated "axiom" {entry["axiom"]!r}')
            multipliers[entry["axiom"]] = _old_poly_from_json(field, entry["poly"], mode)
        booleans = {}
        for entry in data.get("boolean_multipliers", []):
            if entry["var"] in booleans:
                raise CertificateError(f'repeated "var" {entry["var"]!r}')
            booleans[entry["var"]] = _old_poly_from_json(field, entry["poly"], "standard")
    except (KeyError, TypeError) as exc:
        raise CertificateError(f"malformed certificate JSON: {exc}") from None
    return Certificate(field, mode, multipliers, booleans)


def _read_outcome(read, data):
    """The error class and message, or the certificate's mode and polynomials."""
    try:
        cert = read(data)
    except ValueError as exc:
        return type(exc), str(exc)
    return cert.mode, cert.multipliers, cert.boolean_multipliers


_VAR_NAMES = st.sampled_from(["a", "b", "c"])
_NOT_NAMES = st.sampled_from([1, True, 1.0, None, ["a"], {}, {"a": 1}])
_VARS = (st.lists(_VAR_NAMES, max_size=3)
         | st.lists(_VAR_NAMES | _NOT_NAMES, max_size=3)
         | st.sampled_from(["ab", None, 3, {"a": 1}, ("a",)]))


@st.composite
def _term_lists(draw, pool):
    """Terms whose "vars" come from `pool`, so monomials repeat, each list a copy."""
    return [{"coeff": draw(st.sampled_from(["1", "2", "-1", "x"])),
             "vars": list(v) if isinstance(v, list) else v}
            for v in draw(st.lists(st.sampled_from(pool), max_size=4))]


@st.composite
def _certificate_data(draw):
    pool = draw(st.lists(_VARS, min_size=1, max_size=4))
    mode = draw(st.sampled_from(["multilinear", "standard"]))
    data = {"field": {"prime": 5}, "mode": mode,
            "multipliers": [{"axiom": f"vertex:{i}", "poly": draw(_term_lists(pool))}
                            for i in range(draw(st.integers(1, 3)))]}
    if mode == "standard" and draw(st.booleans()):
        data["boolean_multipliers"] = [{"var": v, "poly": draw(_term_lists(pool))}
                                       for v in draw(st.sets(_VAR_NAMES, max_size=2))]
    return data


@settings(max_examples=150)
@given(_certificate_data())
def test_reader_messages_match_the_per_term_reader(data):
    assert _read_outcome(certificate_from_json, data) == \
        _read_outcome(_old_certificate_from_json, data)


# -- JSON ----------------------------------------------------------------------

def test_certificate_json_round_trip():
    dag, cert = _line2_cert(F5)
    data = json.loads(json.dumps(certificate_to_json(cert)))
    again = certificate_from_json(data)
    assert again.field == cert.field
    assert again.multipliers == cert.multipliers
    report = verify(pebbling_formula(dag), again)
    assert (report.valid, report.size, report.degree) == (True, 5, 2)


def test_certificate_json_rationals_and_exponents():
    from fractions import Fraction
    cert = Certificate(Q, "standard", {
        "sink": ExpPoly(Q, {("z", "z"): Fraction(2, 3)}),
    }, {"z": ExpPoly.monomial(Q, (), Fraction(-1, 3))})
    data = certificate_to_json(cert)
    assert data["multipliers"][0]["poly"][0] == {"coeff": "2/3", "vars": ["z", "z"]}
    again = certificate_from_json(json.loads(json.dumps(data)))
    assert again.multipliers == cert.multipliers
    assert again.boolean_multipliers == cert.boolean_multipliers


@pytest.mark.parametrize("mode", ["multilinear", "standard"])
def test_certificate_json_rejects_string_vars(mode):
    data = {"field": {"prime": 2}, "mode": mode,
            "multipliers": [{"axiom": "sink", "poly": [{"coeff": "1", "vars": "ab"}]}]}
    with pytest.raises(CertificateError):
        certificate_from_json(data)
    data["multipliers"][0]["poly"][0]["vars"] = ["a", "b"]
    assert certificate_from_json(data).multipliers["sink"].num_monomials() == 1


@pytest.mark.parametrize("coeff", ["1/0", "1e10000000"])
def test_certificate_json_rejects_bad_rationals(coeff):
    data = {"field": "rationals", "mode": "multilinear",
            "multipliers": [{"axiom": "sink", "poly": [{"coeff": coeff, "vars": []}]}]}
    start = time.perf_counter()
    with pytest.raises(CertificateError):
        certificate_from_json(data)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("prime", [3.0, True])
def test_certificate_json_rejects_non_integer_prime(prime):
    data = {"field": {"prime": prime}, "mode": "multilinear",
            "multipliers": [{"axiom": "sink", "poly": [{"coeff": "1", "vars": []}]}]}
    with pytest.raises(AlgebraError, match="is not a prime integer"):
        certificate_from_json(data)


@pytest.mark.parametrize("mode,key", [("multilinear", "multipliers"),
                                      ("standard", "boolean_multipliers")])
def test_certificate_json_rejects_repeated_ids(mode, key):
    entry = ({"axiom": "sink"} if key == "multipliers" else {"var": "a"})
    entry["poly"] = [{"coeff": "1", "vars": []}]
    data = {"field": {"prime": 2}, "mode": mode, "multipliers": [], key: [entry, entry]}
    with pytest.raises(CertificateError, match="repeated"):
        certificate_from_json(data)
    data[key] = [entry]
    certificate_from_json(data)


def test_certificate_json_field_override():
    dag, cert = _line2_cert(Q)
    data = certificate_to_json(cert)
    reloaded = certificate_from_json(data, F5)
    report = verify(pebbling_formula(dag), reloaded)
    assert (report.valid, report.size, report.degree) == (True, 5, 2)


# -- the certificate writer ------------------------------------------------------

# vertex-name prefixes: ASCII, Latin-1, a quote after a Greek letter, and an
# astral character before a backslash, which the file escapes
_SAVED_PREFIXES = ("n", "\xe9", "\u03b1\"", "\U0001f600\\")


@st.composite
def _saved_certificates(draw):
    """A `ns_oracle` refutation of a random DAG of at most 6 vertices over
    GF(2), GF(3) or Q, its names under a drawn prefix, with a term whose
    monomial holds variables outside the DAG and perhaps a zero multiplier.
    In standard mode each multiplier stays multilinear or becomes an ExpPoly
    with the exponents of a drawn set of names raised to 2, and some
    variables take one of the multipliers as their Boolean multiplier."""
    import ns_oracle
    from conftest import random_single_sink_dag

    dag = random_single_sink_dag(random.Random(draw(st.integers(0, 2**32 - 1))), max_n=6)
    field = draw(st.sampled_from((F2, F3, Q)))
    names = tuple(draw(st.sampled_from(_SAVED_PREFIXES)) + v for v in dag.names)
    degree = min_space(dag, "reversible", "visiting")[0]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    terms = {}
    for (axiom, m), c in ns_oracle.random_refutation(dag, field.p, degree, rng).items():
        axiom_id = "sink" if axiom == ns_oracle.SINK else f"vertex:{names[axiom]}"
        terms.setdefault(axiom_id, {})[mask_names(names, m)] = c
    outside = draw(st.sets(st.sampled_from(names + ("outside", "\xfcber")), min_size=1))
    terms[draw(st.sampled_from(sorted(terms)))][frozenset(outside | {"outside"})] = 1
    if draw(st.booleans()):
        terms[f"vertex:{names[0]}"] = {}
    multipliers = {a: MultilinearPoly(field, t) for a, t in terms.items()}
    if not draw(st.booleans()):
        return Certificate(field, "multilinear", multipliers)
    for a, q in multipliers.items():
        if draw(st.booleans()):
            raised = draw(st.sets(st.sampled_from(names)))
            multipliers[a] = ExpPoly(field, {(*m, *(m & raised)): c for m, c in q.terms.items()})
    polys = st.sampled_from([multipliers[a] for a in sorted(multipliers)])
    booleans = {v: draw(polys) for v in draw(st.sets(st.sampled_from(names), max_size=3))}
    return Certificate(field, "standard", multipliers, booleans)


def _file_document(cert):
    """The document `certificate_to_json` gives, built apart from it: the
    multipliers by axiom id with Q_sink last, the Boolean multipliers, if
    any, by variable, and each polynomial's terms by degree, then by sorted
    names (multilinear) or by (name, exponent) pairs (ExpPoly)."""
    def poly(q):
        def key(term):
            names = sorted(term[0])
            if isinstance(q, MultilinearPoly):
                return len(names), names
            return len(names), [(v, names.count(v)) for v in sorted(set(names))]
        return [{"coeff": str(c), "vars": sorted(m)} for m, c in sorted(q.terms.items(), key=key)]
    f = cert.field
    doc = {"field": "rationals" if f.is_rationals else {"prime": f.p}, "mode": cert.mode,
           "multipliers": [{"axiom": a, "poly": poly(cert.multipliers[a])}
                           for a in sorted(cert.multipliers, key=lambda a: (a == "sink", a))]}
    if cert.boolean_multipliers:
        doc["boolean_multipliers"] = [{"var": v, "poly": poly(cert.boolean_multipliers[v])}
                                      for v in sorted(cert.boolean_multipliers)]
    return doc


def _assert_saved_bytes(cert, path):
    """The saved file is `json.dumps(certificate_to_json(cert), indent=2)`
    plus a newline, and that document has the file order."""
    save_certificate(cert, path)
    assert path.read_bytes() == (json.dumps(certificate_to_json(cert), indent=2)
                                 + "\n").encode("utf-8")
    assert certificate_to_json(cert) == _file_document(cert)


@settings(max_examples=60)
@given(_saved_certificates())
@example(Certificate(F2, "multilinear", {}))
@example(Certificate(Q, "standard", {"sink": ExpPoly.zero(Q)},
                     {"\u2603": ExpPoly(Q, {("y", "x", "x"): -1, ("x", "y", "y"): 2, (): 3})}))
def test_saved_bytes_are_json_dumps_of_the_document(tmp_path_factory, cert):
    _assert_saved_bytes(cert, tmp_path_factory.getbasetemp() / "saved_parity.json")


_SAVED_COMPILED = {
    "cs(4,3,1)": lambda: (single_sink_restriction(carlson_savage(4, 3), "spine1/sec2/v8"),
                          strat_carlson_savage(4, 3, 1)),
    "br_small(16)": GOLDEN_CERT_CASES["br_small(16)"],
}


@pytest.mark.parametrize("field", [F3, Q], ids=repr)
@pytest.mark.parametrize("instance", sorted(_SAVED_COMPILED))
def test_saved_compiled_certificates_are_json_dumps_of_the_document(tmp_path, instance, field):
    dag, strategy = _SAVED_COMPILED[instance]()
    _assert_saved_bytes(compile_strategy(dag, strategy, field), tmp_path / "c.json")


def test_round_trip_on_random_dags():
    # compile -> verify -> extract on optimal witnesses of random DAGs:
    # size = time + 1, degree = space, and extraction reproduces both
    from conftest import random_single_sink_dag
    from pebcert import min_space
    import random as _random

    rng = _random.Random(0xC0FFEE)
    for trial in range(30):
        dag = random_single_sink_dag(rng, max_n=6)
        formula = pebbling_formula(dag)
        space, _ = min_space(dag, "reversible", "visiting")
        for budget in (space, space + 1):
            t, witness = min_time_within_space(dag, "reversible", "visiting", budget)
            metrics = verify_strategy(dag, witness)
            field = ALL_FIELDS[trial % len(ALL_FIELDS)]
            cert = compile_strategy(dag, witness, field)
            report = verify(formula, cert)
            assert report.valid
            assert report.size == t + 1
            assert report.degree == metrics.space
            assert check_weights(config_graph(dag, cert)).ok
            out = verify_strategy(dag, extract(dag, cert))
            assert out.time == t and out.space == metrics.space


# -- differential and backward-theorem properties on moved certificates ------


def _nonzero(field):
    if field.is_rationals:
        return st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    return st.integers(1, field.p - 1)


@st.composite
def _certificates(draw, perturb):
    """A compiled optimal certificate on a random small DAG, changed by syzygy
    moves Q_a += k*x_m*A_b, Q_b -= k*x_m*A_a (still valid) and, when
    `perturb` draws True, by one coefficient k*x_m added to some Q_a with m
    free of a's own vertex, so that Q_a*A_a and the sum change.  Monomials m
    draw from the DAG's vertices and two variables outside the DAG."""
    from conftest import random_single_sink_dag

    dag = random_single_sink_dag(random.Random(draw(st.integers(0, 2**32 - 1))), max_n=6)
    field = draw(st.sampled_from(ALL_FIELDS))
    formula = pebbling_formula(dag)
    witness = min_space(dag, "reversible", "visiting")[1]
    multipliers = dict(compile_strategy(dag, witness, field).multipliers)
    zero = MultilinearPoly.zero(field)
    axioms = st.sampled_from(formula.axiom_ids)
    variables = dag.names + ("foreign1", "foreign2")
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(axioms), draw(axioms)
        m = MultilinearPoly.monomial(field, draw(st.sets(st.sampled_from(variables))),
                                     draw(_nonzero(field)))
        multipliers[a] = multipliers.get(a, zero) + m * formula.axiom_poly(b, field)
        multipliers[b] = multipliers.get(b, zero) - m * formula.axiom_poly(a, field)
    perturbed = draw(perturb)
    if perturbed:
        a = draw(axioms)
        own = a.split(":", 1)[1] if a != "sink" else None
        names = draw(st.sets(st.sampled_from([v for v in variables if v != own])))
        multipliers[a] = multipliers.get(a, zero) + MultilinearPoly.monomial(
            field, names, draw(_nonzero(field)))
    return dag, formula, Certificate(field, "multilinear", multipliers), perturbed


def _reduced(field, sums):
    """Plain Fraction sums reduced into the field, zero entries dropped."""
    if field.p is not None:
        sums = {k: c % field.p for k, c in sums.items()}
    return {k: c for k, c in sums.items() if c}


def _naive_verify(dag, cert):
    """sum_a Q_a * A_a - 1 over plain dicts and Fraction arithmetic, sharing no
    code with pebcert's polynomials: the residual terms, the pre-cancellation
    size and the largest union of a multiplier and an axiom monomial."""
    axioms = {"sink": [(frozenset([dag.designated_sink_name]), 1)]}
    for v in dag.names:
        preds = frozenset(dag.pred_names(v))
        axioms[f"vertex:{v}"] = [(preds, 1), (preds | {v}, -1)]
    total = {frozenset(): Fraction(-1)}
    size = degree = 0
    for axiom_id, q in cert.multipliers.items():
        size += len(q.terms) * len(axioms[axiom_id])
        for m1, c1 in q.terms.items():
            for m2, c2 in axioms[axiom_id]:
                total[m1 | m2] = total.get(m1 | m2, 0) + Fraction(c1) * c2
                degree = max(degree, len(m1 | m2))
    return _reduced(cert.field, total), size, degree


def _naive_weights(dag, cert):
    """Edge count and signed occurrence weight of every endpoint configuration
    (plus {}), summed straight from the multipliers: a term c*x_W of Q_v with
    v not in W is one edge, adding c at W + pred(v) and -c at W + pred(v) + {v}."""
    total = {frozenset(): Fraction(0)}
    edges = 0
    for axiom_id, q in cert.multipliers.items():
        v = axiom_id.split(":", 1)[1] if axiom_id != "sink" else None
        for m, c in q.terms.items():
            if v is not None and v not in m:
                lo = m | frozenset(dag.pred_names(v))
                total[lo] = total.get(lo, 0) + Fraction(c)
                total[lo | {v}] = total.get(lo | {v}, 0) - Fraction(c)
                edges += 1
    reduced = _reduced(cert.field, total)
    return edges, {c: reduced.get(c, 0) for c in total}


CERT_SETTINGS = settings(max_examples=60)


@CERT_SETTINGS
@given(_certificates(st.booleans()))
def test_verify_and_weights_match_naive_sums(case):
    dag, formula, cert, perturbed = case
    f = cert.field
    residual, size, degree = _naive_verify(dag, cert)
    report = verify(formula, cert)
    assert (report.valid, report.size, report.degree) == (not perturbed, size, degree)
    assert bool(residual) == perturbed
    assert (report.failure_residual or MultilinearPoly.zero(f)).terms == residual
    # the standard-mode residual clamps to the multilinear one
    standard = verify(formula, Certificate(f, "standard", cert.multipliers))
    assert standard.size == size
    assert MultilinearPoly(f, (standard.failure_residual or ExpPoly.zero(f)).terms).terms \
        == residual

    cg = config_graph(dag, cert)
    edges, naive = _naive_weights(dag, cert)
    assert len(cg.edges) == edges
    assert {c: _weight(cg, c) for c in naive} == naive
    empty = naive[frozenset()]
    expected = [] if empty == f.one else [(frozenset(), empty)]
    expected += [(c, naive[c]) for c in sorted(naive, key=lambda c: (len(c), sorted(c)))
                 if c and dag.designated_sink_name not in c and naive[c] != f.zero]
    weights = check_weights(cg)
    assert (weights.empty_weight, weights.violations) == (empty, tuple(expected))
    if not perturbed:
        assert weights.ok



def _rational_case(perturbed):
    """The compiled certificate of line(3) over Q, changed by syzygy moves
    with coefficients 1/2, 1/3 and 1/6 over several multipliers and, when
    `perturbed`, by 1/2*x_v1 added to Q_v2 and 1/3*x_v1 to Q_v3, whose
    products meet at x_v1*x_v2 with coefficient 1/3 - 1/2 = -1/6."""
    dag = line(3)
    formula = pebbling_formula(dag)
    multipliers = dict(compile_strategy(dag, min_space(dag, "reversible", "visiting")[1],
                                        Q).multipliers)
    for a, b, names, k in [("sink", "vertex:v1", {"v3"}, Fraction(1, 6)),
                           ("vertex:v2", "vertex:v3", {"v1"}, Fraction(1, 2)),
                           ("vertex:v1", "sink", set(), Fraction(-2, 3))]:
        m = MultilinearPoly.monomial(Q, names, k)
        multipliers[a] = multipliers[a] + m * formula.axiom_poly(b, Q)
        multipliers[b] = multipliers[b] - m * formula.axiom_poly(a, Q)
    if perturbed:
        for a, k in [("vertex:v2", Fraction(1, 2)), ("vertex:v3", Fraction(1, 3))]:
            multipliers[a] = multipliers[a] + MultilinearPoly.monomial(Q, {"v1"}, k)
    return dag, formula, Certificate(Q, "multilinear", multipliers)


@pytest.mark.parametrize("perturbed", [False, True])
def test_rational_sums_keep_their_denominators(perturbed):
    # the integer sums scale every coefficient by the lcm 6 of the
    # denominators and come back as Fractions equal to the plain sums
    dag, formula, cert = _rational_case(perturbed)
    denominators = {c.denominator for q in cert.multipliers.values() for c in q.terms.values()}
    assert denominators == {1, 2, 3, 6}
    residual, size, degree = _naive_verify(dag, cert)
    report = verify(formula, cert)
    assert (report.valid, report.size, report.degree) == (not perturbed, size, degree)
    assert (report.failure_residual or MultilinearPoly.zero(Q)).terms == residual
    # the standard-mode residual, which no Boolean multiplier cancels, clamps to it
    standard = verify(formula, Certificate(Q, "standard", cert.multipliers))
    assert standard.size == size
    standard_terms = (standard.failure_residual or ExpPoly.zero(Q)).terms
    assert MultilinearPoly(Q, standard_terms).terms == residual

    cg = config_graph(dag, cert)
    _, naive = _naive_weights(dag, cert)
    weights = cg.weights()
    assert {mask_names(cg.names, m): w for m, w in weights.items()} == \
        {c: w for c, w in naive.items() if w}
    coefficients = [*residual.values(), *standard_terms.values(), *weights.values()]
    assert all(type(c) is Fraction for c in coefficients)
    assert Fraction(-1, 6) in coefficients
    assert check_weights(cg).ok == (not perturbed)
    if perturbed:
        assert residual[frozenset({"v1", "v2"})] == Fraction(-1, 6)


@pytest.mark.parametrize("mode", ["multilinear", "standard"])
@pytest.mark.parametrize("field", [F3, Q], ids=repr)
def test_unknown_axiom_raises_before_any_sum(monkeypatch, mode, field):
    # every axiom id is read before any monomial gets the code its terms
    # are summed on, so the last multiplier's unknown id still gives the
    # formula's own error
    dag = line(3)
    formula = pebbling_formula(dag)
    multipliers = dict(compile_strategy(dag, min_space(dag, "reversible", "visiting")[1],
                                        field).multipliers)
    multipliers["vertex:bogus"] = MultilinearPoly.one(field)
    cert = Certificate(field, mode, multipliers)

    def summed(mono, digits, width):
        raise AssertionError(f"{mono!r} was coded before every axiom was read")
    monkeypatch.setattr(nullstellensatz, "_code", summed)
    with pytest.raises(CertificateError, match=r"^unknown axiom 'vertex:bogus'$"):
        verify(formula, cert)

def _config_graph_per_term(dag, cert):
    """(names, edges) of the configuration graph, each term's mask summed
    anew; a new variable outside the DAG takes the next bit, by name within
    one monomial."""
    formula = pebbling_formula(dag)
    bits = {name: 1 << i for i, name in enumerate(dag.names)}
    edges = []
    for axiom_id, q in cert.multipliers.items():
        bit, pm = formula.axiom(axiom_id)
        if bit == 0:
            continue
        for mono, coeff in q.terms.items():
            lo = sum(bits.setdefault(var, 1 << len(bits)) for var in sorted(mono))
            if not lo & bit:
                lo |= pm
                edges.append((lo, lo | bit, coeff))
    return tuple(bits), tuple(edges)


def _sink_first_case():
    """Q_sink first in the dict and holding `w`, outside the DAG, and Q_v1
    holding `u`, also outside: only `u` may take a bit, as the per-term
    graph never reads Q_sink."""
    dag = line(2)
    cert = Certificate(F3, "multilinear", {
        "sink": MultilinearPoly.monomial(F3, {"w", "v1"}),
        "vertex:v1": MultilinearPoly.monomial(F3, {"u"}, 2),
    })
    return dag, pebbling_formula(dag), cert, True


@settings(max_examples=40)
@given(_certificates(st.booleans()))
@example(_sink_first_case())
def test_config_graph_matches_the_per_term_graph(case):
    # outside variables take their bits in order of first appearance and,
    # within one monomial, by name
    dag, _, cert, _ = case
    cg = config_graph(dag, cert)
    assert (cg.names, cg.edges) == _config_graph_per_term(dag, cert)


@CERT_SETTINGS
@given(_certificates(st.just(False)))
def test_extract_meets_backward_bounds(case):
    # the paper's backward direction: space <= degree, time <= size - 1
    dag, formula, cert, _ = case
    report = verify(formula, cert)
    metrics = verify_strategy(dag, extract(dag, cert))
    assert metrics.space <= report.degree
    assert metrics.time <= report.size - 1


# -- multilinear verify on masks against the product rule ----------------------


def _product_rule_verify(formula, cert):
    """Multilinear `verify` as the product rule computed it: every
    (multiplier, axiom) pair through `MultilinearPoly._mul_into`, on name
    sets throughout, and the degree as the largest union of a multiplier
    and an axiom monomial."""
    f = cert.field
    size = degree = 0
    total = {}
    for a, q in cert.multipliers.items():
        axiom = formula.axiom_poly(a, f)
        MultilinearPoly._mul_into(q, axiom, total)
        degree = max([degree, *(len(m1 | m2) for m1 in q.terms for m2 in axiom.terms)])
        size += q.num_monomials() * axiom.num_monomials()
    f.accumulate(total, frozenset(), -f.one)
    if not total:
        return nullstellensatz.VerifyReport(True, size, degree)
    return nullstellensatz.VerifyReport(False, size, degree, MultilinearPoly._of(f, total))


# a refutation stays valid under no change or under a term whose monomial
# holds its axiom's own vertex, as x_v * A_v = 0; every other change breaks it
_KEEPS_VALID = (None, "holds v")


@st.composite
def _oracle_refutations(draw):
    """A `ns_oracle` random refutation of a random DAG of at most 7 vertices,
    at degree min space or one more, over GF(2), GF(3), GF(5) or Q, with at
    most one change: a term dropped, a coefficient changed, a term added to
    some Q_v whose monomial holds v, or a term added whose monomial holds a
    variable outside the DAG."""
    import ns_oracle
    from conftest import random_single_sink_dag

    dag = random_single_sink_dag(random.Random(draw(st.integers(0, 2**32 - 1))), max_n=7)
    field = draw(st.sampled_from(ALL_FIELDS))
    degree = min_space(dag, "reversible", "visiting")[0] + draw(st.integers(0, 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    terms = {}
    for (axiom, m), c in ns_oracle.random_refutation(dag, field.p, degree, rng).items():
        axiom_id = "sink" if axiom == ns_oracle.SINK else f"vertex:{dag.names[axiom]}"
        terms.setdefault(axiom_id, {})[mask_names(dag.names, m)] = c
    change = draw(st.sampled_from(_KEEPS_VALID + ("drop", "coefficient", "outside")))
    if change in ("drop", "coefficient"):
        a, m = draw(st.sampled_from([(a, m) for a, t in terms.items() for m in t]))
        if change == "drop":
            del terms[a][m]
        else:
            terms[a][m] += draw(_nonzero(field))
    elif change is not None:
        if change == "holds v":
            v = draw(st.sampled_from(dag.names))
            a, m = f"vertex:{v}", draw(st.sets(st.sampled_from(dag.names))) | {v}
        else:
            a = draw(st.sampled_from(pebbling_formula(dag).axiom_ids))
            m = draw(st.sets(st.sampled_from([v for v in dag.names if a != f"vertex:{v}"])))
            m |= draw(st.sampled_from([{"outside1"}, {"outside2"}, {"outside1", "outside2"}]))
        m = frozenset(m)
        terms.setdefault(a, {})[m] = terms.get(a, {}).get(m, 0) + draw(_nonzero(field))
    multipliers = {a: MultilinearPoly(field, t) for a, t in terms.items()}
    return pebbling_formula(dag), Certificate(field, "multilinear", multipliers), change


@settings(max_examples=80)
@given(_oracle_refutations())
def test_mask_verify_matches_the_product_rule(case):
    formula, cert, change = case
    report, expected = verify(formula, cert), _product_rule_verify(formula, cert)
    assert report == expected
    assert report.valid == (change in _KEEPS_VALID)
    if not report.valid:
        assert report.failure_residual.summary() == expected.failure_residual.summary()


# -- standard mode against a Counter expansion ---------------------------------


def _mono(names):
    """A monomial as the frozenset of its (name, exponent) pairs."""
    return frozenset(Counter(names).items())


def _times(m1, m2):
    return frozenset((Counter(dict(m1)) + Counter(dict(m2))).items())


def _counter_axioms(dag):
    """Every axiom id and every Boolean variable -> [(monomial, coefficient)]."""
    axioms = {"sink": [(_mono([dag.designated_sink_name]), 1)]}
    for v in dag.names:
        preds = list(dag.pred_names(v))
        axioms[f"vertex:{v}"] = [(_mono(preds), 1), (_mono(preds + [v]), -1)]
    return axioms, {v: [(_mono([v, v]), 1), (_mono([v]), -1)] for v in dag.names}


def _add(poly, mono, c):
    poly[mono] = poly.get(mono, 0) + c


@st.composite
def _standard_certificates(draw):
    """The compiled certificate of pyramid(1) or line(3) over GF(3) or Q,
    restated in standard mode by moves Q_a += k*x_T*(y^2 - y) with
    s_y -= k*x_T*A_a (still valid; x_T has exponents up to 3), by
    Q_sink -> Q_sink*x_z with s_z -= Q_sink (still valid), and, when drawn,
    by one term k*x_T added to some Q_a or s_y.  Each multiplier whose
    monomials are square-free is drawn as a MultilinearPoly or as an ExpPoly
    read from JSON.  Returns the DAG, the certificate, whether it was
    perturbed and its multipliers as plain {monomial: coefficient} dicts."""
    build, n = draw(st.sampled_from([(pyramid, 1), (line, 3)]))
    dag = build(n)
    field = draw(st.sampled_from([F3, Q]))
    axioms, boolean_axioms = _counter_axioms(dag)
    witness = min_space(dag, "reversible", "visiting")[1]
    multipliers = {a: {_mono(m): c for m, c in q.terms.items()}
                   for a, q in compile_strategy(dag, witness, field).multipliers.items()}
    booleans = {}
    names = st.sampled_from(dag.names)
    monos = st.dictionaries(names, st.integers(1, 3), max_size=2).map(
        lambda exps: frozenset(exps.items()))
    for _ in range(draw(st.integers(0, 3))):
        a, y = draw(st.sampled_from(sorted(axioms))), draw(names)
        t, k = draw(monos), draw(_nonzero(field))
        _add(multipliers.setdefault(a, {}), _times(t, _mono([y, y])), k)
        _add(multipliers[a], _times(t, _mono([y])), -k)
        for m, c in axioms[a]:
            _add(booleans.setdefault(y, {}), _times(t, m), -k * c)
    if draw(st.booleans()):
        z = dag.designated_sink_name
        q_sink = multipliers["sink"]
        multipliers["sink"] = {_times(m, _mono([z])): c for m, c in q_sink.items()}
        for m, c in q_sink.items():
            _add(booleans.setdefault(z, {}), m, -c)
    perturbed = draw(st.booleans())
    if perturbed:
        if draw(st.booleans()):
            target = multipliers.setdefault(draw(st.sampled_from(sorted(axioms))), {})
        else:
            target = booleans.setdefault(draw(names), {})
        _add(target, draw(monos), draw(_nonzero(field)))
    multipliers, booleans = ({key: _reduced(field, q) for key, q in polys.items()}
                             for polys in (multipliers, booleans))

    def to_json(q):
        return [{"coeff": str(c), "vars": sorted(Counter(dict(m)).elements())}
                for m, c in q.items()]
    data = {"field": "rationals" if field.is_rationals else {"prime": field.p},
            "mode": "standard",
            "multipliers": [{"axiom": a, "poly": to_json(q)} for a, q in multipliers.items()],
            "boolean_multipliers": [{"var": v, "poly": to_json(s)} for v, s in booleans.items()]}
    loaded = certificate_from_json(data)

    def kind(q, read):  # a square-free multiplier may also be a MultilinearPoly
        if all(e == 1 for m in q for _, e in m) and draw(st.booleans()):
            return MultilinearPoly(field, {frozenset(dict(m)): c for m, c in q.items()})
        return read
    cert = Certificate(field, "standard",
                       {a: kind(q, loaded.multipliers[a]) for a, q in multipliers.items()},
                       {y: kind(s, loaded.boolean_multipliers[y]) for y, s in booleans.items()})
    return dag, cert, perturbed, multipliers, booleans


def _counter_verify(dag, field, multipliers, booleans):
    """sum_a Q_a*A_a + sum_y s_y*(y^2 - y) - 1 over Counter monomials and
    Fraction arithmetic, sharing no code with pebcert's polynomials: the
    residual terms, the pre-cancellation size and the largest total degree
    of a product of a multiplier and an axiom monomial."""
    axioms, boolean_axioms = _counter_axioms(dag)
    total = {frozenset(): Fraction(-1)}
    size = degree = 0
    for q, axiom in chain(((q, axioms[a]) for a, q in multipliers.items()),
                          ((s, boolean_axioms[y]) for y, s in booleans.items())):
        size += len(q) * len(axiom)
        for m1, c1 in q.items():
            for m2, c2 in axiom:
                m = _times(m1, m2)
                total[m] = total.get(m, 0) + Fraction(c1) * c2
                degree = max(degree, sum(e for _, e in m))
    return _reduced(field, total), size, degree


@CERT_SETTINGS
@given(_standard_certificates())
def test_standard_verify_matches_counter_expansion(case):
    dag, cert, perturbed, multipliers, booleans = case
    residual, size, degree = _counter_verify(dag, cert.field, multipliers, booleans)
    report = verify(pebbling_formula(dag), cert)
    assert (report.valid, report.size, report.degree) == (not perturbed, size, degree)
    assert bool(residual) == perturbed
    if perturbed:  # the residual's terms, read back through its JSON form
        terms = certificate_to_json(Certificate(cert.field, "standard", {
            "sink": report.failure_residual}))["multipliers"][0]["poly"]
        assert {_mono(t["vars"]): cert.field.parse(t["coeff"]) for t in terms} == residual



@pytest.mark.parametrize("field", [F3, Q], ids=repr)
def test_standard_verify_keeps_high_exponents_apart(field):
    # s_v1 = 2*x_v1^2*x_v2 times x_v1^2 - x_v1 puts x_v1^4*x_v2 in the
    # residual: an exponent past the multipliers' degree 3, in the digit
    # next to x_v2's
    dag = line(2)
    multipliers = {"sink": {_mono(["v1"]): 1}}
    booleans = {"v1": {_mono(["v1", "v1", "v2"]): 2}}
    cert = Certificate(field, "standard", {"sink": ExpPoly.monomial(field, ["v1"])},
                       {"v1": ExpPoly.monomial(field, ["v1", "v1", "v2"], 2)})
    residual, size, degree = _counter_verify(dag, field, multipliers, booleans)
    assert _mono(["v1"] * 4 + ["v2"]) in residual
    report = verify(pebbling_formula(dag), cert)
    assert (report.valid, report.size, report.degree) == (False, size, degree) == (False, 3, 5)
    assert {_mono(m): c for m, c in report.failure_residual.terms.items()} == residual

def test_certificate_json_orders_standard_terms_by_exponent_pairs():
    # by degree, then by the (name, exponent) pairs: x*y before x*x, and
    # x*y*y before x*x*y
    given_vars = [["x", "x"], ["y", "x"], [], ["y", "y", "x"], ["y"], ["x", "y", "x"],
                  ["y", "y"], ["x"]]
    data = {"field": {"prime": 5}, "mode": "standard", "multipliers": [
        {"axiom": "sink", "poly": [{"coeff": "1", "vars": v} for v in given_vars]}]}
    poly = certificate_to_json(certificate_from_json(data))["multipliers"][0]["poly"]
    assert [t["vars"] for t in poly] == [[], ["x"], ["y"], ["x", "y"], ["x", "x"], ["y", "y"],
                                         ["x", "y", "y"], ["x", "x", "y"]]
