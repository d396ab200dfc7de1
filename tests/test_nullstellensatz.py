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
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pebcert import (
    Certificate,
    Move,
    Strategy,
    build_dag,
    carlson_savage,
    certificate_from_json,
    certificate_to_json,
    check_weights,
    compile_strategy,
    config_graph,
    extract,
    line,
    min_space,
    min_time_within_space,
    multilinearize,
    pebbling_formula,
    pyramid,
    verify,
    verify_strategy,
)
from pebcert.algebra import ExpPoly, Field, MultilinearPoly
from pebcert.errors import (
    CertificateError,
    CertificateInvalid,
    NoDesignatedSink,
    NotMultilinear,
    ResultInvalid,
    SinkNeverReached,
    StrategyIllegal,
    UnknownAxiom,
)

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
    assert f.axiom_monomials("vertex:v0_1") == 2
    assert f.axiom_monomials("sink") == 1


def test_formula_clause_view_matches_figure():
    f = pebbling_formula(pyramid(2))
    assert f.clauses == (
        (1,), (2,), (3,),
        (-1, -2, 4), (-2, -3, 5), (-4, -5, 6),
        (-6,),
    )


def test_clause_and_polynomial_views_agree():
    # translate each clause with p(C) = prod (1-x) over positives * prod y over
    # negated variables and compare against the stored axiom
    dag = pyramid(2)
    f = pebbling_formula(dag)
    for v, name in enumerate(dag.names):
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
    with pytest.raises(NoDesignatedSink):
        pebbling_formula(carlson_savage(2, 1))


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
    with pytest.raises(UnknownAxiom):
        verify(f, cert)


def test_verify_standard_mode_with_boolean_multiplier():
    # Q_z = 1, Q_sink = x_z, s_z = -1:  (1-x) + x*x - (x^2-x) = 1
    dag = _single_vertex()
    f = pebbling_formula(dag)
    cert = Certificate(Q, "standard", {
        "vertex:z": ExpPoly.one(Q),
        "sink": ExpPoly.monomial(Q, (("z", 1),)),
    }, {"z": ExpPoly.monomial(Q, (), -1)})
    report = verify(f, cert)
    assert report.valid
    assert report.size == 5  # 1*2 + 1*1 + 2*1
    assert report.degree == 2  # deg(x_z * x_z) and deg(s_z) + 2


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
    dag = _single_vertex()
    strat = _rv(("place", "z"), ("remove", "z"), ("place", "z"), ("remove", "z"))
    with pytest.warns(UserWarning):
        cert = compile_strategy(dag, strat, F2)
    assert verify(pebbling_formula(dag), cert).valid


def test_compile_rejects_bad_input():
    dag = line(2)
    with pytest.raises(StrategyIllegal):
        compile_strategy(dag, Strategy("standard", None, _moves(("place", "v1"))), F2)
    with pytest.raises(StrategyIllegal):
        compile_strategy(dag, _rv(("place", "v2"),), F2)
    with pytest.raises(SinkNeverReached):
        compile_strategy(dag, _rv(("place", "v1"), ("remove", "v1")), F2)


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


def test_config_graph_line_two():
    dag, cert = _line2_cert(F2)
    cg = config_graph(dag, cert)
    pairs = sorted((sorted(e.lo), sorted(e.hi)) for e in cg.edges)
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
    assert [(sorted(e.lo), sorted(e.hi)) for e in cg.edges] == [([], ["z"])]


def test_config_graph_needs_multilinear():
    dag = _single_vertex()
    cert = Certificate(Q, "standard", {"vertex:z": ExpPoly.one(Q)})
    with pytest.raises(NotMultilinear):
        config_graph(dag, cert)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_check_weights_line_two(field):
    dag, cert = _line2_cert(field)
    report = check_weights(config_graph(dag, cert))
    assert report.ok
    assert report.empty_weight == field.one
    # {v1} sits between two +1 edges; signed sum cancels in every field
    assert config_graph(dag, cert).weight({"v1"}) == field.zero


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


def test_extract_rejects_invalid():
    dag = _single_vertex()
    cert = Certificate(F2, "multilinear", {"vertex:z": MultilinearPoly.one(F2)})
    with pytest.raises(CertificateInvalid):
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
        "sink": ExpPoly.monomial(Q, (("z", 1),)),
    }, {"z": ExpPoly.monomial(Q, (), -1)})
    before = verify(f, std)
    out = multilinearize(f, std)
    after = verify(f, out)
    assert out.mode == "multilinear" and not out.boolean_multipliers
    assert after.valid
    assert after.size <= before.size
    assert after.degree <= before.degree


def test_multilinearize_idempotent():
    dag, cert = _line2_cert(F5)
    f = pebbling_formula(dag)
    out = multilinearize(f, cert)
    assert out.multipliers == cert.multipliers


def test_multilinearize_rejects_invalid():
    dag = _single_vertex()
    f = pebbling_formula(dag)
    bad = Certificate(Q, "multilinear", {"vertex:z": MultilinearPoly.one(Q)})
    with pytest.raises(ResultInvalid):
        multilinearize(f, bad)


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
        "sink": ExpPoly(Q, {(("z", 2),): Fraction(2, 3)}),
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


def test_certificate_json_field_override():
    dag, cert = _line2_cert(Q)
    data = certificate_to_json(cert)
    reloaded = certificate_from_json(data, F5)
    report = verify(pebbling_formula(dag), reloaded)
    assert (report.valid, report.size, report.degree) == (True, 5, 2)


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
    free of a's own vertex, so that Q_a*A_a and the sum change."""
    from conftest import random_single_sink_dag

    dag = random_single_sink_dag(random.Random(draw(st.integers(0, 2**32 - 1))), max_n=6)
    field = draw(st.sampled_from(ALL_FIELDS))
    formula = pebbling_formula(dag)
    witness = min_space(dag, "reversible", "visiting")[1]
    multipliers = dict(compile_strategy(dag, witness, field).multipliers)
    zero = MultilinearPoly.zero(field)
    axioms = st.sampled_from(formula.axiom_ids)
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(axioms), draw(axioms)
        m = MultilinearPoly.monomial(field, draw(st.sets(st.sampled_from(dag.names))),
                                     draw(_nonzero(field)))
        multipliers[a] = multipliers.get(a, zero) + m * formula.axiom_poly(b, field)
        multipliers[b] = multipliers.get(b, zero) - m * formula.axiom_poly(a, field)
    perturbed = draw(perturb)
    if perturbed:
        a = draw(axioms)
        own = a.split(":", 1)[1] if a != "sink" else None
        names = draw(st.sets(st.sampled_from([v for v in dag.names if v != own])))
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


def _naive_weight(cg, config):
    """Signed occurrence weight of one configuration, scanning every edge."""
    total = Fraction(0)
    for e in cg.edges:
        if e.lo == config:
            total += Fraction(e.weight)
        if e.hi == config:
            total -= Fraction(e.weight)
    return _reduced(cg.field, {config: total}).get(config, 0)


CERT_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


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
    assert (standard.failure_residual or ExpPoly.zero(f)).clamp().terms == residual

    cg = config_graph(dag, cert)
    configs = {c for e in cg.edges for c in (e.lo, e.hi)}
    naive = {c: _naive_weight(cg, c) for c in configs | {frozenset()}}
    assert {c: cg.weight(c) for c in naive} == naive
    empty = naive[frozenset()]
    expected = [] if empty == f.one else [(frozenset(), empty)]
    expected += [(c, naive[c]) for c in sorted(configs, key=lambda c: (len(c), sorted(c)))
                 if c and cg.sink_name not in c and naive[c] != f.zero]
    weights = check_weights(cg)
    assert (weights.empty_weight, weights.violations) == (empty, tuple(expected))
    if not perturbed:
        assert weights.ok


@CERT_SETTINGS
@given(_certificates(st.just(False)))
def test_extract_meets_backward_bounds(case):
    # the paper's backward direction: space <= degree, time <= size - 1
    dag, formula, cert, _ = case
    report = verify(formula, cert)
    metrics = verify_strategy(dag, extract(dag, cert))
    assert metrics.space <= report.degree
    assert metrics.time <= report.size - 1
