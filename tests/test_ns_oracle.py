"""The degree half of the paper's theorem, checked against an independent oracle.

`ns_oracle` decides by Gaussian elimination whether a multilinear
Nullstellensatz refutation of degree d exists, with none of pebcert's
polynomials, certificates or search.  Core claims:
    - (a) its least degree equals the reversible visiting min space, over
      GF(2), GF(3), GF(5) and Q on small family members, over GF(2) on
      seeded random single-sink DAGs, and over GF(2) and GF(3) on drawn
      ones of up to 9 vertices
    - (b) a random point of its solution space at d = min space and at
      d = min space + 1, a certificate the compiler did not produce, passes
      verify and check_weights, and extract meets space <= degree,
      time <= size - 1
    - (c, first half) the same refutation restated in standard mode: read
      as given it verifies with the same size and degree; with Q_sink*x_z
      and the Boolean multiplier s_z = -Q_sink it verifies at one degree
      more, and multilinearize and extract still meet both bounds
    - (d) the theorem's lower direction on those refutations: one of
      degree d has size at least the optimal reversible visiting time in
      space d, plus one, in multilinear mode and in both standard restatements
"""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ns_oracle
from conftest import random_single_sink_dag
from pebcert import (
    Certificate,
    bit_reversal,
    carlson_savage,
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
    single_sink_restriction,
    verify,
    verify_strategy,
)
from pebcert.algebra import ExpPoly, Field, MultilinearPoly
from pebcert.graphs import mask_names

FIELDS = {"GF(2)": 2, "GF(3)": 3, "GF(5)": 5, "Q": None}


def _single_sink_cs22():
    dag = carlson_savage(2, 2)
    return single_sink_restriction(dag, dag.sink_names[0])


# graph -> (builder, reversible visiting min space)
GRAPHS = {
    "line(8)": (lambda: line(8), 4),
    "pyramid(2)": (lambda: pyramid(2), 4),
    "pyramid(3)": (lambda: pyramid(3), 5),
    "bit_reversal(4)": (lambda: bit_reversal(4), 5),
    "single-sink CS(2,2)": (_single_sink_cs22, 5),
}


def test_oracle_shares_no_pebcert_code():
    # the oracle imports only the standard library and reads only the DAG's
    # predecessor lists and its designated sink
    tree = ast.parse(Path(ns_oracle.__file__).read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert modules == {"fractions", "itertools"}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "dag"}
    assert read == {"preds", "designated_sink"}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("graph", GRAPHS)
def test_min_degree_equals_reversible_min_space(graph, field):
    build, space = GRAPHS[graph]
    dag = build()
    assert min_space(dag, "reversible", "visiting")[0] == space
    assert ns_oracle.min_degree(dag, FIELDS[field]) == space


def test_min_degree_equals_min_space_on_random_dags():
    rng = random.Random(2001)
    for _ in range(20):
        dag = random_single_sink_dag(rng, max_n=7)
        assert ns_oracle.min_degree(dag, 2) == min_space(dag, "reversible", "visiting")[0], dag


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_min_degree_equals_min_space_on_drawn_dags(seed):
    # Q is left out: its elimination takes about six times as long
    dag = random_single_sink_dag(random.Random(seed), max_n=9)
    space = min_space(dag, "reversible", "visiting")[0]
    assert [ns_oracle.min_degree(dag, p) for p in (2, 3)] == [space, space], dag


@pytest.mark.parametrize("field", ["GF(3)", "Q"])
@pytest.mark.parametrize("graph", ["pyramid(2)", "line(8)"])
def test_random_refutation_passes_every_check(graph, field):
    _check_random_refutation(graph, field, 0)


@pytest.mark.parametrize("field", ["GF(3)", "Q"])
@pytest.mark.parametrize("graph", ["pyramid(2)", "line(8)"])
def test_random_refutation_above_min_space_passes_every_check(graph, field):
    _check_random_refutation(graph, field, 1)


def _least_size(dag, degree):
    """t + 1 for the optimal reversible visiting time t in space `degree`:
    by the theorem, no refutation of that degree is smaller."""
    return min_time_within_space(dag, "reversible", "visiting", degree)[0] + 1


def _check_random_refutation(graph, field, slack):
    build, space = GRAPHS[graph]
    dag = build()
    p = FIELDS[field]
    f = Field.rationals() if p is None else Field.prime(p)
    degree = space + slack
    terms = {}
    for (axiom, m), c in ns_oracle.random_refutation(dag, p, degree, random.Random(7)).items():
        axiom_id = "sink" if axiom == ns_oracle.SINK else f"vertex:{dag.names[axiom]}"
        terms.setdefault(axiom_id, {})[mask_names(dag.names, m)] = c
    cert = Certificate(f, "multilinear", {a: MultilinearPoly(f, t) for a, t in terms.items()})
    witness = min_space(dag, "reversible", "visiting")[1]
    assert cert.multipliers != compile_strategy(dag, witness, f).multipliers

    formula = pebbling_formula(dag)
    report = verify(formula, cert)
    assert report.valid and report.degree <= degree
    assert report.size >= _least_size(dag, report.degree)
    assert check_weights(config_graph(dag, cert)).ok
    metrics = verify_strategy(dag, extract(dag, cert))
    assert metrics.space <= report.degree
    assert metrics.time <= report.size - 1

    # standard mode reads the multilinear multipliers with exponent 1
    as_given = verify(formula, Certificate(f, "standard", cert.multipliers))
    assert (as_given.valid, as_given.size, as_given.degree) == (True, report.size, report.degree)
    assert as_given.size >= _least_size(dag, as_given.degree)
    # Q_sink*x_z*x_z - Q_sink*(x_z^2 - x_z) = Q_sink*x_z: valid, one degree more
    z = dag.designated_sink_name
    q_sink = ExpPoly(f, cert.multipliers["sink"].terms)
    std = Certificate(f, "standard", {**cert.multipliers,
                                      "sink": q_sink * ExpPoly.monomial(f, [z])}, {z: -q_sink})
    std_report = verify(formula, std)
    assert (std_report.valid, std_report.degree) == (True, report.degree + 1)
    assert std_report.size == report.size + 2 * q_sink.num_monomials()
    assert std_report.size >= _least_size(dag, std_report.degree)
    clamped = verify(formula, multilinearize(formula, std))
    assert clamped.valid
    assert clamped.size <= std_report.size and clamped.degree <= std_report.degree
    metrics = verify_strategy(dag, extract(dag, std))
    assert metrics.space <= clamped.degree
    assert metrics.time <= clamped.size - 1
