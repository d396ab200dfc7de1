"""One rule for names: a name is a `str` at the API as in every file.

Core claims:
    - every way a name enters the package refuses one that is not a string:
      build_dag (vertex, edge endpoint, designated sink), the polynomial
      constructors and `monomial`, and Certificate (axiom id, Boolean
      variable)
    - so whatever the API builds loads back from the file it saves: a random
      graph, and the compiled certificate of its min-space witness over GF(p)
      and over Q, in both modes, read back equal
"""

import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_single_sink_dag
from pebcert import (
    Certificate,
    ExpPoly,
    Field,
    MultilinearPoly,
    build_dag,
    certificate_from_json,
    certificate_to_json,
    compile_strategy,
    graph_from_json,
    min_space,
)
from pebcert.errors import AlgebraError, CertificateError, GraphError

Q = Field.rationals()


def _monomial_cases():
    for poly in (MultilinearPoly, ExpPoly):
        for mono, names in [((1, 2), "int-names"), ((("x", 2),), "pair-name")]:
            message = re.escape(f"monomial {mono!r} is not a collection of name strings")
            kind = f"{poly.__name__}-{names}"
            yield pytest.param(lambda poly=poly, mono=mono: poly(Q, {mono: 1}),
                               AlgebraError, message, id=kind)
            yield pytest.param(lambda poly=poly, mono=mono: poly.monomial(Q, mono),
                               AlgebraError, message, id=f"{kind}-monomial")


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: build_dag([1, 2], [(1, 2)], 2), GraphError,
                 "vertex name 1 is not a string", id="vertex-int"),
    pytest.param(lambda: build_dag([["a"]], []), GraphError,
                 r"vertex name \['a'\] is not a string", id="vertex-list"),
    pytest.param(lambda: build_dag(["a"], [("a", 1)]), GraphError,
                 "edge endpoint 1 not declared", id="edge-endpoint"),
    pytest.param(lambda: build_dag(["a"], [], 1), GraphError,
                 "designated sink 1 not declared", id="sink"),
    *_monomial_cases(),
    pytest.param(lambda: Certificate(Q, "multilinear", {5: MultilinearPoly.one(Q)}),
                 CertificateError, "multiplier key 5 is not a string", id="axiom-key"),
    pytest.param(lambda: Certificate(Q, "standard", {}, {1: ExpPoly.one(Q)}),
                 CertificateError, "multiplier key 1 is not a string", id="boolean-var"),
])
def test_non_string_names_refused_where_they_enter(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([2, 3, 5, 7, 101, 2**31 - 1]))
def test_what_the_api_builds_loads_back(seed, p):
    dag = random_single_sink_dag(random.Random(seed))
    assert graph_from_json(json.loads(json.dumps(dag.to_json()))) == dag
    witness = min_space(dag, "reversible", "visiting")[1]
    for field in (Field.prime(p), Q):
        cert = compile_strategy(dag, witness, field)
        standard = Certificate(field, "standard", {a: ExpPoly(field, q.terms)
                                                   for a, q in cert.multipliers.items()})
        for c in (cert, standard):
            # equal certificates: same field and mode, and every multiplier
            # of the same kind with equal terms
            assert certificate_from_json(json.loads(json.dumps(certificate_to_json(c)))) == c
