"""Field and polynomial arithmetic.

Everything is exact: prime-field elements are ints mod p, rationals are
fractions; multilinear products clamp exponents by monomial union.
"""

import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pebcert.algebra import ExpPoly, Field, MultilinearPoly
from pebcert.errors import AlgebraError
from pebcert.nullstellensatz import certificate_from_json

Q = Field.rationals()


def test_prime_field_arithmetic():
    f = Field.prime(5)
    terms = {}
    f.accumulate(terms, "sum", 3)
    f.accumulate(terms, "sum", 4)
    f.accumulate(terms, "product", 3 * 4)
    f.accumulate(terms, "negation", -2)
    assert terms == {"sum": 2, "product": 2, "negation": 3}
    f.accumulate(terms, "sum", 3)
    assert "sum" not in terms
    assert f.coerce(-1) == 4
    assert f.parse("-1") == 4
    assert str(f.parse("8")) == "3"


def test_rational_field_arithmetic():
    f = Field.rationals()
    terms = {}
    f.accumulate(terms, "sum", Fraction(1, 2))
    f.accumulate(terms, "sum", Fraction(1, 3))
    assert terms == {"sum": Fraction(5, 6)}
    f.accumulate(terms, "sum", -Fraction(5, 6))
    assert terms == {}
    assert f.parse("2/3") == Fraction(2, 3)
    assert str(f.parse("-14/4")) == "-7/2"
    assert f.coerce(2) == Fraction(2)



def test_integer_view_of_sums():
    # GF(p) residues are the ints nearest 0 at scale 1 and reduce once per
    # key; over Q the scale is the lcm of the denominators, and each nonzero
    # sum comes back as the reduced Fraction
    f = Field.prime(5)
    assert f.scaled([1, 2, 3, 4]) == (1, [1, 2, -2, -1])
    assert f.unscaled({"a": 5, "b": 7, "c": -1, "d": 0}, 1) == {"b": 2, "c": 4}
    assert Q.scaled([Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6), Fraction(2)]) == \
        (6, [3, -2, 5, 12])
    assert Q.scaled([Fraction(-1), Fraction(3)]) == (1, [-1, 3])
    sums = Q.unscaled({"a": 3 - 2, "b": 3 + 5 - 2, "c": 3 - 3}, 6)
    assert sums == {"a": Fraction(1, 6), "b": Fraction(1)}
    assert all(type(c) is Fraction for c in sums.values())

def test_prime_check():
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(AlgebraError, match="is not a prime integer"):
            Field.prime(bad)
    Field.prime(2)
    Field.prime(97)


def test_prime_check_rejects_non_integers():
    # a float or bool modulus would make the field compute in floats
    for bad in (3.0, 2.5, True, "3", Fraction(3)):
        with pytest.raises(AlgebraError, match="is not a prime integer"):
            Field.prime(bad)


def test_rational_parse_accepts_only_decimal_forms():
    f = Field.rationals()
    for text, value in (("7", 7), ("-3/4", Fraction(-3, 4)), ("+2", 2),
                        ("1.25", Fraction(5, 4)), ("06/08", Fraction(3, 4))):
        assert f.parse(text) == value
    for bad in ("1e3", "1e10000000", " 1", "1_0", "1.", ".5", "1/-2", "inf", "nan",
                "0x1", "\u0661", "1/2/3", ""):
        with pytest.raises(ValueError):
            f.parse(bad)
    with pytest.raises(ZeroDivisionError):
        f.parse("1/0")


def test_prime_parse_accepts_only_sign_and_ascii_digits():
    f = Field.prime(5)
    for text, value in (("7", 2), ("-3", 2), ("+12", 2), ("007", 2), ("0", 0)):
        assert f.parse(text) == value
    for bad in (" 7\n", "7 ", "1_0", "\u0663", "", "+", "1.0", "1/2", "0x1", "1e3"):
        with pytest.raises(ValueError):
            f.parse(bad)


def test_prime_check_large_moduli():
    start = time.perf_counter()
    assert Field.prime(10**18 + 3).p == 10**18 + 3
    assert time.perf_counter() - start < 0.5
    # a Carmichael number and strong pseudoprimes to the bases 2..7 and 2..23
    for bad in (561, 3215031751, 3825123056546413051):
        with pytest.raises(AlgebraError, match="is not a prime integer"):
            Field.prime(bad)
    with pytest.raises(AlgebraError, match="too large to test for primality"):
        Field.prime(2**89 - 1)  # prime, beyond the exact range of the test


def test_benchmark_primes_parse(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    for p in workloads.PRIMES:
        assert Field.prime(p).p == p


def test_multilinear_product_idempotent_variable():
    f = Field.rationals()
    xa = MultilinearPoly.monomial(f, ["a"])
    assert xa * xa == xa


def test_multilinear_product_cancellation():
    f = Field.rationals()
    xa = MultilinearPoly.monomial(f, ["a"])
    one_minus = MultilinearPoly.one(f) - xa
    assert (one_minus * xa).is_zero()


def test_multilinear_product_expansion():
    # ((1 - x_u) x_p x_q) * x_v = x_p x_q x_v - x_p x_q x_u x_v
    f = Field.rationals()
    left = MultilinearPoly(f, {frozenset({"p", "q"}): 1, frozenset({"p", "q", "u"}): -1})
    out = left * MultilinearPoly.monomial(f, ["v"])
    assert out == MultilinearPoly(f, {
        frozenset({"p", "q", "v"}): 1,
        frozenset({"p", "q", "u", "v"}): -1,
    })


def test_field_mismatch_rejected():
    with pytest.raises(AlgebraError, match=r"Field\(GF\(2\)\) vs Field\(GF\(3\)\)"):
        MultilinearPoly.one(Field.prime(2)) * MultilinearPoly.one(Field.prime(3))


def test_poly_degree_and_counts():
    f = Field.prime(3)
    p = MultilinearPoly(f, {frozenset(): 1, frozenset({"a", "b"}): 2})
    assert p.num_monomials() == 2
    assert p.degree() == 2
    assert p.terms[frozenset({"a", "b"})] == 2
    assert frozenset({"a"}) not in p.terms
    assert MultilinearPoly.zero(f).degree() == 0


def test_zero_coefficients_pruned():
    f = Field.prime(2)
    p = MultilinearPoly(f, {frozenset({"a"}): 2})
    assert p.is_zero()


def test_exp_poly_product_tracks_exponents():
    f = Field.rationals()
    x = ExpPoly.monomial(f, ("x",))
    sq = x * x
    assert sq == ExpPoly.monomial(f, ("x", "x"))
    assert sq.degree() == 2


def test_exp_poly_clamp():
    # the multilinear constructor clamps: repeated names collapse, equal
    # monomials sum
    f = Field.rationals()
    p = ExpPoly(f, {("x", "x"): 1, ("x",): 1})
    clamped = MultilinearPoly(f, p.terms)
    assert clamped == MultilinearPoly(f, {frozenset({"x"}): 2})
    # clamping can cancel terms
    q = ExpPoly(f, {("x", "x"): 1, ("x",): -1})
    assert MultilinearPoly(f, q.terms).is_zero()


def test_exp_poly_from_multilinear_round_trip():
    f = Field.prime(5)
    p = MultilinearPoly(f, {frozenset({"a"}): 2, frozenset({"a", "b"}): 3})
    assert MultilinearPoly(f, ExpPoly(f, p.terms).terms) == p


def test_constructor_sums_equal_monomials():
    assert MultilinearPoly(Q, {("a", "b"): 1, ("b", "a"): -1}).is_zero()
    assert ExpPoly(Q, {("x", "y"): 1, ("y", "x"): 1}) == ExpPoly.monomial(Q, ("x", "y"), 2)
    f = Field.prime(3)
    assert MultilinearPoly(f, {("a",): 2, frozenset({"a"}): 2, ("a", "a"): 1}) == \
        MultilinearPoly.monomial(f, ["a"], 2)


@pytest.mark.parametrize("field,value,element", [
    (Field.prime(5), 7, 2), (Field.prime(5), -1, 4), (Q, -3, Fraction(-3)),
    (Q, Fraction(7, 2), Fraction(7, 2)),
], ids=repr)
def test_coerce_reads_exact_numbers(field, value, element):
    c = field.coerce(value)
    assert c == element and type(c) is type(element)


@pytest.mark.parametrize("field,value", [
    (Field.prime(5), Fraction(1, 2)), (Field.prime(5), Fraction(7, 2)),
    (Field.prime(5), Fraction(4)), (Field.prime(5), 1.5), (Field.prime(5), 2.0),
    (Field.prime(5), "3"), (Field.prime(5), True), (Field.prime(5), None),
    (Q, 0.1), (Q, 2.0), (Q, "3"), (Q, "1/2"), (Q, False), (Q, None),
], ids=repr)
def test_coerce_refuses_inexact_numbers_and_text(field, value):
    message = f"^{re.escape(repr(value))} is not an exact coefficient in "
    with pytest.raises(AlgebraError, match=message):
        field.coerce(value)
    for poly in (MultilinearPoly, ExpPoly):
        with pytest.raises(AlgebraError, match=message):
            poly(field, {("a",): value})
        with pytest.raises(AlgebraError, match=message):
            poly.monomial(field, ["a"], value)


@pytest.mark.parametrize("poly", [MultilinearPoly, ExpPoly])
def test_string_monomials_refused(poly):
    message = "^monomial 'v1' is a string, not a collection of names$"
    with pytest.raises(AlgebraError, match=message):
        poly.monomial(Q, "v1")
    with pytest.raises(AlgebraError, match=message):
        poly(Q, {("a",): 1, "v1": 1})


@pytest.mark.parametrize("value,expected", [
    (lambda: repr(MultilinearPoly(Q, {(): 2, ("b", "a"): -1})), "2*1 + -1*x[a]*x[b]"),
    (lambda: repr(ExpPoly(Q, {("y", "x", "x"): 3, ("y",): 1})), "3*x[x]^2*x[y]^1 + 1*x[y]^1"),
    (lambda: repr(ExpPoly.zero(Q)), "0"),
    (lambda: MultilinearPoly.zero(Q).summary(), "0"),
    (lambda: MultilinearPoly.one(Q).__eq__(ExpPoly.one(Q)), NotImplemented),
    (lambda: MultilinearPoly.one(Q) == 1, False),
], ids=["repr", "repr-exponents", "repr-zero", "summary-zero", "eq-other-kind", "eq-int"])
def test_poly_repr_summary_and_foreign_equality(value, expected):
    assert value() == expected


@settings(max_examples=100)
@given(st.data())
def test_constructor_sums_like_the_certificate_reader(data):
    # the same terms, spelled as dict keys in any name order, make the same
    # polynomial as the certificate file's "vars" lists
    field = data.draw(st.sampled_from([Field.prime(3), Q]))
    mode, poly = data.draw(st.sampled_from([("multilinear", MultilinearPoly),
                                            ("standard", ExpPoly)]))
    coefficients = (st.integers(-4, 4) if field.p else
                    st.fractions(min_value=-4, max_value=4, max_denominator=3))
    terms = data.draw(st.dictionaries(st.lists(st.sampled_from("ab"), max_size=3).map(tuple),
                                      coefficients, max_size=8))
    entries = [{"coeff": str(c), "vars": list(mono)} for mono, c in terms.items()]
    cert = certificate_from_json({"mode": mode, "multipliers": [{"axiom": "sink", "poly": entries}]},
                                 field)
    assert poly(field, terms) == cert.multipliers["sink"]
