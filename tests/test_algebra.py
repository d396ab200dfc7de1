"""Field and polynomial arithmetic.

Everything is exact: prime-field elements are ints mod p, rationals are
fractions; multilinear products clamp exponents by monomial union.
"""

import time
from fractions import Fraction
from pathlib import Path

import pytest

from pebcert.algebra import ExpPoly, Field, MultilinearPoly
from pebcert.errors import FieldMismatch, ModulusTooLarge, NotPrime


def test_prime_field_arithmetic():
    f = Field.prime(5)
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.neg(2) == 3
    assert f.coerce(-1) == 4
    assert f.parse("-1") == 4
    assert f.format(3) == "3"


def test_rational_field_arithmetic():
    f = Field.rationals()
    assert f.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert f.parse("2/3") == Fraction(2, 3)
    assert f.format(Fraction(-7, 2)) == "-7/2"
    assert f.coerce(2) == Fraction(2)


def test_prime_check():
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(NotPrime):
            Field.prime(bad)
    Field.prime(2)
    Field.prime(97)


def test_prime_check_rejects_non_integers():
    # a float or bool modulus would make the field compute in floats
    for bad in (3.0, 2.5, True, "3", Fraction(3)):
        with pytest.raises(NotPrime):
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


def test_prime_check_large_moduli():
    start = time.perf_counter()
    assert Field.prime(10**18 + 3).p == 10**18 + 3
    assert time.perf_counter() - start < 0.5
    # a Carmichael number and strong pseudoprimes to the bases 2..7 and 2..23
    for bad in (561, 3215031751, 3825123056546413051):
        with pytest.raises(NotPrime):
            Field.prime(bad)
    with pytest.raises(ModulusTooLarge):
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
    with pytest.raises(FieldMismatch):
        MultilinearPoly.one(Field.prime(2)) * MultilinearPoly.one(Field.prime(3))


def test_poly_degree_and_counts():
    f = Field.prime(3)
    p = MultilinearPoly(f, {frozenset(): 1, frozenset({"a", "b"}): 2})
    assert p.num_monomials() == 2
    assert p.degree() == 2
    assert p.coefficient(["a", "b"]) == 2
    assert p.coefficient(["a"]) == 0
    assert MultilinearPoly.zero(f).degree() == 0


def test_zero_coefficients_pruned():
    f = Field.prime(2)
    p = MultilinearPoly(f, {frozenset({"a"}): 2})
    assert p.is_zero()


def test_exp_poly_product_tracks_exponents():
    f = Field.rationals()
    x = ExpPoly.monomial(f, (("x", 1),))
    sq = x * x
    assert sq == ExpPoly.monomial(f, (("x", 2),))
    assert sq.degree() == 2


def test_exp_poly_clamp():
    f = Field.rationals()
    p = ExpPoly(f, {(("x", 2),): 1, (("x", 1),): 1})
    clamped = p.clamp()
    assert clamped == MultilinearPoly(f, {frozenset({"x"}): 2})
    # clamping can cancel terms
    q = ExpPoly(f, {(("x", 2),): 1, (("x", 1),): -1})
    assert q.clamp().is_zero()


def test_exp_poly_from_multilinear_round_trip():
    f = Field.prime(5)
    p = MultilinearPoly(f, {frozenset({"a"}): 2, frozenset({"a", "b"}): 3})
    assert ExpPoly.from_multilinear(p).clamp() == p
