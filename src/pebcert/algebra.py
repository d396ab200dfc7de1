"""Exact field arithmetic and sparse polynomials over vertex variables.

Two polynomial representations: MultilinearPoly maps square-free monomials
(frozensets of variable names) to nonzero field elements, multiplying by set
union; ExpPoly tracks exponents for the standard, non-multilinear setting and
clamps down to a MultilinearPoly.  `terms` is keyed by vertex names at the
API.  No floating point anywhere: prime-field elements are ints mod p,
rational elements are fractions.

Every sum is accumulated in place, one term at a time, by
`Field.accumulate`; results are wrapped by the private `_of`, which trusts
reduced nonzero coefficients, so only the public constructor coerces.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FieldMismatch, ModulusTooLarge, NotPrime


# The first 13 primes.  As Miller-Rabin bases they decide primality exactly
# below _MR_LIMIT (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

# Optional sign, digits, then optionally /digits or .digits: no exponents,
# so parsing a coefficient is linear in its length.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+|\.[0-9]+)?")


def _is_prime(p):
    """Deterministic Miller-Rabin; raises ModulusTooLarge where it is not exact."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    if p >= _MR_LIMIT:
        raise ModulusTooLarge(f"{p} is too large to test for primality "
                              f"(limit {_MR_LIMIT})")
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True

class Field:
    """A prime field GF(p) or the rationals, with exact element arithmetic."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p=None):
        if p is not None and (type(p) is not int or not _is_prime(p)):
            raise NotPrime(f"{p!r} is not a prime integer")
        self.p = p
        self.zero = Fraction(0) if p is None else 0
        self.one = Fraction(1) if p is None else 1

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(p)

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    @property
    def is_rationals(self):
        return self.p is None

    def coerce(self, x):
        if self.p is None:
            return Fraction(x)
        return int(x) % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def accumulate(self, terms, mono, c):
        """terms[mono] += c in place for a reduced c; a term that cancels is dropped."""
        s = terms.get(mono)
        if s is not None:
            c = s + c if self.p is None else (s + c) % self.p
        if c:
            terms[mono] = c
        elif s is not None:
            del terms[mono]

    def parse(self, s: str):
        """Decimal string, rationals also as \"a/b\" or \"a.b\"; ValueError otherwise."""
        if self.p is None:
            if not _RATIONAL.fullmatch(s):
                raise ValueError(f"invalid rational {s!r}")
            return Fraction(s)
        return int(s, 10) % self.p

    def format(self, x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("field", self.p))

    def __repr__(self):
        return "Field(rationals)" if self.p is None else f"Field(GF({self.p}))"


def _check_same_field(a, b):
    if a.field != b.field:
        raise FieldMismatch(f"{a.field!r} vs {b.field!r}")


class _Poly:
    """Finite map `terms` from monomials to nonzero field elements.

    Subclasses fix the monomial type: `_ONE` is the constant monomial,
    `_norm` turns input into a monomial, `_deg` gives its degree, `_times`
    multiplies two, `_key` orders the printed terms and `_mono` prints one.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms=None):
        self.field = field
        self.terms = {}
        if terms:
            for mono, coeff in dict(terms).items():
                c = field.coerce(coeff)
                if c != field.zero:
                    self.terms[self._norm(mono)] = c

    @classmethod
    def _of(cls, field, terms):
        """Wrap a dict of already reduced, nonzero terms without copying it."""
        poly = object.__new__(cls)
        poly.field = field
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, field):
        return cls._of(field, {})

    @classmethod
    def one(cls, field):
        return cls._of(field, {cls._ONE: field.one})

    @classmethod
    def monomial(cls, field, mono, coeff=1):
        return cls(field, {cls._norm(mono): coeff})

    def is_zero(self):
        return not self.terms

    def num_monomials(self):
        return len(self.terms)

    def degree(self):
        return max(map(self._deg, self.terms), default=0)

    def __add__(self, other):
        _check_same_field(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            self.field.accumulate(out, m, c)
        return self._of(self.field, out)

    def __neg__(self):
        f = self.field
        return self._of(f, {m: f.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        self._mul_into(other, out)
        return self._of(self.field, out)

    def _mul_into(self, other, out):
        """Add self * other into the term dict `out` in place; return the
        largest degree of a product monomial before cancellation (0 if none)."""
        _check_same_field(self, other)
        f, times, deg = self.field, self._times, self._deg
        top = 0
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = times(m1, m2)
                if deg(m) > top:
                    top = deg(m)
                f.accumulate(out, m, f.mul(c1, c2))
        return top

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def _format(self, monos):
        return " + ".join(f"{self.terms[m]}*{self._mono(m)}" for m in monos) or "0"

    def __repr__(self):
        return self._format(sorted(self.terms, key=self._key))

    def summary(self):
        """Monomial count, degree range and the five lowest-degree terms."""
        if not self.terms:
            return "0"
        degrees = [self._deg(m) for m in self.terms]
        lowest = sorted(self.terms, key=lambda m: (self._deg(m), self._key(m)))[:5]
        return (f"{len(degrees)} monomials of degree {min(degrees)} to {max(degrees)}; "
                f"lowest: {self._format(lowest)}")


class MultilinearPoly(_Poly):
    """Square-free monomials (frozensets of variable names); product by union."""

    __slots__ = ()
    _ONE = frozenset()
    _norm = staticmethod(frozenset)
    _deg = staticmethod(len)
    _times = staticmethod(frozenset.union)

    @staticmethod
    def _key(m):
        return (len(m), sorted(m))

    @staticmethod
    def _mono(m):
        return "*".join(f"x[{v}]" for v in sorted(m)) or "1"

    def coefficient(self, variables):
        return self.terms.get(frozenset(variables), self.field.zero)


class ExpPoly(_Poly):
    """Exponent-tracking polynomial for the standard (non-multilinear) setting.

    Monomials are sorted tuples of (variable, exponent >= 1) pairs.
    """

    __slots__ = ()
    _ONE = ()

    @staticmethod
    def _norm(mono):
        return tuple(sorted((v, int(e)) for v, e in mono if int(e) > 0))

    @staticmethod
    def _deg(m):
        return sum(e for _, e in m)

    @staticmethod
    def _key(m):
        return m

    @staticmethod
    def _mono(m):
        return "*".join(f"x[{v}]^{e}" for v, e in m) or "1"

    @classmethod
    def from_multilinear(cls, poly: MultilinearPoly) -> "ExpPoly":
        return cls._of(poly.field, {tuple((v, 1) for v in sorted(m)): c
                                    for m, c in poly.terms.items()})

    @staticmethod
    def _times(m1, m2):
        exps = dict(m1)
        for v, e in m2:
            exps[v] = exps.get(v, 0) + e
        return tuple(sorted(exps.items()))

    def clamp(self) -> MultilinearPoly:
        """Multilinearize: send every positive exponent to 1, combine terms."""
        f = self.field
        out = {}
        for m, c in self.terms.items():
            f.accumulate(out, frozenset(v for v, _ in m), c)
        return MultilinearPoly._of(f, out)
