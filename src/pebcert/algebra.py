"""Exact field arithmetic and sparse polynomials over vertex variables.

Two polynomial representations: MultilinearPoly maps square-free monomials
(frozensets of variable names) to nonzero field elements, multiplying by set
union; ExpPoly tracks exponents for the standard, non-multilinear setting and
clamps down to a MultilinearPoly.  An ExpPoly monomial is the sorted tuple of
its names, each repeated once per unit of exponent: a certificate file's
"vars" list.  In both, a monomial's degree is its `len`.  `terms` is keyed by
vertex names at the API.  No floating point anywhere: prime-field elements
are ints mod p, rational elements are fractions.

`Field.accumulate` is the only coefficient arithmetic: every sum, product and
negation is added into a term map in place and reduced there.  The public
constructor coerces coefficients exactly and sums equal monomials through it,
as the certificate reader does; `_of` wraps terms that are already reduced.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import groupby

from .errors import AlgebraError


# The first 13 primes.  As Miller-Rabin bases they decide primality exactly
# below _MR_LIMIT (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

# Optional sign and ASCII digits; a rational may add /digits or .digits.  No
# exponents, so parsing a coefficient is linear in its length.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+|\.[0-9]+)?")


def _is_prime(p):
    """Deterministic Miller-Rabin; raises AlgebraError where it is not exact."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    if p >= _MR_LIMIT:
        raise AlgebraError(f"{p} is too large to test for primality "
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
    """A prime field GF(p) or the rationals, with exact element arithmetic.

    `coerce` reads a number, `parse` reads text, `accumulate` is the arithmetic.
    """

    __slots__ = ("p", "zero", "one")

    def __init__(self, p=None):
        if p is not None and (type(p) is not int or not _is_prime(p)):
            raise AlgebraError(f"{p!r} is not a prime integer")
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
        """An int (not a bool), or over Q a Fraction, as an element; AlgebraError otherwise."""
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x) if self.p is None else x % self.p
        if self.p is None and isinstance(x, Fraction):
            return x
        raise AlgebraError(f"{x!r} is not an exact coefficient in {self!r}")

    def accumulate(self, terms, mono, c):
        """terms[mono] += c for an int or element c, reduced; a term that cancels is dropped."""
        s = terms.get(mono)
        if s is not None:
            c += s
        if self.p is not None:
            c %= self.p
        if c:
            terms[mono] = c
        elif s is not None:
            del terms[mono]

    def parse(self, s: str):
        """Optional sign and ASCII digits, rationals also as \"a/b\" or \"a.b\"; ValueError otherwise."""
        if self.p is None:
            if not _RATIONAL.fullmatch(s):
                raise ValueError(f"invalid rational {s!r}")
            return Fraction(s)
        if not _INTEGER.fullmatch(s):
            raise ValueError(f"invalid integer {s!r}")
        return int(s) % self.p

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("field", self.p))

    def __repr__(self):
        return "Field(rationals)" if self.p is None else f"Field(GF({self.p}))"


def _check_same_field(a, b):
    if a.field != b.field:
        raise AlgebraError(f"{a.field!r} vs {b.field!r}")


class _Poly:
    """Finite map `terms` from monomials to nonzero field elements.

    Subclasses fix the monomial type, whose degree is its `len`: `_norm`
    turns input into a monomial, `_times` multiplies two, `_key` orders the
    printed terms and `_mono` prints one.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms=None):
        """Coerce every coefficient exactly and sum equal monomials, as a certificate file does."""
        self.field = field
        self.terms = {}
        for mono, coeff in dict(terms or ()).items():
            field.accumulate(self.terms, self._read(mono), field.coerce(coeff))

    @classmethod
    def _read(cls, mono):
        """A monomial from a collection of names; a bare string is refused."""
        if isinstance(mono, str):
            raise AlgebraError(f"monomial {mono!r} is a string, not a collection of names")
        return cls._norm(mono)

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
        return cls._of(field, {cls._norm(()): field.one})

    @classmethod
    def monomial(cls, field, mono, coeff=1):
        return cls(field, {cls._read(mono): coeff})

    def is_zero(self):
        return not self.terms

    def num_monomials(self):
        return len(self.terms)

    def degree(self):
        return max(map(len, self.terms), default=0)

    def __add__(self, other):
        _check_same_field(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            self.field.accumulate(out, m, c)
        return self._of(self.field, out)

    def __neg__(self):
        out = {}
        for m, c in self.terms.items():
            self.field.accumulate(out, m, -c)
        return self._of(self.field, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        self._mul_into(self, other, out)
        return self._of(self.field, out)

    @classmethod
    def _mul_into(cls, a, b, out):
        """Add a * b by this class's product rule into the term dict `out` in
        place; return the largest degree of a product monomial before
        cancellation (0 if none)."""
        _check_same_field(a, b)
        f, times = a.field, cls._times
        top = 0
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = times(m1, m2)
                d = len(m)
                if d > top:
                    top = d
                f.accumulate(out, m, c1 * c2)
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
        degrees = [len(m) for m in self.terms]
        lowest = sorted(self.terms, key=lambda m: (len(m), self._key(m)))[:5]
        return (f"{len(degrees)} monomials of degree {min(degrees)} to {max(degrees)}; "
                f"lowest: {self._format(lowest)}")


class MultilinearPoly(_Poly):
    """Square-free monomials (frozensets of variable names); product by union."""

    __slots__ = ()
    _norm = staticmethod(frozenset)
    _times = staticmethod(frozenset.union)

    @staticmethod
    def _key(m):
        return (len(m), sorted(m))

    @staticmethod
    def _mono(m):
        return "*".join(f"x[{v}]" for v in sorted(m)) or "1"


class ExpPoly(_Poly):
    """Exponent-tracking polynomial for the standard (non-multilinear) setting.

    A monomial is the sorted tuple of its variable names, each repeated once
    per unit of exponent: x^2*y is ("x", "x", "y").
    """

    __slots__ = ()

    @staticmethod
    def _norm(mono):
        return tuple(sorted(mono))

    @staticmethod
    def _times(m1, m2):  # a frozenset factor reads with exponent 1
        return tuple(sorted((*m1, *m2)))

    @staticmethod
    def _key(m):
        """The (name, exponent) pairs, so that x*y sorts before x*x."""
        return tuple((v, len(list(run))) for v, run in groupby(m))

    @classmethod
    def _mono(cls, m):
        return "*".join(f"x[{v}]^{e}" for v, e in cls._key(m)) or "1"

    def clamp(self) -> MultilinearPoly:
        """Multilinearize: send every positive exponent to 1, combine terms."""
        f = self.field
        out = {}
        for m, c in self.terms.items():
            f.accumulate(out, frozenset(m), c)
        return MultilinearPoly._of(f, out)
