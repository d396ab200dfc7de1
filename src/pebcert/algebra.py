"""Exact field arithmetic and sparse polynomials over vertex variables.

Two polynomial representations: MultilinearPoly maps square-free monomials
(frozensets of variable names) to nonzero field elements, multiplying by set
union; ExpPoly tracks exponents for the standard, non-multilinear setting and
clamps down to a MultilinearPoly.  No floating point anywhere: prime-field
elements are ints mod p, rational elements are fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatch, ModulusTooLarge, NotPrime


# The first 13 primes.  As Miller-Rabin bases they decide primality exactly
# below _MR_LIMIT (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


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

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None and not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p

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

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def parse(self, s: str):
        """Decimal string, rationals also as \"a/b\"."""
        if self.p is None:
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


class MultilinearPoly:
    """Finite map from square-free monomials to nonzero field elements."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms=None):
        self.field = field
        self.terms = {}
        if terms:
            for mono, coeff in dict(terms).items():
                c = field.coerce(coeff)
                if c != field.zero:
                    self.terms[frozenset(mono)] = c

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def one(cls, field):
        return cls(field, {frozenset(): 1})

    @classmethod
    def monomial(cls, field, variables, coeff=1):
        return cls(field, {frozenset(variables): coeff})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {frozenset(): self.field.one}

    def num_monomials(self):
        return len(self.terms)

    def degree(self):
        return max((len(m) for m in self.terms), default=0)

    def variables(self):
        out = set()
        for m in self.terms:
            out |= m
        return out

    def coefficient(self, variables):
        return self.terms.get(frozenset(variables), self.field.zero)

    def __add__(self, other):
        _check_same_field(self, other)
        f = self.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = f.add(out.get(m, f.zero), c)
            if s == f.zero:
                out.pop(m, None)
            else:
                out[m] = s
        return MultilinearPoly(f, out)

    def __neg__(self):
        f = self.field
        return MultilinearPoly(f, {m: f.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Multilinear product: exponents clamp to 1 via monomial union."""
        _check_same_field(self, other)
        f = self.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 | m2
                s = f.add(out.get(m, f.zero), f.mul(c1, c2))
                if s == f.zero:
                    out.pop(m, None)
                else:
                    out[m] = s
        return MultilinearPoly(f, out)

    def scale(self, coeff):
        f = self.field
        c = f.coerce(coeff)
        return MultilinearPoly(f, {m: f.mul(v, c) for m, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (len(m), sorted(m))):
            mono = "*".join(f"x[{v}]" for v in sorted(m)) or "1"
            parts.append(f"{self.terms[m]}*{mono}")
        return " + ".join(parts)


def multilinear_product(p: MultilinearPoly, q: MultilinearPoly) -> MultilinearPoly:
    """Product with every exponent clamped to 1 and zero terms pruned."""
    return p * q


class ExpPoly:
    """Exponent-tracking polynomial for the standard (non-multilinear) setting.

    Monomials are sorted tuples of (variable, exponent >= 1) pairs.
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

    @staticmethod
    def _norm(mono):
        return tuple(sorted((v, int(e)) for v, e in mono if int(e) > 0))

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def one(cls, field):
        return cls(field, {(): 1})

    @classmethod
    def monomial(cls, field, pairs, coeff=1):
        return cls(field, {tuple(pairs): coeff})

    @classmethod
    def from_multilinear(cls, poly: MultilinearPoly) -> "ExpPoly":
        return cls(poly.field,
                   {tuple((v, 1) for v in sorted(m)): c for m, c in poly.terms.items()})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(): self.field.one}

    def num_monomials(self):
        return len(self.terms)

    def total_degree(self):
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def __add__(self, other):
        _check_same_field(self, other)
        f = self.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = f.add(out.get(m, f.zero), c)
            if s == f.zero:
                out.pop(m, None)
            else:
                out[m] = s
        return ExpPoly(f, out)

    def __neg__(self):
        f = self.field
        return ExpPoly(f, {m: f.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _check_same_field(self, other)
        f = self.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                exps = dict(m1)
                for v, e in m2:
                    exps[v] = exps.get(v, 0) + e
                m = tuple(sorted(exps.items()))
                s = f.add(out.get(m, f.zero), f.mul(c1, c2))
                if s == f.zero:
                    out.pop(m, None)
                else:
                    out[m] = s
        return ExpPoly(f, out)

    def clamp(self) -> MultilinearPoly:
        """Multilinearize: send every positive exponent to 1, combine terms."""
        f = self.field
        out = {}
        for m, c in self.terms.items():
            key = frozenset(v for v, _ in m)
            s = f.add(out.get(key, f.zero), c)
            if s == f.zero:
                out.pop(key, None)
            else:
                out[key] = s
        return MultilinearPoly(f, out)

    def __eq__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            mono = "*".join(f"x[{v}]^{e}" for v, e in m) or "1"
            parts.append(f"{self.terms[m]}*{mono}")
        return " + ".join(parts)
