"""An independent Nullstellensatz oracle for pebbling formulas, by linear algebra.

The pebbling formula of a DAG with a unique sink z has the axioms
A_v = x_pred(v) * (1 - x_v) and A_sink = x_z.  A multilinear refutation of
degree at most d exists exactly when the constant 1 lies in the span of the
columns x_m * A_a whose monomials have at most d variables.  A column is a
dict from monomial bitmasks (bit i for topological index i) to coefficients;
only monomials m disjoint from the axiom's own variables give distinct
nonzero columns.  Gaussian elimination keys every basis column by its
largest monomial, so 1 is in the span exactly when some basis column has
pivot 0, the empty monomial.

Coefficients are ints mod p over GF(p) and Fractions over Q (p = None).
This module reads only `dag.preds` and `dag.designated_sink`, and shares
no code with pebcert's polynomials, certificates or search.
"""

from fractions import Fraction
from itertools import combinations

SINK = "sink"


def _columns(dag, degree):
    """((axiom, m), column) for every column of exactly `degree` variables;
    axiom is a vertex index or SINK, m the multiplier monomial's bitmask."""
    n, z = len(dag.preds), dag.designated_sink
    for v, preds in enumerate(dag.preds):
        pm = sum(1 << p for p in preds)
        free = [u for u in range(n) if u != v and u not in preds]
        if degree > len(preds):
            for combo in combinations(free, degree - len(preds) - 1):
                m = sum(1 << u for u in combo)
                yield (v, m), {m | pm: 1, m | pm | 1 << v: -1}
    for combo in combinations([u for u in range(n) if u != z], degree - 1):
        m = sum(1 << u for u in combo)
        yield (SINK, m), {m | 1 << z: 1}


class Span:
    """Echelon basis of columns over GF(p), or Q when p is None.

    With `track`, every basis column keeps its combination of the added
    columns (by key), and every added column that reduces to zero leaves a
    null-space combination in `null`.
    """

    def __init__(self, p, track=False):
        self.p = p
        self.track = track
        self.basis = {}  # pivot monomial -> (column with pivot coefficient 1, combination)
        self.null = []

    def _reduce(self, c):
        return Fraction(c) if self.p is None else c % self.p

    def axpy(self, target, a, source):
        """target += a * source in place, dropping zero entries."""
        for k, c in source.items():
            t = self._reduce(target.get(k, 0) + a * c)
            if t:
                target[k] = t
            else:
                target.pop(k, None)

    def add(self, key, column):
        col = {k: self._reduce(c) for k, c in column.items()}
        combo = {key: self._reduce(1)} if self.track else None
        while col:
            pivot = max(col)
            if pivot not in self.basis:
                inv = 1 / col[pivot] if self.p is None else pow(col[pivot], -1, self.p)
                col = {k: self._reduce(c * inv) for k, c in col.items()}
                if self.track:
                    combo = {k: self._reduce(c * inv) for k, c in combo.items()}
                self.basis[pivot] = (col, combo)
                return
            bcol, bcombo = self.basis[pivot]
            factor = -col[pivot]
            self.axpy(col, factor, bcol)
            if self.track:
                self.axpy(combo, factor, bcombo)
        if self.track:
            self.null.append(combo)

    def has_one(self):
        return 0 in self.basis


def min_degree(dag, p):
    """Least d with a multilinear degree-d refutation over GF(p) (Q if p is None)."""
    span = Span(p)
    for d in range(1, len(dag.preds) + 2):
        for key, column in _columns(dag, d):
            span.add(key, column)
        if span.has_one():
            return d
    raise AssertionError("no refutation up to degree n + 1")


def random_refutation(dag, p, degree, rng):
    """{(axiom, m): coefficient} of a refutation of degree at most `degree`: a
    particular solution plus a random combination of the null space."""
    span = Span(p, track=True)
    for d in range(1, degree + 1):
        for key, column in _columns(dag, d):
            span.add(key, column)
    if not span.has_one():
        raise AssertionError(f"no refutation of degree {degree}")
    solution = dict(span.basis[0][1])
    for combo in span.null:
        r = Fraction(rng.randint(-3, 3)) if p is None else rng.randrange(p)
        span.axpy(solution, r, combo)
    return solution
