"""Pebbling formulas and Nullstellensatz certificates.

A pebbling formula over a single-sink DAG has one axiom per vertex,
A_v = (1 - x_v) * x_pred(v) (so sources get 1 - x_v), plus the sink axiom
A_sink = x_z; a certificate assigns each axiom a multiplier polynomial and is
valid when the multiplied axioms sum to 1.  Size counts multiplier times
axiom monomials before any cancellation; multilinear degree is the set-union
arity over multiplier/axiom monomial pairs, so a compiled certificate has
size = time + 1 and degree = space exactly.

The compiler turns each step of a reversible pebbling prefix into the
telescoping term sign * x_R * A_v with R = P_i - {v_i} - pred(v_i) and closes
with A_sink * x_{P_t' - {z}}.  The extractor walks the configuration graph
whose edges come from sink-free multiplier monomials; configuration weights
follow the signed occurrence accounting (a monomial q of Q_v contributes its
coefficient at W + pred(v) and minus it at W + pred(v) + {v}), under which
the empty configuration weighs 1 and every other sink-free endpoint weighs 0
for a valid certificate.

Each certificate operation is one pass, linear in its number of terms:
verify adds every product term into one coefficient map in both modes
(A_v = x_P - x_{P+v} takes two updates per multiplier term), the compiler
accumulates {R mask: coefficient} per axiom and translates each distinct
mask to vertex names once, JSON loading fills one map per multiplier, and
check_weights sums all configuration weights in one pass over the edges.
Multiplier `terms` stay keyed by vertex names at the API.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter, deque
from dataclasses import dataclass, field as dataclass_field

from .algebra import ExpPoly, Field, MultilinearPoly
from .errors import (
    CertificateError,
    CertificateInvalid,
    NoDesignatedSink,
    NoPathToSink,
    NotMultilinear,
    PebblingError,
    ResultInvalid,
    SinkNeverReached,
    StrategyIllegal,
    UnknownAxiom,
)
from .graphs import Dag
from .pebbling import (
    PLACE,
    REMOVE,
    REVERSIBLE,
    Move,
    Strategy,
    mirror_extend,
    replay,
    verify_strategy,
)

SINK_AXIOM = "sink"

MULTILINEAR = "multilinear"
STANDARD_MODE = "standard"


def vertex_axiom_id(name: str) -> str:
    return f"vertex:{name}"


class PebblingFormula:
    """Axioms and CNF clause view of the pebbling formula over a DAG."""

    def __init__(self, dag: Dag):
        if dag.designated_sink is None or len(dag.sinks) != 1:
            raise NoDesignatedSink("pebbling formula needs a unique designated sink")
        self.dag = dag
        self.sink_name = dag.designated_sink_name
        # axiom id -> (pred names, vertex name or None for the sink axiom)
        self._axioms = {}
        for v, name in enumerate(dag.names):
            preds = frozenset(dag.names[p] for p in dag.preds[v])
            self._axioms[vertex_axiom_id(name)] = (preds, name)
        self._axioms[SINK_AXIOM] = (frozenset({self.sink_name}), None)
        self.axiom_ids = tuple(self._axioms)

    def axiom_poly(self, axiom_id: str, field: Field) -> MultilinearPoly:
        """A_v = x_pred - x_{pred + v}; A_sink = x_z."""
        try:
            preds, vertex = self._axioms[axiom_id]
        except KeyError:
            raise UnknownAxiom(f"unknown axiom {axiom_id!r}") from None
        if vertex is None:
            return MultilinearPoly.monomial(field, preds)
        return MultilinearPoly(field, {preds: 1, preds | {vertex}: -1})

    def axiom_exp_poly(self, axiom_id: str, field: Field) -> ExpPoly:
        return ExpPoly.from_multilinear(self.axiom_poly(axiom_id, field))

    def axiom_monomials(self, axiom_id: str) -> int:
        try:
            _, vertex = self._axioms[axiom_id]
        except KeyError:
            raise UnknownAxiom(f"unknown axiom {axiom_id!r}") from None
        return 1 if vertex is None else 2

    @property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        """DIMACS clause view: variable i+1 for topological index i.

        One implication clause per vertex in topological order (negated
        predecessors ascending, then the vertex), then the negated sink.
        """
        dag = self.dag
        out = []
        for v in range(len(dag)):
            out.append(tuple(-(p + 1) for p in dag.preds[v]) + (v + 1,))
        out.append((-(dag.designated_sink + 1),))
        return tuple(out)

    def to_dimacs(self) -> str:
        clauses = self.clauses
        lines = [f"p cnf {len(self.dag)} {len(clauses)}"]
        for clause in clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"


def pebbling_formula(dag: Dag) -> PebblingFormula:
    return PebblingFormula(dag)


@dataclass(frozen=True)
class Certificate:
    """Per-axiom multiplier polynomials over one field.

    Multilinear mode holds MultilinearPoly multipliers and no Boolean-axiom
    multipliers; standard mode holds ExpPoly multipliers plus optional
    boolean_multipliers mapping variable -> multiplier of (x^2 - x).
    """

    field: Field
    mode: str
    multipliers: dict
    boolean_multipliers: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in (MULTILINEAR, STANDARD_MODE):
            raise CertificateError(f"unknown mode {self.mode!r}")
        if self.mode == MULTILINEAR and self.boolean_multipliers:
            raise CertificateError("multilinear certificates have no Boolean multipliers")


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    size: int
    degree: int
    failure_residual: object = None  # nonzero polynomial sum - 1 when invalid


def verify(formula: PebblingFormula, cert: Certificate) -> VerifyReport:
    """Check the certificate identity and account size and degree.

    Multilinear mode: sum of multilinear products Q_a * A_a must equal 1.
    Standard mode: sum of Q_a * A_a plus s_j * (x_j^2 - x_j) with exact
    exponent arithmetic.  Size counts #mon(Q_a) * #mon(A_a) (+ 2 * #mon(s_j))
    before cancellation; degree is the pairwise set-union arity in multilinear
    mode and the syntactic total degree of each product in standard mode.
    """
    f = cert.field
    for axiom_id in cert.multipliers:
        if axiom_id not in formula._axioms:
            raise UnknownAxiom(f"unknown axiom {axiom_id!r}")

    multilinear = cert.mode == MULTILINEAR
    size = degree = 0
    total = {}  # every product term is added here in place
    for axiom_id, q in cert.multipliers.items():
        if multilinear:
            if not isinstance(q, MultilinearPoly):
                raise NotMultilinear(f"multiplier for {axiom_id!r} is not multilinear")
            axiom = formula.axiom_poly(axiom_id, f)
        else:
            if isinstance(q, MultilinearPoly):
                q = ExpPoly.from_multilinear(q)
            axiom = formula.axiom_exp_poly(axiom_id, f)
        degree = max(degree, q._mul_into(axiom, total))
        size += q.num_monomials() * axiom.num_monomials()
    for var, s in cert.boolean_multipliers.items():
        boolean_axiom = ExpPoly(f, {((var, 2),): 1, ((var, 1),): -1})
        degree = max(degree, s._mul_into(boolean_axiom, total))
        size += 2 * s.num_monomials()
    poly = MultilinearPoly if multilinear else ExpPoly
    residual = poly._of(f, total) - poly.one(f)
    if residual.is_zero():
        return VerifyReport(True, size, degree)
    return VerifyReport(False, size, degree, residual)


def compile_strategy(dag: Dag, strategy: Strategy, field: Field) -> Certificate:
    """Telescoping certificate of the palindromic prefix of a reversible strategy.

    Only the prefix up to the first sink-containing configuration is used;
    trailing moves are ignored with a warning.  For step i on vertex v_i the
    monomial sign * x_{R_i} with R_i = P_i - {v_i} - pred(v_i) joins Q_{v_i}
    (sign +1 for a placement, -1 for a removal), and Q_sink = x_{P_t' - {z}}.
    Verification accepts the result with size 2t'+1 and degree equal to the
    prefix replay space whenever the prefix visits distinct configurations
    (always true for search witnesses).
    """
    if dag.designated_sink is None or len(dag.sinks) != 1:
        raise NoDesignatedSink("certificate compilation needs a unique designated sink")
    if strategy.game != REVERSIBLE:
        raise StrategyIllegal("only reversible strategies compile to certificates")
    try:
        configs = replay(dag, strategy.moves, REVERSIBLE)
    except PebblingError as exc:
        raise StrategyIllegal(str(exc)) from None

    zbit = 1 << dag.designated_sink
    t_prime = next((t for t, m in enumerate(configs) if m & zbit), None)
    if t_prime is None:
        raise SinkNeverReached("strategy never pebbles the sink")
    if len(strategy.moves) > 2 * t_prime:
        warnings.warn(
            f"strategy runs past its palindromic closure; compiling only the "
            f"{t_prime}-move prefix up to the first sink visit", stacklevel=2)

    names = {}  # mask -> frozenset of vertex names, each translated once

    def names_of(mask):
        if mask not in names:
            names[mask] = frozenset(dag.names[i] for i in range(mask.bit_length())
                                    if mask >> i & 1)
        return names[mask]

    plus, minus = field.one, field.neg(field.one)
    terms = {}  # axiom id -> {R mask: coefficient}
    for i in range(1, t_prime + 1):
        move = strategy.moves[i - 1]
        v = dag.index[move.vertex]
        r_mask = configs[i] & ~(1 << v)
        for p in dag.preds[v]:
            r_mask &= ~(1 << p)
        field.accumulate(terms.setdefault(vertex_axiom_id(move.vertex), {}), r_mask,
                         plus if configs[i] > configs[i - 1] else minus)
    multipliers = {axiom_id: MultilinearPoly._of(field, {names_of(m): c for m, c in q.items()})
                   for axiom_id, q in terms.items()}
    multipliers[SINK_AXIOM] = MultilinearPoly._of(
        field, {names_of(configs[t_prime] & ~zbit): field.one})
    return Certificate(field, MULTILINEAR, multipliers)


@dataclass(frozen=True)
class ConfigEdge:
    """Edge of the configuration graph, from monomial x_W of Q_vertex.

    Connects lo = W + pred(v) with hi = lo + {v}; the weight is the monomial
    coefficient and counts positively at lo and negatively at hi.
    """

    lo: frozenset
    hi: frozenset
    weight: object
    vertex: str


class ConfigGraph:
    """Multigraph on pebble configurations induced by a multilinear certificate."""

    def __init__(self, sink_name, field, edges):
        self.sink_name = sink_name
        self.field = field
        self.edges = tuple(edges)

    def weights(self):
        """Signed occurrence weight of every endpoint configuration, in one pass."""
        f = self.field
        out = {}
        for e in self.edges:
            out[e.lo] = f.add(out.get(e.lo, f.zero), e.weight)
            out[e.hi] = f.sub(out.get(e.hi, f.zero), e.weight)
        return out

    def weight(self, config):
        """Signed occurrence weight of a configuration."""
        return self.weights().get(frozenset(config), self.field.zero)

    def adjacency(self):
        adj = {}
        for e in self.edges:
            adj.setdefault(e.lo, set()).add(e.hi)
            adj.setdefault(e.hi, set()).add(e.lo)
        return adj


def config_graph(dag: Dag, cert: Certificate) -> ConfigGraph:
    """Edges from every monomial of Q_v that does not contain x_v.

    Parallel edges are kept; every endpoint has at most degree(cert) pebbles.
    """
    if cert.mode != MULTILINEAR:
        raise NotMultilinear("configuration graphs need a multilinear certificate")
    if dag.designated_sink is None:
        raise NoDesignatedSink("configuration graph needs a designated sink")
    edges = []
    for axiom_id, q in cert.multipliers.items():
        if axiom_id == SINK_AXIOM:
            continue
        name = axiom_id.split(":", 1)[1]
        preds = frozenset(dag.pred_names(name))
        for mono, coeff in q.terms.items():
            if name in mono:
                continue
            lo = mono | preds
            edges.append(ConfigEdge(lo, lo | {name}, coeff, name))
    return ConfigGraph(dag.designated_sink_name, cert.field, edges)


@dataclass(frozen=True)
class WeightReport:
    ok: bool
    empty_weight: object
    violations: tuple  # (configuration, weight) pairs


def check_weights(cg: ConfigGraph) -> WeightReport:
    """Claim-8 style check: weight({}) = 1, sink-free endpoints weigh 0."""
    f = cg.field
    weights = cg.weights()
    empty_weight = weights.get(frozenset(), f.zero)
    violations = [] if empty_weight == f.one else [(frozenset(), empty_weight)]
    for config in sorted(weights, key=lambda c: (len(c), sorted(c))):
        if config and cg.sink_name not in config and weights[config] != f.zero:
            violations.append((config, weights[config]))
    return WeightReport(not violations, empty_weight, tuple(violations))


def extract(dag: Dag, cert: Certificate) -> Strategy:
    """Visiting pebbling read off a valid certificate.

    Multilinearizes standard-mode input, walks the configuration graph from
    the empty configuration to a sink-containing one by BFS, and mirrors the
    path.  Space is at most the certificate degree and time at most size - 1;
    both hold with equality for compiled search witnesses.
    """
    formula = pebbling_formula(dag)
    if cert.mode != MULTILINEAR:
        cert = _clamped(cert)
    report = verify(formula, cert)
    if not report.valid:
        raise CertificateInvalid("certificate does not verify")

    cg = config_graph(dag, cert)
    adj = cg.adjacency()
    start = frozenset()
    if start not in adj:
        raise NoPathToSink("empty configuration touches no edge")
    order = {c: (len(c), sorted(c)) for c in adj}
    parent = {start: None}
    queue = deque([start])
    target = None
    while queue:
        u = queue.popleft()
        if cg.sink_name in u:
            target = u
            break
        for w in sorted(adj[u], key=order.__getitem__):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    if target is None:
        raise NoPathToSink("no path from the empty configuration to the sink")

    path = []
    node = target
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()
    moves = []
    for a, b in zip(path, path[1:]):
        if len(b) > len(a):
            moves.append(Move(PLACE, next(iter(b - a))))
        else:
            moves.append(Move(REMOVE, next(iter(a - b))))
    strategy = mirror_extend(dag, moves)
    verify_strategy(dag, strategy)
    return strategy


def _clamped(cert: Certificate) -> Certificate:
    multipliers = {}
    for axiom_id, q in cert.multipliers.items():
        multipliers[axiom_id] = q.clamp() if isinstance(q, ExpPoly) else q
    return Certificate(cert.field, MULTILINEAR, multipliers)


def multilinearize(formula: PebblingFormula, cert: Certificate) -> Certificate:
    """Clamp exponents and drop Boolean multipliers; size and degree never grow.

    Raises ResultInvalid when the input was not a valid refutation.
    """
    out = _clamped(cert) if cert.mode != MULTILINEAR else cert
    if not verify(formula, out).valid:
        raise ResultInvalid("input certificate was not a valid refutation")
    return out


def _axiom_sort_key(axiom_id):
    return (axiom_id == SINK_AXIOM, axiom_id)


def certificate_to_json(cert: Certificate) -> dict:
    f = cert.field
    data = {
        "field": "rationals" if f.is_rationals else {"prime": f.p},
        "mode": cert.mode,
        "multipliers": [],
    }
    for axiom_id in sorted(cert.multipliers, key=_axiom_sort_key):
        q = cert.multipliers[axiom_id]
        data["multipliers"].append({"axiom": axiom_id, "poly": _poly_to_json(f, q)})
    if cert.boolean_multipliers:
        data["boolean_multipliers"] = [
            {"var": var, "poly": _poly_to_json(f, s)}
            for var, s in sorted(cert.boolean_multipliers.items())
        ]
    return data


def _poly_to_json(f, poly):
    out = []
    if isinstance(poly, MultilinearPoly):
        monos = sorted(poly.terms, key=lambda m: (len(m), sorted(m)))
        for m in monos:
            out.append({"coeff": f.format(poly.terms[m]), "vars": sorted(m)})
    else:
        monos = sorted(poly.terms, key=lambda m: (sum(e for _, e in m), m))
        for m in monos:
            names = [v for v, e in m for _ in range(e)]
            out.append({"coeff": f.format(poly.terms[m]), "vars": names})
    return out


def certificate_from_json(data, field: Field | None = None) -> Certificate:
    try:
        if field is None:
            spec = data["field"]
            field = Field.rationals() if spec == "rationals" else Field.prime(spec["prime"])
        mode = data["mode"]
        multipliers = {}
        for entry in data["multipliers"]:
            multipliers[entry["axiom"]] = _poly_from_json(field, entry["poly"], mode)
        booleans = {}
        for entry in data.get("boolean_multipliers", []):
            booleans[entry["var"]] = _poly_from_json(field, entry["poly"], STANDARD_MODE)
    except (KeyError, TypeError) as exc:
        raise CertificateError(f"malformed certificate JSON: {exc}") from None
    return Certificate(field, mode, multipliers, booleans)


def _vars_from_json(entry):
    names = entry["vars"]
    if not isinstance(names, list) or not all(isinstance(v, (str, int)) for v in names):
        raise CertificateError(f'"vars" must be a list of vertex names, got {names!r}')
    return names


def _poly_from_json(field, entries, mode):
    poly = MultilinearPoly if mode == MULTILINEAR else ExpPoly
    terms = {}
    for e in entries:
        names = _vars_from_json(e)
        mono = (frozenset(names) if poly is MultilinearPoly
                else tuple(sorted(Counter(names).items())))
        field.accumulate(terms, mono, field.parse(e["coeff"]))
    return poly._of(field, terms)


def load_certificate(path, field: Field | None = None) -> Certificate:
    try:
        with open(path) as fh:
            data = json.load(fh)
        return certificate_from_json(data, field)
    except (CertificateError, json.JSONDecodeError) as exc:
        raise CertificateError(f"{path}: {exc}") from None


def save_certificate(cert: Certificate, path) -> None:
    with open(path, "w") as fh:
        json.dump(certificate_to_json(cert), fh, indent=2)
        fh.write("\n")
