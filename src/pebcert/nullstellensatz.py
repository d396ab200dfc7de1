"""Pebbling formulas and Nullstellensatz certificates.

A pebbling formula over a single-sink DAG has one axiom per vertex,
A_v = (1 - x_v) * x_pred(v) (so sources get 1 - x_v), plus the sink axiom
A_sink = x_z; a certificate assigns each axiom a multiplier polynomial and is
valid when the multiplied axioms sum to 1.  Size counts multiplier times
axiom monomials before any cancellation; multilinear degree is the set-union
arity over multiplier/axiom monomial pairs, so a compiled certificate has
size = time + 1 and degree = space exactly.

Every axiom id is decoded by `PebblingFormula.axiom`, the one table that
verify, axiom_poly and config_graph share.  The compiler turns each step of a
reversible pebbling prefix into the telescoping term sign * x_R * A_v with
R = P_i - {v_i} - pred(v_i), read off the DAG's move table, and closes with
A_sink * x_{P_t' - {z}}.  The extractor walks the configuration graph whose
edges come from sink-free multiplier monomials, closes the path through
`pebbling.visiting` and replays the result once; configuration weights follow
the signed occurrence accounting (a monomial q of Q_v contributes its
coefficient at W + pred(v) and minus it at W + pred(v) + {v}), under which
the empty configuration weighs 1 and every other sink-free endpoint weighs 0
for a valid certificate.

Configurations are bitmasks over topological indices, as in the game and the
search; a multiplier variable outside the DAG (syzygy moves bring such
variables in) gets its own bit above len(dag).  Multiplier `terms` stay keyed
by names, and masks go back to names only through `graphs.mask_names`.  Each
operation is one pass, linear in its number of terms: verify adds every
product term into one coefficient map, the compiler accumulates
{R mask: coefficient} per axiom, and check_weights sums all configuration
weights over the edges and translates only its violations to names.
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
from .graphs import Dag, mask_names
from .pebbling import (
    PLACE,
    REMOVE,
    REVERSIBLE,
    Move,
    Strategy,
    replay,
    verify_strategy,
    visiting,
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
        for name, (_, pm) in zip(dag.names, dag.toggles):
            self._axioms[vertex_axiom_id(name)] = (mask_names(dag.names, pm), name)
        self._axioms[SINK_AXIOM] = (frozenset({self.sink_name}), None)
        self.axiom_ids = tuple(self._axioms)

    def axiom(self, axiom_id: str):
        """(pred names, vertex name) of a vertex axiom; ({z}, None) for the sink axiom."""
        try:
            return self._axioms[axiom_id]
        except KeyError:
            raise UnknownAxiom(f"unknown axiom {axiom_id!r}") from None

    def axiom_poly(self, axiom_id: str, field: Field) -> MultilinearPoly:
        """A_v = x_pred - x_{pred + v}; A_sink = x_z."""
        preds, vertex = self.axiom(axiom_id)
        if vertex is None:
            return MultilinearPoly.monomial(field, preds)
        return MultilinearPoly(field, {preds: 1, preds | {vertex}: -1})

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
        formula.axiom(axiom_id)

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
            axiom = ExpPoly.from_multilinear(formula.axiom_poly(axiom_id, f))
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

    Only the prefix up to the first sink-containing configuration is used.
    Moves past its closure, the prefix and its mirror that `pebbling.visiting`
    builds, are ignored with a warning.  For step i on vertex v_i the monomial
    sign * x_{R_i} with R_i = P_i - {v_i} - pred(v_i) joins Q_{v_i} (sign +1
    for a placement, -1 for a removal), and Q_sink = x_{P_t' - {z}}.
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

    plus, minus = field.one, field.neg(field.one)
    terms = {}  # axiom id -> {R mask: coefficient}
    for i in range(1, t_prime + 1):
        name = strategy.moves[i - 1].vertex
        bit, pm = dag.toggles[dag.index[name]]
        field.accumulate(terms.setdefault(vertex_axiom_id(name), {}),
                         configs[i] & ~(bit | pm),
                         plus if configs[i] > configs[i - 1] else minus)
    multipliers = {axiom_id: MultilinearPoly._of(field, {mask_names(dag.names, m): c
                                                         for m, c in q.items()})
                   for axiom_id, q in terms.items()}
    multipliers[SINK_AXIOM] = MultilinearPoly._of(
        field, {mask_names(dag.names, configs[t_prime] & ~zbit): field.one})
    return Certificate(field, MULTILINEAR, multipliers)


class ConfigGraph:
    """Multigraph on pebble configurations induced by a multilinear certificate.

    Bit i of a configuration mask is names[i]: the DAG's vertices (the sink
    at bit `sink`), then the multiplier variables outside the DAG in order of
    first appearance.  Each sink-free multiplier term c*x_W of Q_v is one
    edge (lo, hi, c) with lo = W + pred(v) and hi = lo + {v}; c counts at lo
    and -c at hi.
    """

    def __init__(self, names, sink, field, edges):
        self.names = names
        self.sink = sink
        self.field = field
        self.edges = tuple(edges)

    def weights(self):
        """Signed occurrence weight of every endpoint mask, in one pass."""
        f = self.field
        out = {}
        for lo, hi, weight in self.edges:
            out[lo] = f.add(out.get(lo, f.zero), weight)
            out[hi] = f.sub(out.get(hi, f.zero), weight)
        return out

    def weight(self, config):
        """Signed occurrence weight of a configuration given by its names."""
        config = frozenset(config)
        return next((w for c, w in self.weights().items()
                     if mask_names(self.names, c) == config), self.field.zero)


def config_graph(dag: Dag, cert: Certificate) -> ConfigGraph:
    """Edges from every monomial of Q_v that does not contain x_v.

    Parallel edges are kept; every endpoint has at most degree(cert) pebbles.
    Axiom ids are read through the pebbling formula, so the graph needs a
    unique designated sink.
    """
    if cert.mode != MULTILINEAR:
        raise NotMultilinear("configuration graphs need a multilinear certificate")
    formula = pebbling_formula(dag)
    bits = {name: 1 << i for i, name in enumerate(dag.names)}
    edges = []
    for axiom_id, q in cert.multipliers.items():
        name = formula.axiom(axiom_id)[1]
        if name is None:
            continue
        bit, pm = dag.toggles[dag.index[name]]
        for mono, coeff in q.terms.items():
            # a variable outside the DAG takes the next free bit
            lo = sum(bits.setdefault(var, 1 << len(bits)) for var in mono)
            if not lo & bit:
                lo |= pm
                edges.append((lo, lo | bit, coeff))
    return ConfigGraph(tuple(bits), dag.designated_sink, cert.field, edges)


@dataclass(frozen=True)
class WeightReport:
    ok: bool
    empty_weight: object
    violations: tuple  # (configuration names, weight) pairs


def _config_key(config):
    return (len(config), sorted(config))


def check_weights(cg: ConfigGraph) -> WeightReport:
    """Claim-8 style check: weight({}) = 1, sink-free endpoints weigh 0."""
    f = cg.field
    zbit = 1 << cg.sink
    weights = cg.weights()
    empty_weight = weights.get(0, f.zero)
    violations = [] if empty_weight == f.one else [(frozenset(), empty_weight)]
    violations += sorted(((mask_names(cg.names, c), w) for c, w in weights.items()
                          if c and not c & zbit and w != f.zero),
                         key=lambda cw: _config_key(cw[0]))
    return WeightReport(not violations, empty_weight, tuple(violations))


def extract(dag: Dag, cert: Certificate) -> Strategy:
    """Visiting pebbling read off a valid certificate.

    Multilinearizes standard-mode input, walks the configuration graph from
    the empty configuration to a sink-containing one by BFS, and mirrors the
    path.  Neighbours are visited in (size, sorted names) order.  Space is at
    most the certificate degree and time at most size - 1; both hold with
    equality for compiled search witnesses.
    """
    formula = pebbling_formula(dag)
    if cert.mode != MULTILINEAR:
        cert = _clamped(cert)
    report = verify(formula, cert)
    if not report.valid:
        raise CertificateInvalid("certificate does not verify")

    cg = config_graph(dag, cert)
    adj = {}
    for lo, hi, _ in cg.edges:
        adj.setdefault(lo, set()).add(hi)
        adj.setdefault(hi, set()).add(lo)
    if 0 not in adj:
        raise NoPathToSink("empty configuration touches no edge")
    zbit = 1 << dag.designated_sink
    parent = {0: None}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        if u & zbit:
            break
        fresh = [w for w in adj[u] if w not in parent]
        if len(fresh) > 1:  # each endpoint is keyed at most once, when first reached
            fresh.sort(key=lambda c: _config_key(mask_names(cg.names, c)))
        for w in fresh:
            parent[w] = u
            queue.append(w)
    else:
        raise NoPathToSink("no path from the empty configuration to the sink")

    moves = []
    while parent[u] is not None:
        a = parent[u]
        moves.append(Move(PLACE if u > a else REMOVE, dag.names[(a ^ u).bit_length() - 1]))
        u = a
    strategy = visiting(reversed(moves), dag.designated_sink_name)
    verify_strategy(dag, strategy)
    return strategy


def _clamped(cert: Certificate) -> Certificate:
    return Certificate(cert.field, MULTILINEAR, {
        axiom_id: q.clamp() if isinstance(q, ExpPoly) else q
        for axiom_id, q in cert.multipliers.items()})


def multilinearize(formula: PebblingFormula, cert: Certificate) -> Certificate:
    """Clamp exponents and drop Boolean multipliers; size and degree never grow.

    Raises ResultInvalid when the input was not a valid refutation.
    """
    out = _clamped(cert) if cert.mode != MULTILINEAR else cert
    if not verify(formula, out).valid:
        raise ResultInvalid("input certificate was not a valid refutation")
    return out


def certificate_to_json(cert: Certificate) -> dict:
    f = cert.field
    data = {
        "field": "rationals" if f.is_rationals else {"prime": f.p},
        "mode": cert.mode,
        "multipliers": [{"axiom": a, "poly": _poly_to_json(f, cert.multipliers[a])}
                        for a in sorted(cert.multipliers, key=lambda a: (a == SINK_AXIOM, a))],
    }
    if cert.boolean_multipliers:
        data["boolean_multipliers"] = [
            {"var": var, "poly": _poly_to_json(f, s)}
            for var, s in sorted(cert.boolean_multipliers.items())
        ]
    return data


def _poly_to_json(f, poly):
    if isinstance(poly, MultilinearPoly):
        return [{"coeff": f.format(poly.terms[m]), "vars": sorted(m)}
                for m in sorted(poly.terms, key=_config_key)]
    return [{"coeff": f.format(poly.terms[m]), "vars": [v for v, e in m for _ in range(e)]}
            for m in sorted(poly.terms, key=lambda m: (sum(e for _, e in m), m))]


def certificate_from_json(data, field: Field | None = None) -> Certificate:
    try:
        if field is None:
            spec = data["field"]
            field = Field.rationals() if spec == "rationals" else Field.prime(spec["prime"])
        mode = data["mode"]
        multipliers = {}
        for entry in data["multipliers"]:
            if entry["axiom"] in multipliers:
                raise CertificateError(f'repeated "axiom" {entry["axiom"]!r}')
            multipliers[entry["axiom"]] = _poly_from_json(field, entry["poly"], mode)
        booleans = {}
        for entry in data.get("boolean_multipliers", []):
            if not isinstance(entry["var"], str):
                raise CertificateError(f'"var" must be a name string, got {entry["var"]!r}')
            if entry["var"] in booleans:
                raise CertificateError(f'repeated "var" {entry["var"]!r}')
            booleans[entry["var"]] = _poly_from_json(field, entry["poly"], STANDARD_MODE)
    except (KeyError, TypeError) as exc:
        raise CertificateError(f"malformed certificate JSON: {exc}") from None
    return Certificate(field, mode, multipliers, booleans)


def _vars_from_json(entry):
    names = entry["vars"]
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise CertificateError(f'"vars" must be a list of name strings, got {names!r}')
    return names


def _poly_from_json(field, entries, mode):
    poly = MultilinearPoly if mode == MULTILINEAR else ExpPoly
    terms = {}
    for e in entries:
        names = _vars_from_json(e)
        mono = (frozenset(names) if poly is MultilinearPoly
                else tuple(sorted(Counter(names).items())))
        try:
            coeff = field.parse(e["coeff"])
        except (ValueError, ZeroDivisionError):
            raise CertificateError(f"invalid coefficient {e['coeff']!r}") from None
        field.accumulate(terms, mono, coeff)
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
