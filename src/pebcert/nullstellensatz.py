"""Pebbling formulas and Nullstellensatz certificates.

A pebbling formula over a single-sink DAG has one axiom per vertex,
A_v = (1 - x_v) * x_pred(v) (so sources get 1 - x_v), plus the sink axiom
A_sink = x_z; a certificate assigns each axiom a multiplier polynomial and is
valid when the multiplied axioms sum to 1.  Size counts multiplier times
axiom monomials before any cancellation; multilinear degree is the set-union
arity over multiplier/axiom monomial pairs, so a compiled certificate has
size = time + 1 and degree = space exactly.

Every axiom id is decoded by `PebblingFormula.axiom`, the one table that
verify, axiom_poly and config_graph share.  `Certificate` checks its own
shape (mode, multiplier kinds, one field) when built, and `verify` alone
decides validity: `multilinearize` and `extract` judge their input by it.
The compiler turns each step of a reversible pebbling prefix into the
telescoping term sign * x_R * A_v with R = P_i - {v_i} - pred(v_i), read off
the DAG's move table, and closes with A_sink * x_{P_t' - {z}}.  The
extractor walks the configuration graph whose edges come from sink-free
multiplier monomials, closes the path through `pebbling.visiting` and
replays the result once; configuration weights follow the signed occurrence
accounting (a monomial q of Q_v contributes its coefficient at W + pred(v)
and minus it at W + pred(v) + {v}), under which the empty configuration
weighs 1 and every other sink-free endpoint weighs 0 for a valid certificate.

Configurations are bitmasks over topological indices, as in the game and the
search; a multiplier variable outside the DAG (syzygy moves bring such
variables in) gets its own bit above len(dag).  Multiplier `terms` stay keyed
by names, and masks go back to names only through `graphs.mask_names`.  Each
operation is one pass, linear in its number of terms: verify adds every
product term into one coefficient map, the compiler accumulates
{R mask: coefficient} per axiom, and check_weights sums all configuration
weights over the edges and translates only its violations to names.  A
standard-mode monomial is the file's sorted "vars" list, read and written as
is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dataclass_field
from itertools import chain

from .algebra import ExpPoly, Field, MultilinearPoly
from .errors import CertificateError, GraphError, InternalConsistencyError
from .graphs import Dag, _read_json, _write_json, mask_names
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
            raise GraphError("pebbling formula needs a unique designated sink")
        self.dag = dag
        # axiom id -> (pred names, vertex name or None for the sink axiom)
        self._axioms = {}
        for name, (_, pm) in zip(dag.names, dag.toggles):
            self._axioms[vertex_axiom_id(name)] = (mask_names(dag.names, pm), name)
        self._axioms[SINK_AXIOM] = (frozenset({dag.designated_sink_name}), None)
        self.axiom_ids = tuple(self._axioms)

    def axiom(self, axiom_id: str):
        """(pred names, vertex name) of a vertex axiom; ({z}, None) for the sink axiom."""
        try:
            return self._axioms[axiom_id]
        except KeyError:
            raise CertificateError(f"unknown axiom {axiom_id!r}") from None

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
    """Per-axiom multiplier polynomials over one field; the one shape check.

    Multilinear mode holds MultilinearPoly multipliers and no Boolean-axiom
    multipliers; standard mode holds MultilinearPoly or ExpPoly multipliers
    and boolean_multipliers (variable -> multiplier of x^2 - x) of either
    kind.  Every polynomial is over `field`.
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
        kinds = MultilinearPoly if self.mode == MULTILINEAR else (MultilinearPoly, ExpPoly)
        for key, q in chain(self.multipliers.items(), self.boolean_multipliers.items()):
            if not isinstance(q, kinds):
                raise CertificateError(f"multiplier for {key!r} is not a {self.mode} polynomial")
            if q.field != self.field:
                raise CertificateError(f"multiplier for {key!r} is over {q.field!r}")


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
    Every (multiplier, axiom) pair goes through the one product rule of the
    mode's polynomial class, whatever the factors' own kinds: in standard mode
    a multilinear factor reads with exponent 1, and no factor is converted.
    """
    f = cert.field
    poly = MultilinearPoly if cert.mode == MULTILINEAR else ExpPoly
    size = degree = 0
    total = {}  # every product term is added here in place
    products = chain(((q, formula.axiom_poly(a, f)) for a, q in cert.multipliers.items()),
                     ((s, ExpPoly(f, {(var, var): 1, (var,): -1}))
                      for var, s in cert.boolean_multipliers.items()))
    for q, axiom in products:
        degree = max(degree, poly._mul_into(q, axiom, total))
        size += q.num_monomials() * axiom.num_monomials()
    f.accumulate(total, poly._norm(()), -f.one)  # total becomes sum - 1
    if not total:
        return VerifyReport(True, size, degree)
    return VerifyReport(False, size, degree, poly._of(f, total))


def compile_strategy(dag: Dag, strategy: Strategy, field: Field) -> Certificate:
    """Telescoping certificate of the palindromic prefix of a reversible strategy.

    The strategy is read up to its first sink-containing configuration, the
    half that `pebbling.visiting` keeps; the moves after it are replayed for
    legality but not compiled.  For step i on vertex v_i the monomial
    sign * x_{R_i} with R_i = P_i - {v_i} - pred(v_i) joins Q_{v_i} (sign +1
    for a placement, -1 for a removal), and Q_sink = x_{P_t' - {z}}.
    Verification accepts the result with size 2t'+1 and degree equal to the
    prefix replay space whenever the prefix visits distinct configurations
    (always true for search witnesses).  An illegal move raises IllegalMoveAt
    with its step.
    """
    if dag.designated_sink is None or len(dag.sinks) != 1:
        raise GraphError("certificate compilation needs a unique designated sink")
    if strategy.game != REVERSIBLE:
        raise CertificateError("only reversible strategies compile to certificates")
    configs = replay(dag, strategy.moves, REVERSIBLE)

    zbit = 1 << dag.designated_sink
    t_prime = next((t for t, m in enumerate(configs) if m & zbit), None)
    if t_prime is None:
        raise CertificateError("strategy never pebbles the sink")

    plus, minus = field.one, field.coerce(-1)
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
        """Nonzero signed occurrence weight of endpoint masks, in one pass."""
        f = self.field
        out = {}
        for lo, hi, weight in self.edges:
            f.accumulate(out, lo, weight)
            f.accumulate(out, hi, -weight)
        return out


def config_graph(dag: Dag, cert: Certificate) -> ConfigGraph:
    """Edges from every monomial of Q_v that does not contain x_v.

    Parallel edges are kept; every endpoint has at most degree(cert) pebbles.
    Axiom ids are read through the pebbling formula, so the graph needs a
    unique designated sink.
    """
    if cert.mode != MULTILINEAR:
        raise CertificateError("configuration graphs need a multilinear certificate")
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


def check_weights(cg: ConfigGraph) -> WeightReport:
    """Claim-8 style check: weight({}) = 1, sink-free endpoints weigh 0."""
    f = cg.field
    zbit = 1 << cg.sink
    weights = cg.weights()
    empty_weight = weights.get(0, f.zero)
    violations = [] if empty_weight == f.one else [(frozenset(), empty_weight)]
    violations += sorted(((mask_names(cg.names, c), w) for c, w in weights.items()
                          if c and not c & zbit),
                         key=lambda cw: MultilinearPoly._key(cw[0]))
    return WeightReport(not violations, empty_weight, tuple(violations))


def extract(dag: Dag, cert: Certificate) -> Strategy:
    """Visiting pebbling read off a valid certificate.

    Reads its input through `multilinearize`, then walks the configuration
    graph from the empty configuration to a sink-containing one by BFS and
    mirrors the path.  Neighbours are visited in (size, sorted names) order.  Space is at
    most the certificate degree and time at most size - 1; both hold with
    equality for compiled search witnesses.
    """
    cert = multilinearize(pebbling_formula(dag), cert)
    cg = config_graph(dag, cert)
    adj = {}
    for lo, hi, _ in cg.edges:
        adj.setdefault(lo, set()).add(hi)
        adj.setdefault(hi, set()).add(lo)
    if 0 not in adj:
        raise InternalConsistencyError("empty configuration touches no edge")
    zbit = 1 << dag.designated_sink
    parent = {0: None}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        if u & zbit:
            break
        fresh = [w for w in adj[u] if w not in parent]
        if len(fresh) > 1:  # each endpoint is keyed at most once, when first reached
            fresh.sort(key=lambda c: MultilinearPoly._key(mask_names(cg.names, c)))
        for w in fresh:
            parent[w] = u
            queue.append(w)
    else:
        raise InternalConsistencyError("no path from the empty configuration to the sink")

    moves = []
    while parent[u] is not None:
        a = parent[u]
        moves.append(Move(PLACE if u > a else REMOVE, dag.names[(a ^ u).bit_length() - 1]))
        u = a
    strategy = visiting(reversed(moves), dag.designated_sink_name)
    verify_strategy(dag, strategy)
    return strategy


def multilinearize(formula: PebblingFormula, cert: Certificate) -> Certificate:
    """Clamp exponents and drop Boolean multipliers; size and degree never grow.

    `verify` judges `cert` as given; if it fails, CertificateError("certificate
    does not verify; residual: ...").  Multilinear input comes back unchanged.
    Clamping is a ring homomorphism modulo x_j^2 - x_j, so the clamped copy of
    a valid standard refutation is valid: its check guards an identity.
    """
    report = verify(formula, cert)
    if not report.valid:
        raise CertificateError(
            f"certificate does not verify; residual: {report.failure_residual.summary()}")
    if cert.mode == MULTILINEAR:
        return cert
    out = Certificate(cert.field, MULTILINEAR, {a: q.clamp() if isinstance(q, ExpPoly) else q
                                                for a, q in cert.multipliers.items()})
    if not verify(formula, out).valid:
        raise InternalConsistencyError("the clamped copy of a valid certificate does not verify")
    return out


def certificate_to_json(cert: Certificate) -> dict:
    f = cert.field
    data = {
        "field": "rationals" if f.is_rationals else {"prime": f.p},
        "mode": cert.mode,
        "multipliers": [{"axiom": a, "poly": _poly_to_json(cert.multipliers[a])}
                        for a in sorted(cert.multipliers, key=lambda a: (a == SINK_AXIOM, a))],
    }
    if cert.boolean_multipliers:
        data["boolean_multipliers"] = [
            {"var": var, "poly": _poly_to_json(s)}
            for var, s in sorted(cert.boolean_multipliers.items())
        ]
    return data


def _poly_to_json(poly):
    """Terms by degree, then by the polynomial's `_key`; "vars" is the sorted names."""
    if isinstance(poly, MultilinearPoly):  # its _key is (degree, sorted names): sort once
        rows = sorted((len(m), sorted(m), c) for m, c in poly.terms.items())
    else:  # an ExpPoly monomial is sorted already
        rows = sorted((len(m), poly._key(m), list(m), c) for m, c in poly.terms.items())
    return [{"coeff": str(row[-1]), "vars": row[-2]} for row in rows]


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


def _poly_from_json(field, entries, mode):
    poly = MultilinearPoly if mode == MULTILINEAR else ExpPoly
    terms = {}
    parsed = {}  # coefficient text -> element; a text is parsed once per polynomial
    for e in entries:
        names = e["vars"]
        if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
            raise CertificateError(f'"vars" must be a list of name strings, got {names!r}')
        mono = poly._norm(names)
        text = e["coeff"]
        if isinstance(text, str) and text in parsed:
            coeff = parsed[text]
        else:  # anything but a string fails in `parse` with its own TypeError
            try:
                coeff = parsed[text] = field.parse(text)
            except (ValueError, ZeroDivisionError):
                raise CertificateError(f"invalid coefficient {text!r}") from None
        field.accumulate(terms, mono, coeff)
    return poly._of(field, terms)


def load_certificate(path, field: Field | None = None) -> Certificate:
    return _read_json(path, lambda data: certificate_from_json(data, field), CertificateError)


def save_certificate(cert: Certificate, path) -> None:
    _write_json(certificate_to_json(cert), path)
