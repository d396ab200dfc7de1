"""Pebbling formulas and Nullstellensatz certificates.

A pebbling formula over a single-sink DAG has one axiom per vertex,
A_v = (1 - x_v) * x_pred(v) (so sources get 1 - x_v), plus the sink axiom
A_sink = x_z; a certificate assigns each axiom a multiplier polynomial and is
valid when the multiplied axioms sum to 1.  Size counts multiplier times
axiom monomials before any cancellation; multilinear degree is the set-union
arity over multiplier/axiom monomial pairs.  A certificate compiled from a
prefix of t' moves has size at most 2t'+1, its visiting time plus 1, and
degree at most its space, both with equality when the prefix visits no
configuration twice.  A search witness never does; the library's
bit-reversal and Carlson-Savage strategies do.

Every axiom id is decoded by `PebblingFormula.axiom`, the one table that
verify, axiom_poly and config_graph share: A_v is its move-table entry
`Dag.toggles[v]`, and A_sink is (0, {z}).  Every record is a named tuple,
equal to the tuple of its fields.  `Certificate` checks its own shape (mode,
dict maps, string keys, multiplier kinds, one field) whenever one is built,
and `verify` alone decides validity: `multilinearize` and `extract` judge
their input by its body, `_judge`.  The compiler turns each step of a
reversible pebbling prefix into the telescoping term sign * x_R * A_v with
R = P_i - {v_i} - pred(v_i), v_i read off P_i ^ P_{i-1} of the replay, and
closes with A_sink * x_{P_t' - {z}}.  The extractor walks the configuration
graph, whose edges are the terms c*x_W of the vertex multipliers Q_v with v
not in W (z in W or not), on the masks of the check that judged the
multilinear certificate, closes the path through `pebbling.visiting` and
replays the result once; configuration weights follow the signed occurrence
accounting (a monomial q of Q_v contributes its coefficient at W + pred(v)
and minus it at W + pred(v) + {v}), under which the empty configuration
weighs 1 and every other sink-free endpoint weighs 0 for a valid certificate.

Configurations are bitmasks over topological indices, as in the game and the
search, and a multilinear monomial x_W is the mask of W under `_masks`'
variable table: the DAG's names, then each variable outside the DAG (syzygy
moves bring such variables in) at the next free bit, in order of first
appearance.  `_masks` alone masks a multilinear certificate: it reads every
axiom id, then masks each distinct monomial once, and gives each axiom's
entry (bit, pm) with its multiplier and the masks.  Its callers loop over
the entries themselves, a term x_W of Q_a at `masks[W] | pm`: verify's
judge, whose masks `extract` walks, and `config_graph`, which leaves out
Q_sink.  Multiplier `terms` stay keyed by names, and masks go back to names
only through `graphs.mask_names`.  Each operation is one pass, linear
in its number of terms: verify adds every term as a plain int into one map
keyed by ints, masks in multilinear mode and exponent codes in standard mode,
the compiler accumulates {R mask: coefficient} per vertex, and check_weights
sums all configuration weights over the edges as ints on masks and
translates only its violations to names.  Both checks take their ints from
`Field.scaled` and reduce each key's sum once through `Field.unscaled`, so
no term pays a `Fraction` operation over Q.  A standard-mode monomial is the
file's sorted "vars" list, read and written as is; verify alone codes it,
one digit per variable, and `_code` at width 1 is `_masks`' mask.  A
certificate repeats few names and monomials over many terms, so it
holds one object for each: the compiler turns each distinct R mask into
names once, over the DAG's own name strings, and the reader keeps one table
per certificate from each distinct "vars" list to its monomial and from each
name to its string.  `multilinearize` clamps and `_masks` masks each
distinct monomial once per call, `extract`'s included, and the writer,
which renders the file text without building the document, sorts it and
renders its "vars" text once.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import NamedTuple

from .algebra import ExpPoly, Field, MultilinearPoly
from .errors import AlgebraError, CertificateError, GraphError, InternalConsistencyError
from .graphs import Dag, _quote, _read_json, _write_text, mask_names
from .pebbling import (
    REVERSIBLE,
    Strategy,
    _check_kind,
    _steps,
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
        # axiom id -> its move-table entry (bit, pred mask)
        self._axioms = dict(zip(map(vertex_axiom_id, dag.names), dag.toggles))
        self._axioms[SINK_AXIOM] = (0, 1 << dag.designated_sink)
        self.axiom_ids = tuple(self._axioms)

    def axiom(self, axiom_id: str):
        """Move-table entry (bit, pred mask): `Dag.toggles[v]` for A_v, (0, {z}) for A_sink."""
        try:
            return self._axioms[axiom_id]
        except (KeyError, TypeError):  # an unhashable id is unknown too
            raise CertificateError(f"unknown axiom {axiom_id!r}") from None

    def axiom_poly(self, axiom_id: str, field: Field) -> MultilinearPoly:
        """A_v = x_pred - x_{pred + v}; A_sink = x_z: the axiom's entry, named."""
        bit, pm = self.axiom(axiom_id)
        terms = {mask_names(self.dag.names, pm): 1}
        if bit:
            terms[mask_names(self.dag.names, pm | bit)] = -1
        return MultilinearPoly(field, terms)

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


class Certificate(NamedTuple("Certificate", [("field", Field), ("mode", str),
                                             ("multipliers", dict),
                                             ("boolean_multipliers", dict)])):
    """Per-axiom multiplier polynomials over one field; the one shape check.

    Multilinear mode holds MultilinearPoly multipliers and no Boolean-axiom
    multipliers; standard mode holds MultilinearPoly or ExpPoly multipliers
    and boolean_multipliers (variable -> multiplier of x^2 - x; a new {} by
    default) of either kind.  Both maps are dicts, every key, an axiom id or
    a variable name, is a `str`, and every polynomial is over `field`.  A
    named tuple: every construction, copies and `_replace` included, goes
    through the check, and it is unhashable, as its maps are.
    """

    __slots__ = ()

    def __new__(cls, field: Field, mode: str, multipliers: dict, boolean_multipliers=None):
        booleans = {} if boolean_multipliers is None else boolean_multipliers
        if mode not in (MULTILINEAR, STANDARD_MODE):
            raise CertificateError(f"unknown mode {mode!r}")
        for what, value in (("multipliers", multipliers), ("boolean_multipliers", booleans)):
            if not isinstance(value, dict):
                raise CertificateError(f"{what} must be a dict, got {type(value).__name__}")
        if mode == MULTILINEAR and booleans:
            raise CertificateError("multilinear certificates have no Boolean multipliers")
        kinds = MultilinearPoly if mode == MULTILINEAR else (MultilinearPoly, ExpPoly)
        for key, q in chain(multipliers.items(), booleans.items()):
            if not isinstance(key, str):
                raise CertificateError(f"multiplier key {key!r} is not a string")
            if not isinstance(q, kinds):
                raise CertificateError(f"multiplier for {key!r} is not a {mode} polynomial")
            if q.field != field:
                raise CertificateError(f"multiplier for {key!r} is over {q.field!r}")
        return super().__new__(cls, field, mode, multipliers, booleans)

    @classmethod
    def _make(cls, fields):  # the named tuple's own `_make` would skip the check
        return cls(*fields)


class VerifyReport(NamedTuple):
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
    Every axiom id is read before any term is added, and every term is added
    as a plain int at the field's scale (`Field.scaled`) on an int key.  A
    key whose int sum cancels leaves at once, each other key's sum is reduced
    once at the end (`Field.unscaled`), and names come back only for the
    failure residual.  Multilinear mode adds on the masks of `_masks`, the
    ones that `config_graph` and `extract` read: a term c*x_W of Q_v adds c
    at W + pred(v) and -c at W + pred(v) + {v}, one of Q_sink adds c at
    W + {z}.  Standard mode keys a monomial by its `_code`, over the DAG's
    names and then each variable outside it, as in `_masks`' table, each in
    a digit wide enough for any exponent of a product.  A product is the sum
    of its factors' codes and its degree the sum of their `len`s, and the
    Boolean axiom of x_j adds 2*e_j and -e_j for x_j's digit e_j; a
    multilinear factor reads with exponent 1, and no factor is converted.
    """
    return _judge(formula, cert)[0]


def _judge(formula, cert):
    """`verify`'s report, and in multilinear mode the masked view it added
    on: (`_masks`' entries, its masks, the names of its bits); None in
    standard mode."""
    f = cert.field
    polys = [*cert.multipliers.values(), *cert.boolean_multipliers.values()]
    scale, ints = f.scaled([c for q in polys for c in q.terms.values()])
    size = degree = 0
    # sum - 1, each term added as an int at `scale`; every term's int is
    # nonzero, so a sum that cancels is a present key's, deleted at once
    total = {0: -scale}
    get = total.get
    ints = iter(ints)
    if cert.mode == MULTILINEAR:
        bits = {name: 1 << i for i, name in enumerate(formula.dag.names)}
        entries, masks = _masks(formula, cert.multipliers, bits)
        for (bit, pm), q in entries:
            size += len(q.terms) * (2 if bit else 1)
            for m, n in zip(q.terms, ints):  # stops before taking the next polynomial's ints
                lo = masks[m] | pm
                hi = lo | bit
                if s := get(lo, 0) + n:
                    total[lo] = s
                else:
                    del total[lo]
                if bit:
                    if s := get(hi, 0) - n:
                        total[hi] = s
                    else:
                        del total[hi]
                if (d := hi.bit_count()) > degree:
                    degree = d
        names = tuple(bits)
        view = entries, masks, names
        sums = f.unscaled(total, scale)
        if not sums:
            return VerifyReport(True, size, degree), view
        return VerifyReport(False, size, degree, MultilinearPoly._of(
            f, {mask_names(names, m): c for m, c in sums.items()})), view

    # an exponent of a product is at most a multiplier's degree plus 2, from x_j^2
    width = (max((len(m) for q in polys for m in q.terms), default=0) + 2).bit_length()
    names = formula.dag.names
    digits = {name: 1 << width * i for i, name in enumerate(names)}
    axioms = []  # (code of the + monomial, of the - monomial or None, degree) per polynomial
    for bit, pm in [formula.axiom(a) for a in cert.multipliers]:
        axioms.append((_code(mask_names(names, pm), digits, width),
                       _code(mask_names(names, pm | bit), digits, width) if bit else None,
                       (pm | bit).bit_count()))
    for var in cert.boolean_multipliers:
        e = _code((var,), digits, width)
        axioms.append((2 * e, e, 2))
    codes = {}  # monomial -> its code
    for q, (plus, minus, top) in zip(polys, axioms):
        if not q.terms:
            continue
        size += len(q.terms) * (1 if minus is None else 2)
        degree = max(degree, top + max(map(len, q.terms)))
        for m, n in zip(q.terms, ints):  # stops before taking the next polynomial's ints
            k = codes.get(m)
            if k is None:
                k = codes[m] = _code(m, digits, width)
            key = k + plus
            if s := get(key, 0) + n:
                total[key] = s
            else:
                del total[key]
            if minus is not None:
                key = k + minus
                if s := get(key, 0) - n:
                    total[key] = s
                else:
                    del total[key]
    sums = f.unscaled(total, scale)
    if not sums:
        return VerifyReport(True, size, degree), None
    return VerifyReport(False, size, degree, ExpPoly._of(
        f, {_monomial(k, digits, width): c for k, c in sums.items()})), None


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
    _check_kind(strategy)
    configs = replay(dag, strategy.moves, REVERSIBLE)

    zbit = 1 << dag.designated_sink
    t_prime = next((t for t, m in enumerate(configs) if m & zbit), None)
    if t_prime is None:
        raise CertificateError("strategy never pebbles the sink")

    plus, minus = field.one, field.coerce(-1)
    terms = {}  # vertex index -> {R mask: coefficient}
    for i in range(1, t_prime + 1):
        bit = configs[i] ^ configs[i - 1]  # the one vertex step i toggles
        v = bit.bit_length() - 1
        field.accumulate(terms.setdefault(v, {}), configs[i] & ~(bit | dag.toggles[v][1]),
                         plus if configs[i] > configs[i - 1] else minus)
    last = configs[t_prime] & ~zbit
    monos = {m: mask_names(dag.names, m) for m in set(chain([last], *terms.values()))}
    multipliers = {vertex_axiom_id(dag.names[v]):
                   MultilinearPoly._of(field, {monos[m]: c for m, c in q.items()})
                   for v, q in terms.items()}
    multipliers[SINK_AXIOM] = MultilinearPoly._of(field, {monos[last]: field.one})
    return Certificate(field, MULTILINEAR, multipliers)


class ConfigGraph(NamedTuple):
    """Multigraph on pebble configurations induced by a multilinear certificate.

    Bit i of a configuration mask is names[i]: the DAG's vertices (the sink
    at bit `sink`), then the variables outside the DAG that the vertex
    multipliers hold, in order of first appearance and, within one
    monomial, by name (`_masks`' table without Q_sink), so the names
    and masks are the same under every hash seed.  Each term c*x_W of a
    vertex multiplier Q_v with v not in W, whether W holds z or not, is one
    edge (lo, hi, c) with lo = W + pred(v) and hi = lo + {v}; c counts at lo
    and -c at hi.
    """

    names: tuple
    sink: int
    field: Field
    edges: tuple

    def weights(self):
        """Nonzero signed occurrence weight of endpoint masks, in one pass."""
        f = self.field
        scale, ints = f.scaled([weight for _, _, weight in self.edges])
        out = {}  # every weight added here as an int at `scale`, reduced once
        get = out.get
        for (lo, hi, _), n in zip(self.edges, ints):
            out[lo] = get(lo, 0) + n
            out[hi] = get(hi, 0) - n
        return f.unscaled(out, scale)


def _code(mono, digits, width):
    """The sum of the digits of the monomial's variables, one per unit of
    exponent, under `digits` (variable -> 1 << width*i).  A variable outside
    the table takes the next free digit, in order of first appearance and,
    within one monomial, by name, so the digits do not depend on the order
    in which a frozenset yields its names (that is, on the hash seed).  At
    width 1 the digits are bits and a square-free monomial's code is its
    mask."""
    try:
        return sum(map(digits.__getitem__, mono))
    except KeyError:
        return sum(digits.setdefault(var, 1 << width * len(digits)) for var in sorted(mono))


def _monomial(code, digits, width):
    """The code read back as sorted names, as an ExpPoly monomial."""
    digit, out = (1 << width) - 1, []
    for name in digits:
        if not code:
            break
        out += [name] * (code & digit)
        code >>= width
    return tuple(sorted(out))


def _masks(formula, multipliers, bits):
    """(entries, masks): each axiom's move-table entry (bit, pm) with its
    multiplier, and each distinct monomial x_W of the multipliers -> the
    mask of W.

    A term c*x_W of an axiom with entry (bit, pm) counts c at W + pm and,
    when bit is set, -c at W + pm + bit; Q_sink's entry (0, {z}) counts c at
    W + {z} alone.  Every axiom id is read before the first monomial is
    masked.  x_W is masked under the variable table `bits` (name -> bit),
    once per distinct monomial; a variable outside the table takes the next
    free bit, in the order `multipliers` gives its terms and, within one
    monomial, by name.
    """
    entries = [(formula.axiom(a), q) for a, q in multipliers.items()]
    masks = {}  # monomial -> its mask
    for _, q in entries:
        for m in q.terms:
            if m not in masks:
                masks[m] = _code(m, bits, 1)
    return entries, masks


def config_graph(dag: Dag, cert: Certificate) -> ConfigGraph:
    """Edges from every monomial of Q_v that does not contain x_v.

    Parallel edges are kept; every endpoint has at most degree(cert) pebbles.
    Axiom ids are read through the pebbling formula, so the graph needs a
    unique designated sink.
    """
    if cert.mode != MULTILINEAR:
        raise CertificateError("configuration graphs need a multilinear certificate")
    bits = {name: 1 << i for i, name in enumerate(dag.names)}
    # Q_sink makes no edge, so its variables take no bit
    multipliers = {a: q for a, q in cert.multipliers.items() if a != SINK_AXIOM}
    entries, masks = _masks(pebbling_formula(dag), multipliers, bits)
    edges = []
    for (bit, pm), q in entries:
        for m, c in q.terms.items():
            if not (lo := masks[m] | pm) & bit:
                edges.append((lo, lo | bit, c))
    return ConfigGraph(tuple(bits), dag.designated_sink, cert.field, tuple(edges))


class WeightReport(NamedTuple):
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

    Judges its input as `multilinearize` does and walks the configuration
    graph of the multilinear certificate judged last, on the masks of that
    check (`_adjacency`), from the empty configuration to a sink-containing
    one by BFS, and mirrors the path.  Neighbours are visited in (size,
    sorted names) order.  Space is at most the certificate degree and time
    at most size - 1; both hold with equality for compiled search
    witnesses.
    """
    _, (entries, masks, names) = _multilinear(pebbling_formula(dag), cert)
    adj = _adjacency(entries, masks)
    if 0 not in adj:
        raise InternalConsistencyError("empty configuration touches no edge")
    zbit = 1 << dag.designated_sink
    parent = {0: None}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        if u & zbit:
            break
        fresh = adj[u].difference(parent)
        if len(fresh) > 1:  # each endpoint is keyed at most once, when first reached
            fresh = sorted(fresh, key=lambda c: MultilinearPoly._key(mask_names(names, c)))
        for w in fresh:
            parent[w] = u
            queue.append(w)
    else:
        raise InternalConsistencyError("no path from the empty configuration to the sink")

    path = [u]  # back from u to the empty configuration
    while parent[u] is not None:
        u = parent[u]
        path.append(u)
    strategy = visiting(dag, _steps(path[::-1]))
    verify_strategy(dag, strategy)
    return strategy


def _adjacency(entries, masks):
    """Each endpoint of the configuration graph -> its neighbours: the
    edges of `config_graph`, read off `_masks`' view of the certificate."""
    adj = {}
    for (bit, pm), q in entries:
        if not bit:  # Q_sink makes no edge
            continue
        for m in q.terms:
            if not (lo := masks[m] | pm) & bit:
                hi = lo | bit
                adj.setdefault(lo, set()).add(hi)
                adj.setdefault(hi, set()).add(lo)
    return adj


def multilinearize(formula: PebblingFormula, cert: Certificate) -> Certificate:
    """Clamp exponents and drop Boolean multipliers; size and degree never grow.

    `verify` judges `cert` as given; if it fails, CertificateError("certificate
    does not verify; residual: ...").  Multilinear input comes back unchanged.
    Clamping is a ring homomorphism modulo x_j^2 - x_j, so the clamped copy of
    a valid standard refutation is valid: its check guards an identity.
    """
    return _multilinear(formula, cert)[0]


def _multilinear(formula, cert):
    """`multilinearize`'s certificate and the masked view of its multilinear
    check (`_judge`): of `cert` itself in multilinear mode, of the clamped
    copy in standard mode."""
    report, view = _judge(formula, cert)
    if not report.valid:
        raise CertificateError(
            f"certificate does not verify; residual: {report.failure_residual.summary()}")
    if cert.mode == MULTILINEAR:
        return cert, view
    f, clamped, multipliers = cert.field, {}, {}  # monomial or set -> its one clamped set
    for a, q in cert.multipliers.items():
        terms = {}
        for m, c in q.terms.items():
            if m not in clamped:
                clamped[m] = clamped.setdefault(s := frozenset(m), s)
            f.accumulate(terms, clamped[m], c)
        multipliers[a] = MultilinearPoly._of(f, terms)
    out = Certificate(f, MULTILINEAR, multipliers)
    report, view = _judge(formula, out)
    if not report.valid:
        raise InternalConsistencyError("the clamped copy of a valid certificate does not verify")
    return out, view


def certificate_to_json(cert: Certificate) -> dict:
    f, lists = cert.field, {}  # monomial -> its "vars", sorted once and shared by its rows
    data = {"field": "rationals" if f.is_rationals else {"prime": f.p}, "mode": cert.mode}
    for key, name, entries in _entries(cert):
        data[key] = [{name: k, "poly": _poly_to_json(q, lists)} for k, q in entries]
    return data


def _entries(cert):
    """(file key, id key, sorted (id, polynomial) pairs) of each list of the
    file: the multipliers, Q_sink last, and, when there are any, the Boolean
    multipliers by variable."""
    yield "multipliers", "axiom", sorted(cert.multipliers.items(),
                                         key=lambda aq: (aq[0] == SINK_AXIOM, aq[0]))
    if cert.boolean_multipliers:
        yield "boolean_multipliers", "var", sorted(cert.boolean_multipliers.items())


def _rows(poly, lists):
    """(degree, key, monomial, coefficient) of each term of `poly`, in file
    order: by degree, then by the polynomial's `_key`.  `lists` maps each
    monomial to its sorted names, the file's "vars"; a monomial not in it
    yet is sorted once and added."""
    lists.update([(m, sorted(m)) for m in poly.terms if m not in lists])
    if isinstance(poly, MultilinearPoly):  # its _key is (degree, sorted names)
        return sorted([(len(m), lists[m], m, c) for m, c in poly.terms.items()])
    return sorted([(len(m), poly._key(m), m, c) for m, c in poly.terms.items()])


def _poly_to_json(poly, lists):
    return [{"coeff": str(c), "vars": lists[m]} for _, _, m, c in _rows(poly, lists)]


def _poly_text(poly, lists, texts):
    """`_poly_to_json(poly, lists)` as text at its depth in the file.  `texts`
    maps each monomial to its "vars" text, made the first time it comes, and
    every term is one template of that text and its coefficient, whose `str`
    needs no escaping."""
    terms = [f'{{\n          "coeff": "{c!s}",\n          "vars": '
             f'{texts.get(m) or texts.setdefault(m, _vars_text(lists[m]))}\n        }}'
             for _, _, m, c in _rows(poly, lists)]
    return "[\n        " + ",\n        ".join(terms) + "\n      ]" if terms else "[]"


def _vars_text(names):
    if not names:
        return "[]"
    return "[\n            " + ",\n            ".join(map(_quote, names)) + "\n          ]"


def _certificate_chunks(cert):
    """The text of `certificate_to_json(cert)` as `json.dumps(..., indent=2)`
    writes it, plus a newline, made without the document: the field and the
    mode, each multiplier or Boolean-multiplier entry as its own string, and
    the closing brackets.  Each distinct monomial is sorted and its "vars"
    text made once per call."""
    f, lists, texts = cert.field, {}, {}
    field = '"rationals"' if f.is_rationals else f'{{\n    "prime": {f.p}\n  }}'
    yield f'{{\n  "field": {field},\n  "mode": {_quote(cert.mode)}'
    for key, name, entries in _entries(cert):
        sep = f',\n  "{key}": [\n    '
        for k, q in entries:
            yield (f'{sep}{{\n      "{name}": {_quote(k)},\n'
                   f'      "poly": {_poly_text(q, lists, texts)}\n    }}')
            sep = ",\n    "
        yield "\n  ]" if entries else f',\n  "{key}": []'
    yield "\n}\n"


def certificate_from_json(data, field: Field | None = None) -> Certificate:
    try:
        if field is None:
            spec = data["field"]
            field = Field.rationals() if spec == "rationals" else Field.prime(spec["prime"])
        mode = data["mode"]
        shared = {}  # the certificate's one table for `_poly_from_json`
        multipliers = {}
        for entry in data["multipliers"]:
            if entry["axiom"] in multipliers:
                raise CertificateError(f'repeated "axiom" {entry["axiom"]!r}')
            multipliers[entry["axiom"]] = _poly_from_json(field, entry["poly"], mode, shared)
        booleans = {}
        for entry in data.get("boolean_multipliers", []):
            if entry["var"] in booleans:
                raise CertificateError(f'repeated "var" {entry["var"]!r}')
            booleans[entry["var"]] = _poly_from_json(field, entry["poly"], STANDARD_MODE,
                                                     shared)
    except (KeyError, TypeError) as exc:
        raise CertificateError(f"malformed certificate JSON: {exc}") from None
    return Certificate(field, mode, multipliers, booleans)


def _poly_from_json(field, entries, mode, shared):
    """The polynomial of a term list, its monomials and names from `shared`.

    `shared` is one table per certificate.  The key (kind, *names) of a
    "vars" list read before holds that list's monomial, and a name key the
    name's one string, so every repeat of a monomial or a name is one
    object.  Each distinct list is built once, the first time it comes:
    its names are looked up in `shared`, then `_read` checks and builds the
    monomial over them.  A refusal names the list as the file gives it.
    """
    poly = MultilinearPoly if mode == MULTILINEAR else ExpPoly
    terms = {}
    parsed = {}  # coefficient text -> element; a text is parsed once per polynomial
    for e in entries:
        names = e["vars"]
        if not isinstance(names, list):
            raise CertificateError(f'"vars" must be a list of name strings, got {names!r}')
        try:
            key = (poly, *names)
            mono = shared.get(key)
        except TypeError:  # an unhashable name, which `_read` refuses
            poly._read(names)
            raise
        if mono is None:
            try:
                mono = shared[key] = poly._read([shared.setdefault(v, v) for v in names])
            except AlgebraError:  # not all strings: say so of the list as given
                poly._read(names)
                raise
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
    _write_text(_certificate_chunks(cert), path)
