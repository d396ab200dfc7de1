"""DAG model, validation, and the graph families used by the toolkit.

Vertices carry string names.  Validation assigns every vertex a dense integer
index in topological order, so every edge goes from a lower to a higher index;
this is the acyclicity certificate.  All structures are immutable after
construction.

Generated-family naming is fixed so strategies and certificate files stay
portable across runs:

  line(n)              v1 .. vn
  pyramid(h)           v{row}_{i}; row 0 holds the h+1 sources, row h the
                       sink; v{r}_{i} has predecessors v{r-1}_{i}, v{r-1}_{i+1}
  bit_reversal(n)      bottom line x1 .. xn, top line y1 .. yn
  carlson_savage(c,r)  base graph: sources s1, s2, sinks t1 .. tc; recursive
                       step: pyramid copies under pyr{j}/, the recursive copy
                       under sub/, spines spine{j}/sec{k}/v{m} with sections
                       k = 1 .. r-1 and positions m = 1 .. 2c
"""

from __future__ import annotations

import heapq
import json

from .errors import GraphError, ParamOutOfRange


class Dag:
    """Validated directed acyclic graph with optional designated sink.

    Do not construct directly; use build_dag or a family generator.
    `names` is the vertex list in topological-index order, `preds[i]` the
    sorted predecessor indices of vertex i, and `sinks` every vertex with
    outdegree 0 (ascending index).  `toggles[i]` is the move table entry
    (1 << i, predecessor mask of i): a reversible move on i, and a placement
    on i in either game, is legal exactly when the predecessor mask is
    pebbled.
    """

    __slots__ = ("names", "index", "preds", "edges", "sinks",
                 "designated_sink", "max_indegree", "toggles")

    def __init__(self, names, index, preds, edges, sinks, designated_sink):
        self.names = names
        self.index = index
        self.preds = preds
        self.edges = edges
        self.sinks = sinks
        self.designated_sink = designated_sink
        self.max_indegree = max((len(p) for p in preds), default=0)
        self.toggles = tuple((1 << v, sum(1 << p for p in ps)) for v, ps in enumerate(preds))

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        if not isinstance(other, Dag):
            return NotImplemented
        return (self.names == other.names
                and self.edge_names() == other.edge_names()
                and self.designated_sink_name == other.designated_sink_name)

    def __repr__(self):
        sink = self.designated_sink_name
        return f"Dag({len(self)} vertices, {len(self.edges)} edges, sink={sink!r})"

    @property
    def designated_sink_name(self):
        if self.designated_sink is None:
            return None
        return self.names[self.designated_sink]

    @property
    def sink_names(self):
        return tuple(self.names[i] for i in self.sinks)

    def pred_names(self, name):
        return tuple(self.names[p] for p in self.preds[self._idx(name)])

    def _idx(self, name):
        try:
            return self.index[name]
        except KeyError:
            raise GraphError(f"unknown vertex {name!r}") from None

    def depth(self):
        """Length (in edges) of a longest directed path."""
        d = [0] * len(self)
        for v in range(len(self)):
            d[v] = max((d[p] + 1 for p in self.preds[v]), default=0)
        return max(d, default=0)

    def edge_names(self):
        return tuple((self.names[a], self.names[b]) for a, b in self.edges)

    def to_json(self):
        return {
            "vertices": list(self.names),
            "edges": [[a, b] for a, b in self.edge_names()],
            "sink": self.designated_sink_name,
        }


def mask_names(names, mask) -> frozenset:
    """Names of the set bits of a configuration mask; bit i stands for names[i]."""
    out = []
    while mask:
        low = mask & -mask
        out.append(names[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def _hashable(name) -> bool:
    try:
        hash(name)
    except TypeError:
        return False
    return True


def build_dag(vertices, edges, designated_sink=None) -> Dag:
    """Validate and index a DAG given vertex names and (pred, succ) pairs.

    Vertices are re-ordered topologically (stable: ties broken by declaration
    order).  Raises GraphError for an unhashable, duplicate or undeclared
    name, a cycle, or a designated sink that has a successor.
    """
    vertices = list(vertices)
    declared = {}
    for pos, name in enumerate(vertices):
        if not _hashable(name):
            raise GraphError(f"vertex name {name!r} is not hashable")
        if name in declared:
            raise GraphError(f"vertex {name!r} declared twice")
        declared[name] = pos

    succs = {name: set() for name in vertices}
    preds = {name: set() for name in vertices}
    for a, b in edges:
        for end in (a, b):
            if not _hashable(end) or end not in declared:
                raise GraphError(f"edge endpoint {end!r} not declared")
        succs[a].add(b)
        preds[b].add(a)

    # Kahn's algorithm; min-heap on declaration position keeps the output
    # order deterministic and close to the declared order.
    indeg = {name: len(preds[name]) for name in vertices}
    ready = [declared[name] for name in vertices if indeg[name] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        name = vertices[heapq.heappop(ready)]
        order.append(name)
        for succ in succs[name]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                heapq.heappush(ready, declared[succ])
    if len(order) != len(vertices):
        stuck = sorted(set(vertices) - set(order))
        raise GraphError(f"cycle through {stuck}")

    index = {name: i for i, name in enumerate(order)}
    pred_idx = tuple(tuple(sorted(index[p] for p in preds[name])) for name in order)
    edge_idx = tuple(sorted((index[a], index[b]) for a, b in set(map(tuple, edges))))
    sinks = tuple(i for i, name in enumerate(order) if not succs[name])

    sink_idx = None
    if designated_sink is not None:
        if not _hashable(designated_sink) or designated_sink not in index:
            raise GraphError(f"designated sink {designated_sink!r} not declared")
        sink_idx = index[designated_sink]
        if succs[designated_sink]:
            raise GraphError(f"{designated_sink!r} has successors")

    return Dag(tuple(order), index, pred_idx, edge_idx, sinks, sink_idx)


def line(n: int) -> Dag:
    """Path v1 -> v2 -> ... -> vn with sink vn."""
    if n < 1:
        raise ParamOutOfRange("line needs n >= 1")
    names = [f"v{i}" for i in range(1, n + 1)]
    edges = [(names[i], names[i + 1]) for i in range(n - 1)]
    return build_dag(names, edges, names[-1])


def pyramid(h: int) -> Dag:
    """Layered triangular DAG of height h with a unique sink.

    Row 0 holds the h+1 sources; vertex v{r}_{i} (1-based i) has
    predecessors v{r-1}_{i} and v{r-1}_{i+1}.  (h+1)(h+2)/2 vertices.
    """
    if h < 0:
        raise ParamOutOfRange("pyramid needs h >= 0")
    names, edges = _pyramid_parts(h, "")
    return build_dag(names, edges, names[-1])


def _pyramid_parts(h, prefix):
    names = []
    edges = []
    for row in range(h + 1):
        for i in range(1, h + 2 - row):
            name = f"{prefix}v{row}_{i}"
            names.append(name)
            if row > 0:
                edges.append((f"{prefix}v{row - 1}_{i}", name))
                edges.append((f"{prefix}v{row - 1}_{i + 1}", name))
    return names, edges


def bit_reversal(n: int) -> Dag:
    """Bit-reversal permutation graph on 2n vertices, sink yn.

    Two chained lines x1..xn and y1..yn plus cross edges x_i -> y_{sigma(i)},
    where sigma reverses the log2(n)-bit representation of i-1 (1-based).
    """
    if n < 2 or n & (n - 1):
        raise ParamOutOfRange(f"bit_reversal needs a power of two >= 2, got {n}")
    bits = n.bit_length() - 1
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{i}" for i in range(1, n + 1)]
    edges = [(xs[i], xs[i + 1]) for i in range(n - 1)]
    edges += [(ys[i], ys[i + 1]) for i in range(n - 1)]
    edges += [(xs[i], ys[bit_reverse_index(i, bits)]) for i in range(n)]
    return build_dag(xs + ys, edges, ys[-1])


def bit_reverse_index(i: int, bits: int) -> int:
    """Reverse the low `bits` bits of i (0-based index helper)."""
    rev = 0
    for _ in range(bits):
        rev = (rev << 1) | (i & 1)
        i >>= 1
    return rev


def carlson_savage(c: int, r: int) -> Dag:
    """Two-parameter recursive trade-off family; multi-sink, indegree <= 2.

    The base graph has two sources fully connected to c sinks.  The step from
    r to r+1 adds c pyramids of height r, one recursive copy, and c spines of
    r sections with 2c vertices each: in every section the first c vertices
    take an edge from the matching pyramid sink (vertex i from pyramid i) and
    the last c take one from the matching sink of the recursive copy.  Spine j
    ends in sink j.  `sinks` lists the c sinks in spine order; no designated
    sink is set.
    """
    if c < 2 or r < 1:
        raise ParamOutOfRange("carlson_savage needs c >= 2 and r >= 1")
    names, edges, _ = _cs_parts(c, r, "")
    return build_dag(names, edges, None)


def _cs_parts(c, r, prefix):
    """Returns (names, edges, sink_names) of the graph under `prefix`."""
    if r == 1:
        sources = [f"{prefix}s1", f"{prefix}s2"]
        sinks = [f"{prefix}t{j}" for j in range(1, c + 1)]
        edges = [(s, t) for s in sources for t in sinks]
        return sources + sinks, edges, sinks

    names = []
    edges = []
    pyr_sinks = []
    for j in range(1, c + 1):
        p_names, p_edges = _pyramid_parts(r - 1, f"{prefix}pyr{j}/")
        names += p_names
        edges += p_edges
        pyr_sinks.append(p_names[-1])

    sub_names, sub_edges, sub_sinks = _cs_parts(c, r - 1, f"{prefix}sub/")
    names += sub_names
    edges += sub_edges

    spine_sinks = []
    for j in range(1, c + 1):
        prev = None
        for k in range(1, r):
            for m in range(1, 2 * c + 1):
                v = f"{prefix}spine{j}/sec{k}/v{m}"
                names.append(v)
                if prev is not None:
                    edges.append((prev, v))
                if m <= c:
                    edges.append((pyr_sinks[m - 1], v))
                else:
                    edges.append((sub_sinks[m - c - 1], v))
                prev = v
        spine_sinks.append(prev)
    return names, edges, spine_sinks


def single_sink_restriction(dag: Dag, sink: str) -> Dag:
    """Induced subgraph on the ancestors of `sink`, with `sink` designated.

    `sink` must be one of dag's sinks.  Idempotent on single-sink graphs.
    """
    idx = dag._idx(sink)
    if idx not in dag.sinks:
        raise GraphError(f"{sink!r} is not a sink")
    keep = {idx}
    for v in range(idx, -1, -1):  # every predecessor has a lower index
        if v in keep:
            keep.update(dag.preds[v])
    names = [dag.names[i] for i in sorted(keep)]
    kept = set(names)
    edges = [(a, b) for a, b in dag.edge_names() if a in kept and b in kept]
    return build_dag(names, edges, sink)


def load_graph(path) -> Dag:
    """Read the graph JSON format {"vertices": [...], "edges": [[a,b],...], "sink": z}."""
    return _read_json(path, graph_from_json, GraphError)


def graph_from_json(data) -> Dag:
    try:
        vertices, edges = data["vertices"], data["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from None
    if not isinstance(vertices, list):
        raise GraphError(f'"vertices" must be a list of names, got {vertices!r}')
    if not (isinstance(edges, list)
            and all(isinstance(e, list) and len(e) == 2 for e in edges)):
        raise GraphError(f'"edges" must be a list of [tail, head] pairs, got {edges!r}')
    dag = build_dag(vertices, [tuple(e) for e in edges], data.get("sink"))
    for name in dag.names:
        if not isinstance(name, str):
            raise GraphError(f"vertex name {name!r} is not a string")
    return dag


def _read_json(path, parse, error):
    """`parse` of the JSON in the UTF-8 file `path`.

    This and `_write_json` are the package's only JSON file access.  Every
    ValueError, from decoding or from `parse`, and the RecursionError of a
    too deeply nested document become `error` with the file name in front;
    an OSError already names the file and passes unchanged.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: {exc}") from None


def _write_json(data, path=None):
    """Write `data` as the bytes of `json.dumps(data, indent=2)` plus a
    newline to the UTF-8 file `path`; with no `path`, return that text.

    `json` encodes in C only without `indent`, and its pure-Python indenting
    encoder is the slowest part of saving a certificate, so the text is
    built here: strings by the C `encode_basestring_ascii`, other scalars by
    `json.dumps`, container items joined by a comma, a newline and the
    indent.  A file is written as it is built: the top-level object one key
    at a time, and each element of a top-level list (the moves, multipliers,
    vertices and edges) as its own string, so a large certificate is never
    held as one string.
    """
    quote = json.encoder.encode_basestring_ascii

    def text(x, pad):
        if isinstance(x, str):
            return quote(x)
        inner = pad + "  "
        if isinstance(x, (list, tuple)) and x:
            return (f"[\n{inner}" + f",\n{inner}".join([text(v, inner) for v in x])
                    + f"\n{pad}]")
        if isinstance(x, dict) and x:
            return (f"{{\n{inner}"
                    + f",\n{inner}".join([f"{quote(k)}: {text(v, inner)}" for k, v in x.items()])
                    + f"\n{pad}}}")
        return json.dumps(x)

    def chunks():
        if not (isinstance(data, dict) and data):
            yield text(data, "")
            return
        lead = "{\n  "
        for k, v in data.items():
            if isinstance(v, (list, tuple)) and v:
                sep = f"{lead}{quote(k)}: [\n    "
                for item in v:
                    yield sep + text(item, "    ")
                    sep = ",\n    "
                yield "\n  ]"
            else:
                yield f"{lead}{quote(k)}: {text(v, '  ')}"
            lead = ",\n  "
        yield "\n}"

    if path is None:
        return "".join(chunks()) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for chunk in chunks():
            fh.write(chunk)
        fh.write("\n")
