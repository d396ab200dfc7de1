"""DAG model, validation, and the graph families used by the toolkit.

Vertices carry string names.  build_dag judges a graph's shape, names and
acyclicity for the API and the graph file alike, and indexes the vertices
densely in topological order, so every edge goes from a lower to a higher
index; Dag derives its tables from that.  All structures are immutable.

The generators judge each family's parameters (an `int`, not a `bool`), and
the strategies take their checks and layouts from them.  Generated-family
naming is fixed so strategies and certificate files stay portable across runs:

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

import gc
import heapq
import json

from .errors import GraphError, ParamOutOfRange


class Dag:
    """Validated directed acyclic graph with optional designated sink.

    Built only by build_dag and single_sink_restriction from checked input:
    `names` in topological-index order, `preds[i]` the sorted predecessor
    indices of vertex i, and the designated sink's index or None.  Derived
    here: `index` (name to index), `edges` (ascending (tail, head) index
    pairs) and `sinks` (every vertex of outdegree 0, ascending).  `toggles[i]`
    is the move table entry (1 << i, predecessor mask of i): a reversible
    move on i, and a placement on i in either game, is legal exactly when
    the predecessor mask is pebbled.
    """

    __slots__ = ("names", "index", "preds", "edges", "sinks",
                 "designated_sink", "max_indegree", "toggles")

    def __init__(self, names, preds, designated_sink):
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.preds = preds
        self.edges = tuple(sorted((p, v) for v, ps in enumerate(preds) for p in ps))
        tails = {p for ps in preds for p in ps}
        self.sinks = tuple(v for v in range(len(names)) if v not in tails)
        self.designated_sink = designated_sink
        self.max_indegree = max((len(p) for p in preds), default=0)
        self.toggles = tuple((1 << v, sum(1 << p for p in ps)) for v, ps in enumerate(preds))

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        if not isinstance(other, Dag):
            return NotImplemented
        return ((self.names, self.preds, self.designated_sink)
                == (other.names, other.preds, other.designated_sink))

    def __repr__(self):
        sink = self.designated_sink_name
        return f"Dag({len(self)} vertices, {len(self.edges)} edges, sink={sink!r})"

    @property
    def designated_sink_name(self):
        return None if self.designated_sink is None else self.names[self.designated_sink]

    @property
    def sink_names(self):
        return tuple(self.names[i] for i in self.sinks)

    def pred_names(self, name):
        return tuple(self.names[p] for p in self.preds[self._idx(name)])

    def _idx(self, name):
        try:
            return self.index[name]
        except (KeyError, TypeError):  # an unhashable name is unknown too
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


def build_dag(vertices, edges, designated_sink=None) -> Dag:
    """Validate and index a DAG given vertex names and (pred, succ) pairs.

    Vertices are re-ordered topologically (stable: ties broken by declaration
    order).  `vertices` is a list or tuple of `str` names and `edges` one of
    two-item lists or tuples, as in the graph file.  Raises GraphError, with
    the file reader's messages, for any other shape, and for a duplicate or
    undeclared name, a cycle, or a designated sink that has a successor.
    """
    if not isinstance(vertices, (list, tuple)):
        raise GraphError(f'"vertices" must be a list of names, got {vertices!r}')
    if not (isinstance(edges, (list, tuple))
            and all(isinstance(e, (list, tuple)) and len(e) == 2 for e in edges)):
        raise GraphError(f'"edges" must be a list of [tail, head] pairs, got {edges!r}')
    declared = {}
    for pos, name in enumerate(vertices):
        if not isinstance(name, str):
            raise GraphError(f"vertex name {name!r} is not a string")
        if name in declared:
            raise GraphError(f"vertex {name!r} declared twice")
        declared[name] = pos

    succs = [set() for _ in vertices]
    preds = [set() for _ in vertices]
    for a, b in edges:
        for end in (a, b):
            if not isinstance(end, str) or end not in declared:
                raise GraphError(f"edge endpoint {end!r} not declared")
        succs[declared[a]].add(declared[b])
        preds[declared[b]].add(declared[a])

    # Kahn's algorithm over declaration positions; the min-heap keeps the
    # output order deterministic and close to the declared order.
    indeg = [len(p) for p in preds]
    ready = [pos for pos, d in enumerate(indeg) if d == 0]  # ascending: a heap
    order = []
    while ready:
        pos = heapq.heappop(ready)
        order.append(pos)
        for succ in succs[pos]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) != len(vertices):
        raise GraphError(f"cycle through {sorted(v for v, d in zip(vertices, indeg) if d)}")

    rank = {pos: i for i, pos in enumerate(order)}
    sink_idx = None
    if designated_sink is not None:
        if not isinstance(designated_sink, str) or designated_sink not in declared:
            raise GraphError(f"designated sink {designated_sink!r} not declared")
        if succs[declared[designated_sink]]:
            raise GraphError(f"{designated_sink!r} has successors")
        sink_idx = rank[declared[designated_sink]]

    return Dag(tuple(vertices[pos] for pos in order),
               tuple(tuple(sorted(rank[p] for p in preds[pos])) for pos in order), sink_idx)


def line(n: int) -> Dag:
    """Path v1 -> v2 -> ... -> vn with sink vn."""
    _check_line(n)
    names = [f"v{i}" for i in range(1, n + 1)]
    edges = [(names[i], names[i + 1]) for i in range(n - 1)]
    return build_dag(names, edges, names[-1])


def _check_line(n):  # also judges the line prices of `strategies`
    if type(n) is not int or n < 1:
        raise ParamOutOfRange("line needs n >= 1")


def pyramid(h: int) -> Dag:
    """Layered triangular DAG of height h with a unique sink.

    Row 0 holds the h+1 sources; vertex v{r}_{i} (1-based i) has
    predecessors v{r-1}_{i} and v{r-1}_{i+1}.  (h+1)(h+2)/2 vertices.
    """
    if type(h) is not int or h < 0:
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
    `names` is x1..xn, then y1..yn.
    """
    if type(n) is not int or n < 2 or n & (n - 1):
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
    _check_cs(c, r)
    names, edges, _ = _cs_parts(c, r, "")
    return build_dag(names, edges, None)


def _check_cs(c, r):  # also judges `search.cs_lower_bound`'s c and r
    if type(c) is not int or type(r) is not int or c < 2 or r < 1:
        raise ParamOutOfRange("carlson_savage needs c >= 2 and r >= 1")


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
    keep = sorted(keep)  # ascending indices: already a topological order
    new = {v: i for i, v in enumerate(keep)}
    return Dag(tuple(dag.names[v] for v in keep),
               tuple(tuple(new[p] for p in dag.preds[v]) for v in keep), new[idx])


def load_graph(path) -> Dag:
    """Read the graph JSON format {"vertices": [...], "edges": [[a,b],...], "sink": z}."""
    return _read_json(path, graph_from_json, GraphError)


def graph_from_json(data) -> Dag:
    try:
        vertices, edges = data["vertices"], data["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from None
    return build_dag(vertices, edges, data.get("sink"))


def _read_json(path, parse, error):
    """`parse` of the JSON in the UTF-8 file `path`.

    This and `_write_text`, which every saver and `cli._emit` write through,
    are the package's only file access.  Every ValueError, from decoding or
    from `parse`, and the RecursionError of a too deeply nested document
    become `error` with the file name in front; an OSError already names the
    file and passes unchanged.

    The cyclic garbage collector is paused while the document is decoded
    and parsed.  A decoded JSON document is a tree, so a collection during
    the read finds no garbage cycle and only walks live objects, and the
    tens of thousands of dicts and lists of a large certificate or strategy
    file set off one collection after another: nearly four in five of the
    collections of a certificate round trip ran here.  The caller's state
    is restored on every exit: the collector is enabled again only if it
    was enabled on entry, so a caller that disabled it keeps it disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: {exc}") from None
    finally:
        if enabled:
            gc.enable()


# one str as `json.dumps` writes it: the C encoder, which escapes all but ASCII
_quote = json.encoder.encode_basestring_ascii


def _json_text(value):
    """The text of a JSON file holding `value`: `json.dumps(value, indent=2)`
    and a newline, from the package's one call to a `json` encoder.  A graph
    file is this text, and a strategy file's head (the keys before its moves)
    is rendered by it; `save_certificate` and `save_strategy` render the rest
    of their formats themselves, each string by `_quote`."""
    return json.dumps(value, indent=2) + "\n"


def _write_text(chunks, path):
    """Write the strings of `chunks` to the UTF-8 file `path`, one `write`
    each, so that a large document is never held as one string."""
    with open(path, "w", encoding="utf-8") as fh:
        for chunk in chunks:
            fh.write(chunk)
