"""Reference computations for the benchmark, written apart from pebcert.

Nothing here imports pebcert.  The module holds:

- the trade-off tables the search workloads run (as plain data),
- graph generators for the four families, built from their documented
  definitions,
- a reference solver over bitmask configurations: breadth-first search for
  the reversible game and Dijkstra for the standard game,
- an expansion of sum_a Q_a * A_a from certificate JSON, with monomials as
  bitmasks multiplied by set union,
- a replay of move lists under the game rules.

Run it as a script to recompute the stored optima and to check the solver
against the closed forms:

    python3 perfbench/reference.py            # check expected.json
    python3 perfbench/reference.py --write    # rewrite expected.json
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

REVERSIBLE = "reversible"
STANDARD = "standard"
VISITING = "visiting"
PERSISTENT = "persistent"

# Trade-off tables: family parameters as the CLI takes them, the game, the
# reversible flavor, and an explicit --smax where the default (min space + 2)
# would make one table take well over a second.
REV_TABLES = (
    {"family": "pyramid", "params": {"height": 4}, "game": REVERSIBLE, "flavor": VISITING},
    {"family": "pyramid", "params": {"height": 4}, "game": REVERSIBLE, "flavor": PERSISTENT},
    {"family": "cs", "params": {"c": 3, "r": 2}, "game": REVERSIBLE, "flavor": VISITING,
     "smax": 7},
    {"family": "bit-reversal", "params": {"n": 8}, "game": REVERSIBLE, "flavor": VISITING},
    {"family": "line", "params": {"n": 16}, "game": REVERSIBLE, "flavor": VISITING},
    {"family": "line", "params": {"n": 16}, "game": REVERSIBLE, "flavor": PERSISTENT},
    {"family": "line", "params": {"n": 18}, "game": REVERSIBLE, "flavor": PERSISTENT},
    {"family": "line", "params": {"n": 20}, "game": REVERSIBLE, "flavor": VISITING},
    {"family": "line", "params": {"n": 24}, "game": REVERSIBLE, "flavor": VISITING,
     "smax": 6},
)
STD_TABLES = (
    {"family": "pyramid", "params": {"height": 4}, "game": STANDARD},
    {"family": "cs", "params": {"c": 3, "r": 2}, "game": STANDARD},
    {"family": "cs", "params": {"c": 4, "r": 2}, "game": STANDARD, "smax": 5},
    {"family": "bit-reversal", "params": {"n": 8}, "game": STANDARD},
)


def table_key(table) -> str:
    """Stable name of a table, e.g. ``cs(c=3,r=2)/reversible/visiting``."""
    params = ",".join(f"{k}={v}" for k, v in table["params"].items())
    parts = [f"{table['family']}({params})", table["game"]]
    if table.get("flavor"):
        parts.append(table["flavor"])
    if table.get("smax") is not None:
        parts.append(f"smax={table['smax']}")
    return "/".join(parts)


# ---------------------------------------------------------------- graphs


class RefGraph:
    """Single-sink DAG with vertices in a topological order."""

    def __init__(self, names, edges, sink):
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.pred_masks = [0] * len(self.names)
        for a, b in edges:
            ia, ib = self.index[a], self.index[b]
            if ia >= ib:
                raise ValueError(f"edge {a}->{b} is not in declaration order")
            self.pred_masks[ib] |= 1 << ia
        self.sink = self.index[sink]
        self.edges = frozenset((a, b) for a, b in edges)

    def __len__(self):
        return len(self.names)

    def mask_of(self, names) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.index[name]
        return mask


def _line(n):
    names = [f"v{i}" for i in range(1, n + 1)]
    return names, list(zip(names, names[1:])), names[-1]


def _pyramid_parts(h, prefix):
    names, edges = [], []
    for row in range(h + 1):
        for i in range(1, h + 2 - row):
            names.append(f"{prefix}v{row}_{i}")
            if row:
                edges.append((f"{prefix}v{row - 1}_{i}", f"{prefix}v{row}_{i}"))
                edges.append((f"{prefix}v{row - 1}_{i + 1}", f"{prefix}v{row}_{i}"))
    return names, edges


def _bit_reversal(n):
    bits = n.bit_length() - 1
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{i}" for i in range(1, n + 1)]
    edges = list(zip(xs, xs[1:])) + list(zip(ys, ys[1:]))
    for i in range(n):
        rev = int(format(i, f"0{bits}b")[::-1], 2) if bits else 0
        edges.append((xs[i], ys[rev]))
    return xs + ys, edges, ys[-1]


def _cs_parts(c, r, prefix):
    """Carlson-Savage graph: (names, edges, sinks in spine order)."""
    if r == 1:
        sources = [f"{prefix}s1", f"{prefix}s2"]
        sinks = [f"{prefix}t{j}" for j in range(1, c + 1)]
        return sources + sinks, [(s, t) for s in sources for t in sinks], sinks
    names, edges, pyr_sinks = [], [], []
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
                edges.append((pyr_sinks[m - 1] if m <= c else sub_sinks[m - c - 1], v))
                prev = v
        spine_sinks.append(prev)
    return names, edges, spine_sinks


def _restrict(names, edges, sink):
    """Ancestors of `sink` (the single-sink restriction), in declared order."""
    preds = {}
    for a, b in edges:
        preds.setdefault(b, []).append(a)
    keep, stack = {sink}, [sink]
    while stack:
        for p in preds.get(stack.pop(), ()):
            if p not in keep:
                keep.add(p)
                stack.append(p)
    return ([v for v in names if v in keep],
            [(a, b) for a, b in edges if a in keep and b in keep], sink)


def family_graph(family: str, params: dict) -> RefGraph:
    """Single-sink instance as the CLI builds it (CS restricted to sink 1)."""
    if family == "line":
        return RefGraph(*_line(params["n"]))
    if family == "pyramid":
        names, edges = _pyramid_parts(params["height"], "")
        return RefGraph(names, edges, names[-1])
    if family == "bit-reversal":
        return RefGraph(*_bit_reversal(params["n"]))
    if family == "cs":
        names, edges, sinks = _cs_parts(params["c"], params["r"], "")
        return RefGraph(*_restrict(names, edges, sinks[0]))
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------- solver


def _rev_distance(g: RefGraph, space: int, persistent: bool):
    """Breadth-first distance from {} to a goal under reversible moves."""
    pm = g.pred_masks
    zbit = 1 << g.sink
    seen = {0}
    frontier = [0]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            full = u.bit_count() >= space
            for v, need in enumerate(pm):
                if u & need != need:
                    continue
                bit = 1 << v
                if u & bit:
                    x = u ^ bit
                elif full:
                    continue
                else:
                    x = u | bit
                if x in seen:
                    continue
                if (x == zbit) if persistent else (x & zbit):
                    return d
                seen.add(x)
                nxt.append(x)
        frontier = nxt
    return None


def _std_time(g: RefGraph, space: int):
    """Dijkstra over standard moves; visiting a sink configuration T costs |T| to clean up."""
    pm = g.pred_masks
    zbit = 1 << g.sink
    done = -1
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        c, u = heapq.heappop(heap)
        if u == done:
            return c
        if c > dist[u]:
            continue
        if u & zbit:
            heapq.heappush(heap, (c + u.bit_count(), done))
            continue
        can_place = u.bit_count() < space
        for v, need in enumerate(pm):
            bit = 1 << v
            if u & bit:
                x = u & ~bit
            elif can_place and u & need == need:
                x = u | bit
            else:
                continue
            if c + 1 < dist.get(x, c + 2):
                dist[x] = c + 1
                heapq.heappush(heap, (c + 1, x))
    return None


def optimal_time(g: RefGraph, game: str, flavor: str | None, space: int):
    """Optimal number of moves within `space` pebbles, or None if infeasible."""
    if game == STANDARD:
        return _std_time(g, space)
    d = _rev_distance(g, space, flavor == PERSISTENT)
    if d is None:
        return None
    return d if flavor == PERSISTENT else 2 * d


def min_space(g: RefGraph, game: str, flavor: str | None) -> int:
    for s in range(1, len(g) + 1):
        if optimal_time(g, game, flavor, s) is not None:
            return s
    raise ValueError("no pebbling at any budget")


def table_rows(table) -> list[list[int]]:
    """[space, optimal time] for every budget from min space to smax."""
    g = family_graph(table["family"], table["params"])
    game, flavor = table["game"], table.get("flavor")
    ms = min_space(g, game, flavor)
    smax = table.get("smax") or ms + 2
    return [[s, optimal_time(g, game, flavor, s)] for s in range(ms, smax + 1)]


# ---------------------------------------------------------- certificates


def parse_coeff(text: str, prime):
    return int(text, 10) % prime if prime else Fraction(text)


def expand_certificate(g: RefGraph, data: dict):
    """Expand a multilinear certificate's JSON into (polynomial, size, degree).

    A_v = x_pred(v) - x_pred(v)+v and A_sink = x_z; monomials are bitmasks
    and multiply by union.  Size counts products before cancellation and
    degree is the largest union, as the paper defines them.
    """
    spec = data["field"]
    prime = None if spec == "rationals" else spec["prime"]
    total = {}
    size = degree = 0
    for entry in data["multipliers"]:
        axiom = entry["axiom"]
        if axiom == "sink":
            axiom_terms = [(1 << g.sink, 1)]
        else:
            v = g.index[axiom.split(":", 1)[1]]
            pred = g.pred_masks[v]
            axiom_terms = [(pred, 1), (pred | 1 << v, -1)]
        for term in entry["poly"]:
            mono = g.mask_of(term["vars"])
            coeff = parse_coeff(term["coeff"], prime)
            for amono, acoeff in axiom_terms:
                m = mono | amono
                size += 1
                degree = max(degree, m.bit_count())
                total[m] = total.get(m, 0) + coeff * acoeff
    if prime:
        total = {m: c % prime for m, c in total.items()}
    return {m: c for m, c in total.items() if c}, size, degree


def telescoping_multipliers(g: RefGraph, moves, prime) -> dict:
    """Multipliers of the telescoping certificate of a reversible strategy.

    Step i on v_i adds sign * x_R to Q_{v_i}, with R = P_i - {v_i} - pred(v_i)
    and sign +1 for a placement, -1 for a removal, up to the first
    configuration holding the sink P_t'; Q_sink = x_{P_t' - {z}}.  Returns
    {axiom id: {monomial mask: coefficient}} without zero terms or empty
    multipliers; coefficients are reduced mod `prime` unless it is None.
    """
    zbit = 1 << g.sink
    out = {}
    config = 0
    for (_, name), nxt in zip(moves, walk(g, moves, REVERSIBLE)):
        v = g.index[name]
        r = nxt & ~(1 << v) & ~g.pred_masks[v]
        q = out.setdefault(f"vertex:{name}", {})
        q[r] = q.get(r, 0) + (1 if nxt > config else -1)
        config = nxt
        if config & zbit:
            break
    out["sink"] = {config & ~zbit: 1}
    reduced = {}
    for axiom, q in out.items():
        q = {m: c % prime if prime else c for m, c in q.items()}
        q = {m: c for m, c in q.items() if c}
        if q:
            reduced[axiom] = q
    return reduced


def walk(g: RefGraph, moves, game: str):
    """Configurations after each (op, vertex) move from {}; ValueError if illegal.

    Placing needs v empty and its predecessors pebbled; removing needs v
    pebbled, and in the reversible game its predecessors pebbled too.
    """
    config = 0
    for step, (op, name) in enumerate(moves, start=1):
        v = g.index.get(name)
        if v is None:
            raise ValueError(f"step {step}: unknown vertex {name!r}")
        bit = 1 << v
        need = g.pred_masks[v]
        if op == "place":
            if config & bit or config & need != need:
                raise ValueError(f"step {step}: illegal placement on {name}")
            config |= bit
        elif op == "remove":
            if not config & bit or (game == REVERSIBLE and config & need != need):
                raise ValueError(f"step {step}: illegal removal from {name}")
            config &= ~bit
        else:
            raise ValueError(f"step {step}: unknown op {op!r}")
        yield config


def replay(g: RefGraph, moves, game: str, flavor: str | None):
    """(time, space) of a complete pebbling; ValueError if it breaks a rule.

    A visiting pebbling ends empty with the sink pebbled at some step; a
    persistent one ends with exactly the sink.
    """
    zbit = 1 << g.sink
    config = space = 0
    visited = False
    for config in walk(g, moves, game):
        space = max(space, config.bit_count())
        visited = visited or bool(config & zbit)
    if not visited:
        raise ValueError("sink never pebbled")
    final = zbit if (game, flavor) == (REVERSIBLE, PERSISTENT) else 0
    if config != final:
        raise ValueError("wrong final configuration")
    return len(moves), space


# ------------------------------------------------------------- command


def closed_form_failures() -> list[str]:
    """Check the solver against the known pebbling prices."""
    out = []
    for n in range(2, 33):
        g = family_graph("line", {"n": n})
        got = min_space(g, REVERSIBLE, VISITING)
        if got != math.ceil(math.log2(n + 1)):
            out.append(f"line({n}) visiting price {got}")
        got = min_space(g, REVERSIBLE, PERSISTENT)
        if got != math.floor(math.log2(n - 1)) + 2:
            out.append(f"line({n}) persistent price {got}")
    for h in range(1, 6):
        got = min_space(family_graph("pyramid", {"height": h}), STANDARD, None)
        if got != h + 2:
            out.append(f"pyramid({h}) standard price {got}")
    for c, r in ((2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (3, 3)):
        got = min_space(family_graph("cs", {"c": c, "r": r}), STANDARD, None)
        if got != r + 2:
            out.append(f"CS({c},{r}) standard price {got}")
    return out


def compute_expected() -> dict:
    tables = {}
    for table in REV_TABLES + STD_TABLES:
        start = time.perf_counter()
        rows = table_rows(table)
        entry = {"rows": rows}
        if table["game"] == REVERSIBLE:
            g = family_graph(table["family"], table["params"])
            entry["standard"] = [[s, optimal_time(g, STANDARD, None, s)] for s, _ in rows]
        tables[table_key(table)] = entry
        print(f"{table_key(table)}: {rows} ({time.perf_counter() - start:.1f} s)",
              file=sys.stderr)
    return {"tables": tables}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite expected.json instead of comparing with it")
    args = parser.parse_args(argv)
    failures = closed_form_failures()
    for line in failures:
        print(f"closed form: {line}", file=sys.stderr)
    expected = compute_expected()
    if args.write:
        EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
        print(f"wrote {EXPECTED_PATH.name}", file=sys.stderr)
    elif json.loads(EXPECTED_PATH.read_text()) != expected:
        failures.append("expected.json differs from the recomputed optima")
        print(failures[-1], file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
