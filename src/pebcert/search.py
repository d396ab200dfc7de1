"""Exact solvers over the pebble-game configuration space.

Configurations are bitmasks over topological indices, and every move is read
from the DAG's move table `Dag.toggles`; states with more than the budgeted
number of pebbles are never generated.  A search stores each finished
breadth-first layer as an `array('Q')`, one 64-bit word per configuration,
so graphs of more than 64 vertices raise `TooManyVertices` before any work.
Each pebble budget is one search, and the state budget caps the
configurations it discovers.  Every search checks the state budget once per
layer, so an `InstanceTooLarge` counts the whole layer that crossed it.

Reversible moves are symmetric (toggle v whenever pred(v) is pebbled) and
change the pebble count by one, so an optimal reversible pebbling follows a
shortest path, and layer k+1 is the neighbours of layer k minus layer k-1:
frontier search, which keeps only the two newest layers as sets.
- Visiting: layers grow from {} up to the first that holds a sink
  configuration.  Time is twice that distance: the shortest half, then its
  mirror.  The state budget counts every configuration of those layers,
  {} included.
- Persistent: the goal is the single configuration {z}, so layers grow
  from {} and from {z}, each round on the side whose newest layer is
  smaller (from {} on a tie), until the newest layer meets the other
  side's newest layer.  Time is the sum of the two depths.  If either side
  runs out first, the budget is infeasible.  The state budget counts the
  layers of both sides, {} and {z} included; a configuration both sides
  discover counts twice.

Standard moves are not symmetric, since a pebble may always be removed.  A
sink-containing configuration T discovered at layer k finishes in k + |T|
moves, the path and then the clean-up.  Such configurations are not expanded,
because leaving one never makes the clean-up cheaper, so each is discovered
exactly once, by placing z.  As T holds z and all of pred(z), layer k+1
cannot finish in fewer than k + 2 + |pred(z)| moves; the search stops once
that exceeds the best finish found.  This search runs forward from {}, keeps
a set of every configuration seen, and counts every configuration of its
layers against the state budget, {} and the sink configurations included.

Witnesses are deterministic: among equal-length solutions the walk picks the
lexicographically smallest move sequence under topological vertex order.  The
stored layers are first pruned to the shortest-path DAG: the on-path
configurations of a layer are the neighbours of the next layer's on-path set
that lie in it.  For the persistent flavor the pruning starts from the
meeting set and runs back to {} through the layers from {}, and forward to
{z} through the layers from {z}.  The walk then goes forward from {}, each
step taking the lowest vertex whose move reaches an on-path configuration of
the next layer.  Every witness is replayed by `verify_strategy` before it
is returned; one that fails raises `InternalConsistencyError`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import (
    InstanceTooLarge,
    InternalConsistencyError,
    NoDesignatedSink,
    PebblingError,
    SearchError,
    SpaceInfeasible,
    TooManyVertices,
)
from .graphs import Dag
from .pebbling import (
    PERSISTENT,
    PLACE,
    REMOVE,
    REVERSIBLE,
    STANDARD,
    VISITING,
    Move,
    Strategy,
    verify_strategy,
    visiting,
)

DEFAULT_STATE_BUDGET = 50_000_000
MAX_VERTICES = 64


@dataclass(frozen=True)
class TradeoffPoint:
    space: int
    time: int
    witness: Strategy


def _check_search(dag, game, flavor, state_budget):
    if dag.designated_sink is None:
        raise NoDesignatedSink("search needs a designated sink")
    if len(dag.sinks) != 1:
        raise NoDesignatedSink(
            "graph has several sinks; apply single_sink_restriction first")
    if len(dag) > MAX_VERTICES:
        raise TooManyVertices(f"search holds a configuration in {MAX_VERTICES} bits; "
                              f"the graph has {len(dag)} vertices")
    if state_budget < 1:
        raise SearchError(f"state budget must be at least 1, got {state_budget}")
    if game not in (STANDARD, REVERSIBLE):
        raise SearchError(f"unknown game {game!r}")
    if game == REVERSIBLE and flavor not in (VISITING, PERSISTENT):
        raise SearchError(f"reversible search needs a flavor, got {flavor!r}")


class _End:
    """One end of a reversible search: its finished layers and its two newest layers."""

    __slots__ = ("layers", "prev", "cur")

    def __init__(self, start):
        self.layers = [array("Q", [start])]
        self.prev = set()
        self.cur = {start}


def _grow(toggles, removals, space, end):
    """Advance `end` by one layer and return it: the neighbours of layer k minus layer k-1.

    Every move changes the pebble count by one, so no neighbour of layer k
    lies in layer k itself.  A configuration at the budget may only remove a
    pebble; `removals` pairs each bit with the mask its removal needs.
    """
    cur = end.cur
    at = [u for u in cur if u.bit_count() == space]
    below = [u for u in cur if u.bit_count() < space] if at else cur
    nxt = {u ^ bit for u in below for bit, pm in toggles if u & pm == pm}
    if at:
        nxt.update([u ^ bit for u in at for bit, need in removals if u & need == need])
    nxt.difference_update(end.prev)
    end.prev, end.cur = cur, nxt
    return nxt


def _back(toggles, on, layer, free_removal=False):
    """The configurations of `layer` with a move into the set `on`."""
    return {x ^ bit for x in on for bit, pm in toggles
            if x & pm == pm or (free_removal and not x & bit)}.intersection(layer)


def _rev_search(dag, space, persistent, limit):
    """On-path layers of the optimal reversible pebblings; None when there is none.

    on[k] holds every configuration at distance k from {} on a shortest path
    to a goal: on[0] holds only {} and the last entry holds the goals.
    """
    toggles = dag.toggles
    removals = [(bit, bit | pm) for bit, pm in toggles]
    zbit = 1 << dag.designated_sink
    ends = (_End(0), _End(zbit)) if persistent else (_End(0),)
    start, goal = ends[0], ends[-1]
    total = len(ends)
    while True:
        end = goal if len(goal.cur) < len(start.cur) else start
        nxt = _grow(toggles, removals, space, end)
        if not nxt:
            return None
        total += len(nxt)
        if total > limit:
            done = sum(len(e.layers) - 1 for e in ends)
            raise InstanceTooLarge(limit, total, done, two_ended=persistent)
        end.layers.append(array("Q", nxt))
        if persistent:
            meet = nxt & (start.cur if end is goal else goal.cur)
        else:
            meet = {x for x in nxt if x & zbit}
        if meet:
            break
    on = [meet]
    for layer in reversed(start.layers[:-1]):
        on.append(_back(toggles, on[-1], layer))
    on.reverse()
    if persistent:
        for layer in reversed(goal.layers[:-1]):
            on.append(_back(toggles, on[-1], layer))
    return on


def _std_search(dag, space, limit):
    """Standard BFS from {}, scoring each sink configuration T at layer k as k + |T|.

    Returns (on, goals): the on-path configurations of each layer and the
    optimal sink configurations with their layers; None when the sink cannot
    be pebbled.
    """
    z = dag.designated_sink
    zbit, zpm = dag.toggles[z]
    others = dag.toggles[:z] + dag.toggles[z + 1:]
    least = 1 + zpm.bit_count()
    seen = {0}
    layers = [array("Q", [0])]
    total = 1
    frontier = [0]
    best = None
    goals = {}
    while frontier and (best is None or len(layers) + least <= best):
        layer = len(layers)
        at = [u for u in frontier if u.bit_count() == space]
        below = [u for u in frontier if u.bit_count() < space] if at else frontier
        sinks = [u for u in below if u & zpm == zpm]
        for u in sinks:
            score = layer + u.bit_count() + 1
            if best is None or score < best:
                best, goals = score, {}
            if score == best:
                goals[u | zbit] = layer
        # a list deduplicated against `seen` as it grows: a set-valued layer
        # would raise the peak memory by 5-8% on the benchmark's tables
        nxt = [x for u in below for bit, pm in others
               if (u & bit or u & pm == pm) and (x := u ^ bit) not in seen and not seen.add(x)]
        nxt += [x for u in at for bit, _ in others
                if u & bit and (x := u ^ bit) not in seen and not seen.add(x)]
        total += len(nxt) + len(sinks)
        if total > limit:
            raise InstanceTooLarge(limit, total, layer - 1)
        layers.append(array("Q", nxt))
        frontier = nxt
    if best is None:
        return None
    on = [set() for _ in range(max(goals.values()) + 1)]
    for g, layer in goals.items():
        on[layer].add(g)
    for k in range(len(on) - 1, 1, -1):
        on[k - 1] |= _back(dag.toggles, on[k], layers[k - 1], True)
    return on, goals


def _walk(dag, on, goals, free_removal):
    """Lexicographically smallest shortest path from {} to a goal.

    on[k] holds the on-path configurations at distance k.  `free_removal`
    makes every removal legal (standard game); otherwise a move needs
    pred(v) pebbled.
    """
    moves = []
    cur = 0
    k = 0
    while cur not in goals:
        k += 1
        ahead = on[k]
        for v, (bit, pm) in enumerate(dag.toggles):
            if cur & pm == pm or (free_removal and cur & bit):
                x = cur ^ bit
                if x in ahead:
                    moves.append(Move(PLACE if x > cur else REMOVE, dag.names[v]))
                    cur = x
                    break
        else:
            raise SearchError("walk failed to make progress")  # unreachable
    return moves, cur


def _solve(dag, game, flavor, space, state_budget):
    """Optimal (time, witness) within `space` pebbles, replayed; None when infeasible."""
    if game == REVERSIBLE:
        on = _rev_search(dag, space, flavor == PERSISTENT, state_budget)
        if on is None:
            return None
        moves, _ = _walk(dag, on, on[-1], False)
    else:
        flavor = None
        found = _std_search(dag, space, state_budget)
        if found is None:
            return None
        moves, cur = _walk(dag, *found, True)
        moves += [Move(REMOVE, dag.names[v]) for v in range(len(dag)) if cur >> v & 1]
    witness = (visiting(moves, dag.designated_sink_name) if flavor == VISITING
               else Strategy(game, flavor, tuple(moves)))
    try:
        used = verify_strategy(dag, witness).space
    except PebblingError as exc:
        raise InternalConsistencyError(f"search witness fails its replay: {exc}") from None
    if used > space:
        raise InternalConsistencyError(f"search witness uses {used} pebbles, budget {space}")
    return len(witness.moves), witness


def min_time_within_space(dag: Dag, game: str, flavor: str | None, space: int,
                          state_budget: int = DEFAULT_STATE_BUDGET):
    """Optimal move count within a pebble budget, with a verifying witness.

    Reversible visiting: twice the BFS distance from {} to a sink-containing
    configuration, witness mirrored.  Reversible persistent: BFS distance
    from {} to {z}.  Standard: min over sink configurations of path length
    plus final clean-up size.  Raises SpaceInfeasible below min_space.
    """
    _check_search(dag, game, flavor, state_budget)
    if space < 1:
        raise SpaceInfeasible("budget below one pebble")
    found = _solve(dag, game, flavor, space, state_budget)
    if found is None:
        kind = f"{flavor} reversible" if game == REVERSIBLE else "standard"
        raise SpaceInfeasible(f"no {kind} pebbling in space {space}")
    return found


def min_space(dag: Dag, game: str, flavor: str | None = VISITING,
              state_budget: int = DEFAULT_STATE_BUDGET):
    """Smallest pebble budget admitting a legal pebbling, with a witness.

    Searches the budgets 1, 2, ... in turn; the witness is the deterministic
    time-optimal strategy of the first one that succeeds.
    """
    _check_search(dag, game, flavor, state_budget)
    for s in range(1, len(dag) + 1):
        found = _solve(dag, game, flavor, s, state_budget)
        if found is not None:
            return s, found[1]
    raise SpaceInfeasible("no legal pebbling at any budget")  # unreachable


def pareto(dag: Dag, game: str, flavor: str | None, s_max: int | None = None,
           state_budget: int = DEFAULT_STATE_BUDGET) -> list[TradeoffPoint]:
    """Optimal time for every budget from min_space up to s_max.

    s_max defaults to min_space + 2.  Each budget is searched once.
    """
    ms, witness = min_space(dag, game, flavor, state_budget)
    if s_max is None:
        s_max = ms + 2
    if s_max < ms:
        raise SpaceInfeasible(f"s_max {s_max} below min space {ms}")
    points = [TradeoffPoint(ms, len(witness.moves), witness)]
    for s in range(ms + 1, s_max + 1):
        t, witness = min_time_within_space(dag, game, flavor, s, state_budget)
        if t > points[-1].time:
            raise InternalConsistencyError("pareto times must be non-increasing")
        points.append(TradeoffPoint(s, t, witness))
    return points


def cs_lower_bound(c: int, r: int, space: int) -> Fraction:
    """Trade-off lower bound on standard pebbling time of the CS family.

    For a pebbling in space less than (r+2)+s' with 0 < s' <= c-3 the time is
    at least ((c-s')/(s'+1))^r * r!.  The smallest admissible s' for the given
    space is used; returns 0 when no s' in range applies (vacuous bound).
    """
    s_prime = max(1, space - r - 1)
    if s_prime > c - 3:
        return Fraction(0)
    return Fraction(c - s_prime, s_prime + 1) ** r * factorial(r)
