"""Exact solvers over the pebble-game configuration space.

Configurations are bitmasks over topological indices, and every move is read
from the DAG's move table `Dag.toggles`; states with more than the budgeted
number of pebbles are never generated.  A search stores each finished
breadth-first layer as an `array('Q')`, one 64-bit word per configuration,
so graphs of more than 64 vertices raise `TooManyVertices` before any work.
Each pebble budget is one search, and the state budget caps the
configurations it discovers.  Every search checks the state budget once per
layer, so an `InstanceTooLarge` counts the whole layer that crossed it.

A search's frontier, its newest layer, maps each configuration to the rows
of the move table that it tests.  Only a placement reaches the budget, and
a configuration there tests only the removals next to the vertex v whose
placement reached it: of v's predecessors and successors in the reversible
game, of v's predecessors in the standard game.  Every other configuration
tests every row.  `_grow` and `_std_search` show why the layers stay the
same sets.

Reversible moves are symmetric (toggle v whenever pred(v) is pebbled) and
change the pebble count by one, so an optimal reversible pebbling follows a
shortest path, and layer k+1 is the neighbours of layer k minus layer k-1:
frontier search, which keeps only the two newest layers.
- Visiting: layers grow from {} until one holds a configuration that can
  place z.  The placements of z, the sink configurations of the next
  layer, are the goals and the last layer; no other move toggles z.  Time
  is twice that distance: the shortest half, then its mirror.  The state
  budget counts every configuration of the layers before the goal, {}
  included, plus the sink configurations, not the whole goal layer.
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

Every search returns what it built, unpruned: its layers from {}, its goals
keyed by their layer (the optimal sink configurations or the meeting set),
and, persistent only, its layers from {z}.  `_solve` alone turns them into a
witness.  It prunes once, back from the goals to the shortest-path DAG: the
on-path configurations of a layer are those with a move into the next
layer's on-path set (any removal is a move in the standard game).  The
persistent {z} side needs no pruning: every member of a layer from {z}
neighbours the layer before it, so from any on-path configuration each
neighbour in the next {z} layer is on a shortest path, and the {z} layers
serve as on-path sets as they are.  The walk then goes forward from {}, each
step taking the lowest vertex whose move reaches the next on-path set, so
among equal-length solutions the witness is lexicographically smallest under
topological vertex order.  It returns configurations, the standard clean-up
appends one per removal, lowest pebble first, and `pebbling._steps` makes the
moves.  Every witness is replayed by `verify_strategy` before it is returned;
one that fails raises `InternalConsistencyError`.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .errors import (
    GraphError,
    InstanceTooLarge,
    InternalConsistencyError,
    PebblingError,
    SearchError,
    SpaceInfeasible,
    TooManyVertices,
)
from .graphs import Dag, _check_cs
from .pebbling import (
    PERSISTENT,
    REVERSIBLE,
    STANDARD,
    VISITING,
    Strategy,
    _moves,
    _steps,
    verify_strategy,
    visiting,
)

DEFAULT_STATE_BUDGET = 50_000_000
MAX_VERTICES = 64


class TradeoffPoint(NamedTuple):
    space: int
    time: int
    witness: Strategy


def _check_search(dag, game, flavor, state_budget):
    if dag.designated_sink is None:
        raise GraphError("search needs a designated sink")
    if len(dag.sinks) != 1:
        raise GraphError("graph has several sinks; apply single_sink_restriction first")
    if len(dag) > MAX_VERTICES:
        raise TooManyVertices(f"search holds a configuration in {MAX_VERTICES} bits; "
                              f"the graph has {len(dag)} vertices")
    _check_int("state budget", state_budget)
    if state_budget < 1:
        raise SearchError(f"state budget must be at least 1, got {state_budget!r}")
    if game not in (STANDARD, REVERSIBLE):
        raise SearchError(f"unknown game {game!r}")
    if game == REVERSIBLE and flavor not in (VISITING, PERSISTENT):
        raise SearchError(f"reversible search needs a flavor, got {flavor!r}")


def _check_int(what, value):
    """Refuse a count that is not an `int`; a `bool` is not one."""
    if type(value) is not int:
        raise SearchError(f"{what} must be an integer, got {value!r}")


class _End:
    """One end of a reversible search: its finished layers and its two newest layers.

    `cur` maps each configuration of the newest layer to the rows it tests.
    """

    __slots__ = ("layers", "prev", "cur")

    def __init__(self, start, tries):
        self.layers = [array("Q", [start])]
        self.prev = {}
        self.cur = {start: tries}


def _grow(moves, space, end):
    """Advance `end` by one layer and return it: the neighbours of layer k minus layer k-1.

    A row of `moves` is (bit, pred mask, removals near the vertex), a
    removal row is (bit, bit | pred mask, None), and a row is legal where
    its mask is pebbled.  Every move changes the pebble count by one, so no
    neighbour of layer k lies in layer k.  A configuration u = w + v at the
    budget needs only the removals of v's predecessors and successors: for
    any other removable r, w - r is a neighbour of w below the budget that
    still places v, so u - r lies in layer k or is generated from w - r,
    which tests every row.
    """
    cur, prev = end.cur, end.prev
    nxt = {x: near if x.bit_count() == space else moves
           for u, tries in cur.items() for bit, need, near in tries
           if u & need == need and (x := u ^ bit) not in prev}
    end.prev, end.cur = cur, nxt
    return nxt


def _back(toggles, on, layer, free_removal):
    """The configurations of `layer` with a move into the set `on`."""
    return {x ^ bit for x in on for bit, pm in toggles
            if x & pm == pm or (free_removal and not x & bit)}.intersection(layer)


def _rev_search(dag, space, persistent, limit):
    """Finished layers of a reversible search; None when no pebbling exists.

    Returns (layers, goals, zlayers): the layers from {}, the meeting
    configurations (visiting: those holding z) keyed by their layer, and the
    layers from {z} for the persistent flavor (empty otherwise).  The
    visiting search stops before the layer that can place z: its last layer
    holds only the sink configurations, and no other move toggles z.
    """
    z = dag.designated_sink
    zbit, zpm = dag.toggles[z]
    removal = {v: (bit, bit | pm, None) for v, (bit, pm) in enumerate(dag.toggles)
               if persistent or v != z}
    near = [set(ps) for ps in dag.preds]
    for v, ps in enumerate(dag.preds):
        for p in ps:
            near[p].add(v)
    moves = [(*dag.toggles[v], [removal[r] for r in near[v] if r in removal]) for v in removal]
    # {z} at space 1 is a start at the budget: it may only remove z
    ends = ((_End(0, moves), _End(zbit, moves if space > 1 else [removal[z]])) if persistent
            else (_End(0, moves),))
    start, goal = ends[0], ends[-1]
    total = len(ends)
    while True:
        end = goal if len(goal.cur) < len(start.cur) else start
        # visiting: the next layer's sink configurations are the placements of z
        sinks = [] if persistent else [u | zbit for u in end.cur
                                       if u & zpm == zpm and u.bit_count() < space]
        nxt = sinks or _grow(moves, space, end)
        if not nxt:
            return None
        total += len(nxt)
        if total > limit:
            done = sum(len(e.layers) - 1 for e in ends)
            raise InstanceTooLarge(limit, total, done, two_ended=persistent)
        end.layers.append(array("Q", nxt))
        if persistent:
            other = start.cur if end is goal else goal.cur
            meet = nxt.keys() & other
        else:
            meet = sinks
        if meet:
            # the meet lies in the newest layer from {}
            goals = dict.fromkeys(meet, len(start.layers) - 1)
            return start.layers, goals, goal.layers if persistent else ()


def _std_search(dag, space, limit):
    """Standard BFS from {}, scoring each sink configuration T at layer k as k + |T|.

    Returns (layers, goals, ()): the layers from {} and the optimal sink
    configurations keyed by their layer; None when the sink cannot be pebbled.
    A row of `moves` is (bit, pred mask, removals of the preds), a removal
    row is (bit, 0, None), and a row is legal where its bit or its mask is
    pebbled.  A configuration u = w + v at the budget, at distance k, needs
    only the removals of pred(v), all of them pebbled.  Any other pebble r
    of w may be removed, so w - r is below the budget within distance k and
    still places v: u - r is already seen or is generated from w - r, which
    tests every row.  Removing v gives w, which is seen.
    """
    z = dag.designated_sink
    zbit, zpm = dag.toggles[z]
    moves = [(*dag.toggles[v], [(1 << p, 0, None) for p in ps])
             for v, ps in enumerate(dag.preds) if v != z]
    least = 1 + zpm.bit_count()
    seen = {0}
    layers = [array("Q", [0])]
    total = 1
    frontier = {0: moves}
    best = None
    goals = {}
    while frontier and (best is None or len(layers) + least <= best):
        layer = len(layers)
        sinks = [u for u in frontier if u & zpm == zpm and u.bit_count() < space]
        for u in sinks:
            score = layer + u.bit_count() + 1
            if best is None or score < best:
                best, goals = score, {}
            if score == best:
                goals[u | zbit] = layer
        nxt = {x: near if x.bit_count() == space else moves
               for u, tries in frontier.items() for bit, pm, near in tries
               if (u & bit or u & pm == pm) and (x := u ^ bit) not in seen and not seen.add(x)}
        total += len(nxt) + len(sinks)
        if total > limit:
            raise InstanceTooLarge(limit, total, layer - 1)
        layers.append(array("Q", nxt))
        frontier = nxt
    return None if best is None else (layers, goals, ())


def _walk(dag, on, goals, free_removal):
    """Lexicographically smallest shortest path from {} to a goal, as its configurations.

    on[k] holds the on-path configurations at distance k.  `free_removal`
    makes every removal legal (standard game); otherwise a move needs
    pred(v) pebbled.
    """
    path = [0]
    while (cur := path[-1]) not in goals:
        ahead = on[len(path)]
        for bit, pm in dag.toggles:
            if (cur & pm == pm or (free_removal and cur & bit)) and cur ^ bit in ahead:
                path.append(cur ^ bit)
                break
        else:
            raise InternalConsistencyError("walk failed to make progress")  # unreachable
    return path


def _solve(dag, game, flavor, space, state_budget):
    """Optimal (time, witness) within `space` pebbles, replayed; None when infeasible."""
    standard = game == STANDARD
    found = (_std_search(dag, space, state_budget) if standard
             else _rev_search(dag, space, flavor == PERSISTENT, state_budget))
    if found is None:
        return None
    layers, goals, zlayers = found
    on = [set() for _ in range(max(goals.values()) + 1)]
    for g, k in goals.items():
        on[k].add(g)
    for k in range(len(on) - 1, 1, -1):
        on[k - 1] |= _back(dag.toggles, on[k], layers[k - 1], standard)
    on += [set(layer) for layer in reversed(zlayers[:-1])]
    path = _walk(dag, on, on[-1] if zlayers else goals, standard)
    if standard:
        flavor = None
        while path[-1]:  # the clean-up, lowest pebble first
            path.append(path[-1] & path[-1] - 1)
    steps = _steps(path)
    witness = (visiting(dag, steps) if flavor == VISITING
               else Strategy(game, flavor, _moves(dag, steps)))
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
    _check_int("space", space)
    if space < 1:
        raise SpaceInfeasible("budget below one pebble")
    found = _solve(dag, game, flavor, space, state_budget)
    if found is None:
        kind = f"{flavor} reversible" if game == REVERSIBLE else "standard"
        raise SpaceInfeasible(f"no {kind} pebbling in space {space!r}")
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
    raise InternalConsistencyError("no legal pebbling at any budget")  # unreachable


def pareto(dag: Dag, game: str, flavor: str | None, s_max: int | None = None,
           state_budget: int = DEFAULT_STATE_BUDGET) -> list[TradeoffPoint]:
    """Optimal time for every budget from min_space up to s_max.

    s_max defaults to min_space + 2.  Each budget is searched once.
    """
    if s_max is not None:
        _check_int("s_max", s_max)
    ms, witness = min_space(dag, game, flavor, state_budget)
    if s_max is None:
        s_max = ms + 2
    if s_max < ms:
        raise SpaceInfeasible(f"s_max {s_max!r} below min space {ms}")
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
    _check_cs(c, r)
    _check_int("space", space)
    s_prime = max(1, space - r - 1)
    if s_prime > c - 3:
        return Fraction(0)
    return Fraction(c - s_prime, s_prime + 1) ** r * factorial(r)
