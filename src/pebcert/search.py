"""Exact solvers over the pebble-game configuration space.

Configurations are bitmasks over topological indices, and every move is read
from the DAG's move table `Dag.toggles`; states with more than the budgeted
number of pebbles are never generated.  Every search runs
forward from the empty configuration, one breadth-first layer at a time, and
counts each configuration it discovers, {} included, against the state
budget.

Reversible moves are symmetric (toggle v whenever pred(v) is pebbled), so an
optimal reversible pebbling follows a shortest path.  The search stops at the
first layer that holds a goal, once that whole layer is discovered: any
sink-containing configuration for the visiting flavor (time twice the
distance: shortest half, then mirror), {z} for the persistent one (time the
distance).

Standard moves are not symmetric, since a pebble may always be removed.  A
sink-containing configuration T discovered at layer k finishes in k + |T|
moves, the path and then the clean-up.  Such configurations are not expanded,
because leaving one never makes the clean-up cheaper, so each is discovered
exactly once, by placing z.  As T holds z and all of pred(z), layer k+1
cannot finish in fewer than k + 2 + |pred(z)| moves; the search stops once
that exceeds the best finish found.

Witnesses are deterministic: among equal-length solutions the walk picks the
lexicographically smallest move sequence under topological vertex order.  The
discovered layers are first pruned backward from the optimal goals to the
shortest-path DAG: from each on-path configuration of layer k+1 only its
neighbours that lie in layer k are visited.  The walk then goes forward from
{}, each step taking the lowest vertex whose move reaches an on-path
configuration of the next layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import (
    InstanceTooLarge,
    InternalConsistencyError,
    NoDesignatedSink,
    SearchError,
    SpaceInfeasible,
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
    mirror_extend,
)

DEFAULT_STATE_BUDGET = 50_000_000


@dataclass(frozen=True)
class TradeoffPoint:
    space: int
    time: int
    witness: Strategy


def _require_single_sink(dag):
    if dag.designated_sink is None:
        raise NoDesignatedSink("search needs a designated sink")
    if len(dag.sinks) != 1:
        raise NoDesignatedSink(
            "graph has several sinks; apply single_sink_restriction first")


def _check_game(game, flavor):
    if game not in (STANDARD, REVERSIBLE):
        raise SearchError(f"unknown game {game!r}")
    if game == REVERSIBLE and flavor not in (VISITING, PERSISTENT):
        raise SearchError(f"reversible search needs a flavor, got {flavor!r}")


def _rev_layers(dag, space, persistent, limit):
    """Reversible BFS from {} to the first goal layer.

    Returns (dist, goals): the layer of every discovered configuration, and
    the goals of the last layer with their layer; None when no goal is
    reachable.
    """
    toggles = dag.toggles
    zbit = 1 << dag.designated_sink
    dist = {0: 0}
    frontier = [0]
    layer = 0
    while frontier:
        layer += 1
        nxt = []
        for u in frontier:
            if u.bit_count() < space:
                for bit, pm in toggles:
                    if u & pm == pm:
                        x = u ^ bit
                        if x not in dist:
                            dist[x] = layer
                            nxt.append(x)
            else:
                for bit, pm in toggles:
                    if u & bit and u & pm == pm:
                        x = u ^ bit
                        if x not in dist:
                            dist[x] = layer
                            nxt.append(x)
            if len(dist) > limit:
                raise InstanceTooLarge(limit, len(dist), layer - 1)
        if persistent:
            if zbit in dist:
                return dist, {zbit: layer}
        else:
            goals = [x for x in nxt if x & zbit]
            if goals:
                return dist, dict.fromkeys(goals, layer)
        frontier = nxt
    return None


def _std_layers(dag, space, limit):
    """Standard BFS from {}, scoring each sink configuration T at layer k as k + |T|.

    Returns (dist, goals, best): the layer of every discovered configuration
    without the sink, the optimal sink configurations with their layer, and
    their finishing time; None when the sink cannot be pebbled.
    """
    z = dag.designated_sink
    zbit, zpm = dag.toggles[z]
    others = dag.toggles[:z] + dag.toggles[z + 1:]
    least = 1 + zpm.bit_count()
    dist = {0: 0}
    sinks = 0
    frontier = [0]
    layer = 0
    best = None
    goals = {}
    while frontier and (best is None or layer + 1 + least <= best):
        layer += 1
        nxt = []
        for u in frontier:
            if u.bit_count() < space:
                for bit, pm in others:
                    if u & bit:
                        x = u ^ bit
                    elif u & pm == pm:
                        x = u | bit
                    else:
                        continue
                    if x not in dist:
                        dist[x] = layer
                        nxt.append(x)
                if u & zpm == zpm:
                    sinks += 1
                    score = layer + u.bit_count() + 1
                    if best is None or score < best:
                        best, goals = score, {}
                    if score == best:
                        goals[u | zbit] = layer
            else:
                for bit, _ in others:
                    if u & bit:
                        x = u ^ bit
                        if x not in dist:
                            dist[x] = layer
                            nxt.append(x)
            if len(dist) + sinks > limit:
                raise InstanceTooLarge(limit, len(dist) + sinks, layer - 1)
        frontier = nxt
    if best is None:
        return None
    return dist, goals, best


def _walk(dag, dist, goals, free_removal):
    """Lexicographically smallest shortest path from {} to a goal.

    `goals` maps each goal to its layer; `dist` gives the layer of every
    configuration a path may pass.  `free_removal` makes every removal legal
    (standard game); otherwise a move needs pred(v) pebbled.
    """
    on = {}
    for g, layer in goals.items():
        on.setdefault(layer, set()).add(g)
    for k in range(max(on), 1, -1):
        below = on.setdefault(k - 1, set())
        for x in on[k]:
            for bit, pm in dag.toggles:
                if x & pm == pm or (free_removal and not x & bit):
                    y = x ^ bit
                    if dist.get(y) == k - 1:
                        below.add(y)
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
    """Optimal (time, witness) within `space` pebbles; None when infeasible."""
    if game == REVERSIBLE:
        found = _rev_layers(dag, space, flavor == PERSISTENT, state_budget)
        if found is None:
            return None
        dist, goals = found
        moves, _ = _walk(dag, dist, goals, False)
        if flavor == PERSISTENT:
            return len(moves), Strategy(REVERSIBLE, PERSISTENT, tuple(moves))
        return 2 * len(moves), mirror_extend(dag, moves)
    found = _std_layers(dag, space, state_budget)
    if found is None:
        return None
    dist, goals, best = found
    moves, cur = _walk(dag, dist, goals, True)
    for v in range(len(dag)):
        if cur >> v & 1:
            moves.append(Move(REMOVE, dag.names[v]))
    return best, Strategy(STANDARD, None, tuple(moves))


def min_time_within_space(dag: Dag, game: str, flavor: str | None, space: int,
                          state_budget: int = DEFAULT_STATE_BUDGET):
    """Optimal move count within a pebble budget, with a verifying witness.

    Reversible visiting: twice the BFS distance from {} to a sink-containing
    configuration, witness mirrored.  Reversible persistent: BFS distance
    from {} to {z}.  Standard: min over sink configurations of path length
    plus final clean-up size.  Raises SpaceInfeasible below min_space.
    """
    _require_single_sink(dag)
    _check_game(game, flavor)
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
    _require_single_sink(dag)
    _check_game(game, flavor)
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
