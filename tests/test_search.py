"""Exact solvers: optimality, witnesses, determinism, lower-bound formula.

The micro-instance completeness check enumerates every move sequence shorter
than the reported optimum and confirms none completes a legal pebbling, so
the BFS optimum is grounded independently of the search implementation.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pebcert import (
    Move,
    bit_reversal,
    carlson_savage,
    search,
    cs_lower_bound,
    line,
    min_space,
    min_time_within_space,
    pareto,
    pyramid,
    single_sink_restriction,
    verify_strategy,
)
from pebcert.cli import main
from pebcert.errors import (
    GraphError,
    InstanceTooLarge,
    InternalConsistencyError,
    ParamOutOfRange,
    SearchError,
    SpaceInfeasible,
    TooManyVertices,
)
from pebcert.pebbling import _moves, _steps, replay

from conftest import golden_moves, random_single_sink_dag


def _cs_prime(c, r):
    dag = carlson_savage(c, r)
    return single_sink_restriction(dag, dag.sink_names[0])


def test_min_space_examples():
    assert min_space(line(3), "reversible", "visiting")[0] == 2
    assert min_space(pyramid(1), "reversible", "visiting")[0] == 3
    assert min_space(_cs_prime(2, 1), "standard", "visiting")[0] == 3


def test_min_space_witness_verifies():
    space, witness = min_space(pyramid(2), "reversible", "visiting")
    metrics = verify_strategy(pyramid(2), witness)
    assert metrics.space <= space


@pytest.mark.parametrize("dag,game,flavor", [
    (bit_reversal(8), "standard", None),  # its clean-up removes vertices the walk removed
    (pyramid(3), "reversible", "visiting"),
    (pyramid(3), "reversible", "persistent"),
])
def test_witness_shares_one_move_per_distinct_move(dag, game, flavor):
    moves = min_space(dag, game, flavor)[1].moves
    assert len({id(m) for m in moves}) == len(set(moves)) < len(moves)
    assert all(type(m) is Move for m in moves)


def test_min_time_examples():
    assert min_time_within_space(line(1), "reversible", "visiting", 1)[0] == 2
    assert min_time_within_space(line(2), "reversible", "visiting", 2)[0] == 4
    assert min_time_within_space(pyramid(1), "reversible", "visiting", 3)[0] == 6


def test_min_time_witness_metrics_match():
    for game, flavor in (("reversible", "visiting"), ("reversible", "persistent"),
                         ("standard", None)):
        t, witness = min_time_within_space(pyramid(2), game, flavor, 6)
        metrics = verify_strategy(pyramid(2), witness)
        assert metrics.time == t
        assert metrics.space <= 6
        assert witness.game == game


def test_pareto_line_three():
    points = pareto(line(3), "reversible", "visiting", 3)
    assert [(p.space, p.time) for p in points] == [(2, 8), (3, 6)]
    for p in points:
        assert verify_strategy(line(3), p.witness).time == p.time


def test_pareto_monotone_pyramid():
    points = pareto(pyramid(2), "reversible", "visiting", 5)
    times = [p.time for p in points]
    assert times == sorted(times, reverse=True)


def test_space_infeasible():
    with pytest.raises(SpaceInfeasible):
        min_time_within_space(line(2), "reversible", "visiting", 1)
    with pytest.raises(SpaceInfeasible):
        pareto(line(3), "reversible", "visiting", 1)


def test_multi_sink_rejected():
    with pytest.raises(GraphError, match="search needs a designated sink"):
        min_space(carlson_savage(2, 1), "standard", "visiting")


@pytest.mark.parametrize("game,flavor,message", [
    ("chess", None, "unknown game 'chess'"),
    ("reversible", None, "reversible search needs a flavor, got None"),
    ("reversible", "standard", "reversible search needs a flavor, got 'standard'"),
])
def test_search_rejects_unknown_game_and_missing_flavor(game, flavor, message):
    for call in (lambda: min_space(line(3), game, flavor),
                 lambda: min_time_within_space(line(3), game, flavor, 2),
                 lambda: pareto(line(3), game, flavor, 3)):
        with pytest.raises(SearchError, match=f"^{message}$"):
            call()


def test_state_budget_guard():
    with pytest.raises(InstanceTooLarge):
        min_space(pyramid(3), "reversible", "visiting", state_budget=5)


def test_state_budget_below_one_refused():
    for budget in (0, -5):
        for game, flavor in (("reversible", "visiting"), ("reversible", "persistent"),
                             ("standard", None)):
            for call in (lambda: min_space(line(3), game, flavor, budget),
                         lambda: min_time_within_space(line(3), game, flavor, 2, budget),
                         lambda: pareto(line(3), game, flavor, 3, budget)):
                with pytest.raises(SearchError, match="state budget must be at least 1") as exc:
                    call()
                assert type(exc.value) is SearchError


def test_space_below_one_infeasible():
    for game, flavor in (("reversible", "visiting"), ("standard", None)):
        with pytest.raises(SpaceInfeasible, match="below one pebble"):
            min_time_within_space(line(3), game, flavor, 0)


@pytest.mark.parametrize("call,message", [
    (lambda: min_time_within_space(pyramid(2), "standard", None, 3.5),
     "space must be an integer, got 3.5"),
    (lambda: min_time_within_space(line(3), "reversible", "visiting", True),
     "space must be an integer, got True"),
    (lambda: pareto(line(3), "reversible", "visiting", 2.5),
     "s_max must be an integer, got 2.5"),
    # checked before min_space searches, which would exceed the state budget
    (lambda: pareto(pyramid(3), "reversible", "visiting", 4.0, state_budget=5),
     "s_max must be an integer, got 4.0"),
    (lambda: min_space(line(3), "reversible", "visiting", state_budget="5"),
     "state budget must be an integer, got '5'"),
    (lambda: min_space(line(3), "standard", None, state_budget=1.5),
     "state budget must be an integer, got 1.5"),
    (lambda: pareto(line(3), "reversible", "persistent", 3, True),
     "state budget must be an integer, got True"),
], ids=["space-float", "space-bool", "smax-float", "smax-before-search", "budget-str",
        "budget-float", "budget-bool"])
def test_search_budgets_must_be_integers(call, message):
    with pytest.raises(SearchError, match=f"^{message}$") as exc:
        call()
    assert type(exc.value) is SearchError


def test_more_than_64_vertices_refused():
    dag = line(65)
    for game, flavor in (("reversible", "visiting"), ("reversible", "persistent"),
                         ("standard", None)):
        with pytest.raises(TooManyVertices):
            min_time_within_space(dag, game, flavor, 2, state_budget=0)
        with pytest.raises(TooManyVertices):
            min_space(dag, game, flavor, state_budget=0)
        with pytest.raises(TooManyVertices):
            pareto(dag, game, flavor, 3, state_budget=0)
    # 64 vertices fit, the sink's configuration in the top bit included
    dag = line(64)
    assert min_time_within_space(dag, "standard", None, 2)[0] == 128
    for flavor in ("visiting", "persistent"):
        with pytest.raises(SpaceInfeasible):
            min_time_within_space(dag, "reversible", flavor, 2)


def test_witnesses_deterministic():
    a = min_time_within_space(pyramid(2), "reversible", "visiting", 5)[1]
    b = min_time_within_space(pyramid(2), "reversible", "visiting", 5)[1]
    assert a == b
    sa = min_time_within_space(pyramid(2), "standard", None, 4)[1]
    sb = min_time_within_space(pyramid(2), "standard", None, 4)[1]
    assert sa == sb


def test_cs_lower_bound_values():
    assert cs_lower_bound(4, 1, 3) == Fraction(3, 2)
    assert cs_lower_bound(5, 1, 3) == 2
    assert cs_lower_bound(6, 1, 5) == Fraction(3, 4)  # s' = 3 = c - 3
    assert cs_lower_bound(6, 1, 6) == 0  # s' would exceed c - 3
    assert cs_lower_bound(4, 1, 4 + 1 + 1) == 0  # space >= r + c + 1: vacuous
    assert cs_lower_bound(4, 2, 3) == Fraction(9, 2)  # ((4-1)/2)^2 * 2!


@pytest.mark.parametrize("c,r,space,error,message", [
    (5.5, 2, 3, ParamOutOfRange, "carlson_savage needs c >= 2 and r >= 1"),
    (5, -1, 2, ParamOutOfRange, "carlson_savage needs c >= 2 and r >= 1"),
    (5, 0, 3, ParamOutOfRange, "carlson_savage needs c >= 2 and r >= 1"),  # no such graph
    (5, 2, 3.0, SearchError, "space must be an integer, got 3.0"),
])
def test_cs_lower_bound_refuses_bad_input(c, r, space, error, message):
    with pytest.raises(error) as info:
        cs_lower_bound(c, r, space)
    assert str(info.value) == message


# -- independent micro-oracle ------------------------------------------------

def _enumerate_shorter(dag, game, flavor, space, limit):
    """Does any legal pebbling of at most `limit` moves exist?

    Depth-first over move sequences.  A state (mask, visited) that failed
    with k moves left fails with any fewer, so it is not searched again then.
    """
    n = len(dag)
    preds = dag.preds
    z = dag.designated_sink
    failed = {}  # (mask, visited) -> most moves left already shown not to suffice

    def finished(mask, visited):
        if not visited:
            return False
        if game == "reversible" and flavor == "persistent":
            return mask == 1 << z
        return mask == 0

    def rec(mask, visited, moves_left):
        if finished(mask, visited):
            return True
        if moves_left == 0 or failed.get((mask, visited), -1) >= moves_left:
            return False
        for v in range(n):
            bit = 1 << v
            have_preds = all(mask >> p & 1 for p in preds[v])
            if mask & bit:
                if game == "standard" or have_preds:
                    if rec(mask & ~bit, visited, moves_left - 1):
                        return True
            elif have_preds and (mask.bit_count() < space):
                if rec(mask | bit, visited or v == z, moves_left - 1):
                    return True
        failed[(mask, visited)] = moves_left
        return False

    return rec(0, False, limit)


@pytest.mark.parametrize("dag_factory,game,flavor", [
    (lambda: line(2), "reversible", "visiting"),
    (lambda: line(3), "reversible", "visiting"),
    (lambda: pyramid(1), "reversible", "visiting"),
    (lambda: pyramid(1), "standard", None),
    (lambda: line(3), "reversible", "persistent"),
])
def test_micro_completeness(dag_factory, game, flavor):
    dag = dag_factory()
    assert len(dag) <= 6
    space, _ = min_space(dag, game, flavor)
    optimum, _ = min_time_within_space(dag, game, flavor, space)
    assert _enumerate_shorter(dag, game, flavor, space, optimum)
    assert not _enumerate_shorter(dag, game, flavor, space, optimum - 1)


def _times(dag, game, flavor, s_max):
    """{space: optimal time} from min space up to `s_max` (min space + 2 for None)."""
    return {point.space: point.time for point in pareto(dag, game, flavor, s_max)}


@settings(max_examples=150)
@given(dag=st.integers(0, 2**32 - 1).map(
    lambda seed: random_single_sink_dag(random.Random(seed), max_n=9)))
@example(dag=line(8))
@example(dag=pyramid(3))
@example(dag=bit_reversal(4))
@example(dag=line(3))
@example(dag=pyramid(2))
def test_games_bound_one_another(dag):
    # a reversible move is a standard one; a persistent pebbling run forward
    # and back is a visiting one; a visiting witness that keeps z and undoes
    # the moves before its first placement of z is a persistent one, with
    # one pebble more and one move less than its forward half doubled
    vis = _times(dag, "reversible", "visiting", None)
    ms = min(vis)
    per = _times(dag, "reversible", "persistent", ms + 3)
    std = _times(dag, "standard", None, ms + 2)
    assert min(std) <= ms <= min(per) <= ms + 1
    for s in range(ms, ms + 3):
        assert std[s] <= vis[s]
        if s in per:
            assert vis[s] <= 2 * per[s]
        assert per[s + 1] <= vis[s] - 1


def test_oracle_vs_enumeration_on_random_dags():
    # independent cross-check on 40 random single-sink DAGs
    rng = random.Random(20240817)
    for _ in range(40):
        dag = random_single_sink_dag(rng, max_n=5)
        for game, flavor in (("reversible", "visiting"), ("reversible", "persistent"),
                             ("standard", None)):
            space, _ = min_space(dag, game, flavor)
            optimum, witness = min_time_within_space(dag, game, flavor, space)
            assert verify_strategy(dag, witness).time == optimum
            assert _enumerate_shorter(dag, game, flavor, space, optimum)
            assert not _enumerate_shorter(dag, game, flavor, space, optimum - 1)
            # one pebble below min space must be infeasible
            if space > 1:
                with pytest.raises(SpaceInfeasible):
                    min_time_within_space(dag, game, flavor, space - 1)


# -- forward layered search ------------------------------------------------------

# Witnesses of the goal-seeded backward search that the forward search
# replaced, at min space and one pebble more: the tie-break must not move.
GOLDEN = json.loads(Path(__file__).with_name("golden_witnesses.json").read_text())
GOLDEN_GRAPHS = {
    "pyramid(3)": lambda: pyramid(3),
    "line(8)": lambda: line(8),
    "cs(3,2)": lambda: _cs_prime(3, 2),
}


def _move_text(strategy):
    return " ".join(("+" if m.op == "place" else "-") + m.vertex for m in strategy.moves)


@pytest.mark.parametrize("pair", sorted(GOLDEN))
def test_golden_witnesses(pair):
    expected = GOLDEN[pair]
    graph, game, flavor = pair.split("/")
    flavor = None if flavor == "-" else flavor
    dag = GOLDEN_GRAPHS[graph]()
    ms, witness = min_space(dag, game, flavor)
    assert ms == expected["min_space"]
    assert _move_text(witness) == expected[str(ms)]["moves"]
    for s in (ms, ms + 1):
        t, witness = min_time_within_space(dag, game, flavor, s)
        assert t == expected[str(s)]["time"]
        assert _move_text(witness) == expected[str(s)]["moves"]


@pytest.mark.parametrize("pair", sorted(GOLDEN))
def test_golden_witness_steps_decode_to_its_moves(pair):
    graph, game, _ = pair.split("/")
    dag, expected = GOLDEN_GRAPHS[graph](), GOLDEN[pair]
    for s in (expected["min_space"], expected["min_space"] + 1):
        moves = golden_moves(expected[str(s)]["moves"])
        assert _moves(dag, _steps(replay(dag, moves, game))) == moves


def _oracle_witness(dag, flavor, space):
    """(time, moves) of the lexicographically smallest optimal reversible pebbling.

    Computed from BFS distances alone: from {} and to the goals ({z}, or
    every sink configuration for the visiting flavor).  The walk takes the
    lowest vertex whose move keeps d_start + d_goal on the optimum; a
    visiting pebbling then undoes its moves in reverse.  None when no goal
    is reachable.
    """
    z = 1 << dag.designated_sink
    if flavor == "persistent":
        goals = [z]
    else:
        goals = [x for x in range(1 << len(dag)) if x & z and x.bit_count() <= space]
    start = _reversible_distances(dag, space)
    reached = [start[g] for g in goals if g in start]
    if not reached:
        return None
    d = min(reached)
    to_goal = _reversible_distances(dag, space, goals)
    moves, cur = [], 0
    for k in range(d):
        for v in range(len(dag)):
            x = cur ^ (1 << v)
            if (all(cur >> p & 1 for p in dag.preds[v])
                    and start.get(x) == k + 1 and to_goal.get(x) == d - k - 1):
                moves.append(("+" if x > cur else "-") + dag.names[v])
                cur = x
                break
    if flavor == "visiting":
        moves += [("-" if m[0] == "+" else "+") + m[1:] for m in reversed(moves)]
    return len(moves), " ".join(moves)


def test_witnesses_match_distance_oracle_on_random_dags():
    from conftest import random_single_sink_dag
    import random as _random

    rng = _random.Random(20261018)
    for _ in range(100):
        dag = random_single_sink_dag(rng, max_n=8)
        for flavor in ("visiting", "persistent"):
            for space in range(1, len(dag) + 1):
                expected = _oracle_witness(dag, flavor, space)
                if expected is None:
                    with pytest.raises(SpaceInfeasible):
                        min_time_within_space(dag, "reversible", flavor, space)
                else:
                    t, witness = min_time_within_space(dag, "reversible", flavor, space)
                    assert (t, _move_text(witness)) == expected


@pytest.mark.parametrize("game,flavor", [
    ("reversible", "visiting"), ("reversible", "persistent"), ("standard", None),
])
def test_tradeoff_searches_each_budget_once(monkeypatch, capsys, game, flavor):
    budgets = []
    solve = search._solve

    def counting(dag, game, flavor, space, state_budget):
        budgets.append(space)
        return solve(dag, game, flavor, space, state_budget)

    monkeypatch.setattr(search, "_solve", counting)
    argv = ["tradeoff", "--family", "pyramid", "--height", "3", "--game", game]
    assert main(argv + (["--flavor", flavor] if flavor else [])) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    smax = int(rows[-1].split(",")[0])
    assert smax == int(rows[0].split(",")[0]) + 2
    assert budgets == list(range(1, smax + 1))


def _reversible_distances(dag, space, starts=(0,)):
    """BFS distances from `starts` over all configurations of at most `space` pebbles."""
    dist = dict.fromkeys(starts, 0)
    queue = list(dist)
    for u in queue:
        for v in range(len(dag)):
            if all(u >> p & 1 for p in dag.preds[v]):
                x = u ^ (1 << v)
                if x.bit_count() <= space and x not in dist:
                    dist[x] = dist[u] + 1
                    queue.append(x)
    return dist


def _two_ended_count(dag, space):
    """Configurations the persistent search discovers, by its documented rule.

    Layers grow from {} and from {z}, each round on the side whose newest
    layer is smaller ({} on a tie), until the depths add up to the distance
    between them: only then can the two newest layers share a configuration.
    """
    z = 1 << dag.designated_sink
    sizes = []
    for start in (0, z):
        dist = _reversible_distances(dag, space, (start,))
        sizes.append([sum(1 for d in dist.values() if d == k)
                      for k in range(max(dist.values()) + 1)])
    goal = _reversible_distances(dag, space)[z]
    depth = [0, 0]
    discovered = 2
    while sum(depth) < goal:
        side = 1 if sizes[1][depth[1]] < sizes[0][depth[0]] else 0
        depth[side] += 1
        discovered += sizes[side][depth[side]]
    return discovered, goal, depth


def _standard_distances(dag, space):
    """BFS distances from {} under standard moves; sink configurations are not left."""
    z = 1 << dag.designated_sink
    dist = {0: 0}
    queue = [0]
    for u in queue:
        if u & z:
            continue
        for v in range(len(dag)):
            x = u ^ (1 << v)
            legal = u >> v & 1 or all(u >> p & 1 for p in dag.preds[v])
            if legal and x.bit_count() <= space and x not in dist:
                dist[x] = dist[u] + 1
                queue.append(x)
    return dist


def _standard_budget_boundary(dag):
    # the budget is checked once per layer, so a stop reports the whole layer
    # that crossed it: `discovered` is always a count of finished layers
    space = min_space(dag, "standard", None)[0] + 1
    dist = _standard_distances(dag, space)
    counts = [sum(1 for d in dist.values() if d <= k) for k in range(max(dist.values()) + 1)]
    budget = 1
    while True:
        try:
            t, _ = min_time_within_space(dag, "standard", None, space, state_budget=budget)
            break
        except InstanceTooLarge as exc:
            crossed = min(c for c in counts if c > budget)
            assert (exc.discovered, exc.layer) == (crossed, counts.index(crossed) - 1)
        budget += 1
    assert t == min_time_within_space(dag, "standard", None, space)[0]
    assert budget in counts
    with pytest.raises(InstanceTooLarge) as info:
        min_time_within_space(dag, "standard", None, space, state_budget=budget - 1)
    assert (info.value.discovered, info.value.layer) == (budget, counts.index(budget) - 1)


def _reversible_budget_boundary(dag, flavor, space):
    # the search discovers exactly the configurations up to the first goal layer
    dist = _reversible_distances(dag, space)
    z = 1 << dag.designated_sink
    if flavor == "visiting":
        goal = min(d for x, d in dist.items() if x & z)
        # the last layer holds only the sink configurations at the goal distance
        discovered = sum(1 for x, d in dist.items() if d < goal or d == goal and x & z)
    else:
        discovered, goal, depth = _two_ended_count(dag, space)
        assert min(depth) > 0  # both ends grew
    t, _ = min_time_within_space(dag, "reversible", flavor, space, state_budget=discovered)
    assert t == (2 * goal if flavor == "visiting" else goal)
    with pytest.raises(InstanceTooLarge) as info:
        min_time_within_space(dag, "reversible", flavor, space, state_budget=discovered - 1)
    assert (info.value.discovered, info.value.layer) == (discovered, goal - 1)
    if flavor == "persistent":
        assert f"no persistent pebbling within {goal - 1} moves" in str(info.value)


@pytest.mark.parametrize("flavor", ["visiting", "persistent", "standard"])
def test_state_budget_boundary(flavor):
    # bit_reversal(4) and pyramid(3) have large layers at the budget
    for dag in (pyramid(2), bit_reversal(4), pyramid(3)):
        if flavor == "standard":
            _standard_budget_boundary(dag)
            continue
        space = min_space(dag, "reversible", flavor)[0]
        for s in (space, space + 1):
            _reversible_budget_boundary(dag, flavor, s)


@pytest.mark.parametrize("dag,space,reachable", [
    (line(8), 4, 26), (pyramid(3), 5, 104), (bit_reversal(8), 6, 1118),
    (_cs_prime(2, 2), 5, 523),
], ids=["line8", "pyramid3", "bit_reversal8", "cs22_single_sink"])
def test_infeasible_visiting_search_discovers_each_configuration_once(dag, space, reachable):
    # one pebble short of the minimum `space`, the search exhausts the
    # configurations reachable from {} and counts each once: a frontier that
    # took back its previous layer would never empty, and would stop on the
    # state budget instead.  The minimum is pinned, not searched for, so that
    # such a frontier fails here within the budgets below.
    assert len(_reversible_distances(dag, space - 1)) == reachable
    with pytest.raises(SpaceInfeasible):
        min_time_within_space(dag, "reversible", "visiting", space - 1, state_budget=reachable)
    with pytest.raises(InstanceTooLarge) as info:
        min_time_within_space(dag, "reversible", "visiting", space - 1,
                              state_budget=reachable - 1)
    assert info.value.discovered == reachable
    min_time_within_space(dag, "reversible", "visiting", space)


@pytest.mark.parametrize("flavor", ["visiting", "persistent"])
@pytest.mark.parametrize("dag", [pyramid(2), line(6)], ids=["pyramid2", "line6"])
def test_search_result_holds_every_discovered_layer(dag, flavor):
    # the layers the search hands to `_solve` are all it discovered: with the
    # state budget one short, the same search stops and counts exactly them
    space = min_space(dag, "reversible", flavor)[0]
    persistent = flavor == "persistent"
    layers, goals, zlayers = search._rev_search(dag, space, persistent, search.DEFAULT_STATE_BUDGET)
    assert bool(zlayers) == persistent
    assert set(goals.values()) == {len(layers) - 1}
    assert set(goals) <= set(layers[-1]) and (not persistent or set(goals) <= set(zlayers[-1]))
    discovered = sum(map(len, layers)) + sum(map(len, zlayers))
    with pytest.raises(InstanceTooLarge) as info:
        search._rev_search(dag, space, persistent, discovered - 1)
    assert info.value.discovered == discovered
    assert info.value.layer == len(layers) + len(zlayers) - (3 if persistent else 2)


def _classes(dist):
    """The distance classes of a BFS distance map, nearest first."""
    classes = [set() for _ in range(max(dist.values()) + 1)]
    for x, d in dist.items():
        classes[d].add(x)
    return classes


@settings(max_examples=100)
@given(dag=st.integers(0, 2**32 - 1).map(
    lambda seed: random_single_sink_dag(random.Random(seed), max_n=9)))
@example(dag=line(1))  # the goal is found from {}
@example(dag=pyramid(1))  # at space 1 the persistent search grows {z}, a start at the budget
@example(dag=pyramid(2))
@example(dag=bit_reversal(4))
def test_search_layers_are_the_distance_classes(dag):
    # every layer is the set of configurations at its distance from its start,
    # though a configuration at the budget tests only some removals; the
    # visiting search's last layer is the sink configurations at the goal
    # distance, and the persistent search grows each end as far as the rule
    # `_two_ended_count` restates
    z = 1 << dag.designated_sink
    for space in range(1, len(dag) + 1):
        dist = _reversible_distances(dag, space)
        zdist = _reversible_distances(dag, space, (z,))
        # each end discovers each configuration once, so a search that runs
        # past both reachable sets is wrong: stop it there, not at 5 * 10^7
        limit = len(dist) + len(zdist)
        start, zside = _classes(dist), _classes(zdist)
        sinks = [{x for x in layer if x & z} for layer in start]
        goal = next((d for d, found in enumerate(sinks) if found), None)
        found = search._rev_search(dag, space, False, limit)
        if goal is None:
            assert found is None
        else:
            layers, goals, _ = found
            assert [set(layer) for layer in layers] == start[:goal] + [sinks[goal]]
            assert goals == dict.fromkeys(sinks[goal], goal)
        found = search._rev_search(dag, space, True, limit)
        if z not in dist:
            assert found is None
            continue
        _, _, (a, b) = _two_ended_count(dag, space)
        layers, goals, zlayers = found
        assert [set(layer) for layer in layers] == start[:a + 1]
        assert [set(layer) for layer in zlayers] == zside[:b + 1]
        assert goals == dict.fromkeys(start[a] & zside[b], a)


@settings(max_examples=100)
@given(dag=st.integers(0, 2**32 - 1).map(
    lambda seed: random_single_sink_dag(random.Random(seed), max_n=9)))
@example(dag=line(1))  # the sink is placed from {}
@example(dag=pyramid(2))
@example(dag=bit_reversal(4))
@example(dag=_cs_prime(2, 2))
def test_standard_layers_are_the_distance_classes(dag):
    # every layer is the set of sink-free configurations at its distance from
    # {}, though a configuration at the budget tests only the removals of its
    # arriving vertex's predecessors.  Layer k+1 is built while a sink
    # configuration found there, which holds z and pred(z), could still tie
    # the best finish: while k + 2 + |pred(z)| <= best.
    z = 1 << dag.designated_sink
    least = 1 + len(dag.preds[dag.designated_sink])
    for space in range(1, len(dag) + 1):
        dist = _standard_distances(dag, space)
        scores = {x: d + x.bit_count() for x, d in dist.items() if x & z}
        # each configuration is discovered once, so a search that runs past
        # the reachable set is wrong: stop it there, not at 5 * 10^7
        found = search._std_search(dag, space, len(dist))
        if not scores:
            assert found is None
            continue
        best = min(scores.values())
        free = [{x for x in layer if not x & z} for layer in _classes(dist)] + [set()]
        depth = 1
        while free[depth - 1] and depth + least <= best:
            depth += 1
        layers, goals, zlayers = found
        assert [set(layer) for layer in layers] == free[:depth]
        assert goals == {x: dist[x] for x, score in scores.items() if score == best}
        assert zlayers == ()


@pytest.mark.parametrize("dag,discovered", [
    (pyramid(4), {6: 6380, 7: 9899, 8: 12911}),
    (_cs_prime(3, 2), {4: 3059, 5: 12668, 6: 39406}),
    (bit_reversal(8), {3: 265, 4: 1194, 5: 3806}),
], ids=["pyramid4", "cs32_single_sink", "bit_reversal8"])
def test_standard_search_discovered_counts(dag, discovered):
    # the configurations the standard search keeps in its layers, pinned:
    # they do not depend on the machine, and a frontier that tested fewer
    # removals than it must would lose some of them
    for space, count in discovered.items():
        layers, _, _ = search._std_search(dag, space, search.DEFAULT_STATE_BUDGET)
        assert sum(map(len, layers)) == count


@pytest.mark.parametrize("dag,visiting,persistent", [
    (pyramid(4), {6: 4570, 7: 5933, 8: 8537}, {7: 7599, 8: 14156}),
    (bit_reversal(8), {6: 4829, 7: 6898, 8: 7789}, {7: 10235, 8: 14365}),
    (_cs_prime(3, 2), {6: 24510, 7: 47204}, {}),
    (line(20), {5: 5099, 6: 12035}, {6: 15880}),
], ids=["pyramid4", "bit_reversal8", "cs32_single_sink", "line20"])
def test_reversible_search_discovered_counts(dag, visiting, persistent):
    # the configurations the reversible search keeps in its layers from {}
    # and from {z}, pinned: they do not depend on the machine, and a
    # frontier that tested fewer rows than it must would lose some of them
    for flavor, discovered in (("visiting", visiting), ("persistent", persistent)):
        for space, count in discovered.items():
            layers, _, zlayers = search._rev_search(dag, space, flavor == "persistent",
                                                    search.DEFAULT_STATE_BUDGET)
            assert sum(map(len, layers)) + sum(map(len, zlayers)) == count


@pytest.mark.parametrize("game,flavor", [
    ("reversible", "visiting"), ("reversible", "persistent"), ("standard", None),
])
def test_witness_failing_replay_is_internal_error(monkeypatch, tmp_path, capsys, game, flavor):
    walk = search._walk

    def dropping(*args):
        path = walk(*args)
        return path[:1] + path[2:]  # skip the first move's configuration

    monkeypatch.setattr(search, "_walk", dropping)
    with pytest.raises(InternalConsistencyError):
        min_time_within_space(line(3), game, flavor, 3)
    graph = tmp_path / "line3.json"
    graph.write_text(json.dumps(line(3).to_json()))
    argv = ["solve", "--mode", "min-space", "--game", game, str(graph)]
    assert main(argv + (["--flavor", flavor] if flavor else [])) == 3
    assert capsys.readouterr().err.startswith("internal consistency violation: ")


@pytest.mark.parametrize("game,flavor", [
    ("reversible", "visiting"), ("reversible", "persistent"), ("standard", None),
])
def test_walk_without_on_path_sets_is_internal_error(monkeypatch, tmp_path, capsys, game,
                                                     flavor):
    # pruning keeps a move from each on-path configuration into the next
    # layer's set, so a walk that finds none is a bug in the pruning
    monkeypatch.setattr(search, "_back", lambda *args: set())
    message = "walk failed to make progress"
    with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
        min_time_within_space(line(3), game, flavor, 3)
    graph = tmp_path / "line3.json"
    graph.write_text(json.dumps(line(3).to_json()))
    argv = ["solve", "--mode", "min-time", "--space", "3", "--game", game, str(graph)]
    assert main(argv + (["--flavor", flavor] if flavor else [])) == 3
    assert capsys.readouterr().err == f"internal consistency violation: {message}\n"


@pytest.mark.parametrize("game,flavor", [
    ("reversible", "visiting"), ("reversible", "persistent"), ("standard", None),
])
def test_witness_over_budget_is_internal_error(monkeypatch, game, flavor):
    # a witness that replays but holds more pebbles than its budget is a bug;
    # at min space the witness holds exactly the budget, so one more is over
    space = min_space(line(3), game, flavor)[0]
    real = search.verify_strategy

    def heavier(dag, strategy):
        metrics = real(dag, strategy)
        return metrics._replace(space=metrics.space + 1)

    monkeypatch.setattr(search, "verify_strategy", heavier)
    with pytest.raises(InternalConsistencyError,
                       match=f"^search witness uses {space + 1} pebbles, budget {space}$"):
        min_time_within_space(line(3), game, flavor, space)


def test_pareto_time_increase_is_internal_error(monkeypatch):
    # one more pebble never costs time, so a budget whose optimum is slower
    # than the one below it is a bug
    real = search.min_time_within_space

    def slower(*args):
        time, witness = real(*args)
        return time + len(witness.moves), witness

    monkeypatch.setattr(search, "min_time_within_space", slower)
    with pytest.raises(InternalConsistencyError, match="^pareto times must be non-increasing$"):
        pareto(line(3), "reversible", "visiting", 3)


def test_min_space_without_any_budget_is_internal_error(monkeypatch):
    # the budget of every vertex always succeeds; running past it is a bug
    monkeypatch.setattr(search, "_solve", lambda *args: None)
    with pytest.raises(InternalConsistencyError, match="no legal pebbling at any budget"):
        min_space(line(3), "reversible", "visiting")
