"""Exact solvers: optimality, witnesses, determinism, lower-bound formula.

The micro-instance completeness check enumerates every move sequence shorter
than the reported optimum and confirms none completes a legal pebbling, so
the BFS optimum is grounded independently of the search implementation.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from pebcert import (
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
    SearchError,
    SpaceInfeasible,
    TooManyVertices,
)


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


@pytest.mark.parametrize("dag_factory", [lambda: line(3), lambda: pyramid(2)])
def test_reversible_at_least_standard(dag_factory):
    dag = dag_factory()
    rev_ms, _ = min_space(dag, "reversible", "visiting")
    std_ms, _ = min_space(dag, "standard", None)
    assert rev_ms >= std_ms
    for s in range(rev_ms, rev_ms + 2):
        rev_t, _ = min_time_within_space(dag, "reversible", "visiting", s)
        std_t, _ = min_time_within_space(dag, "standard", None, s)
        assert rev_t >= std_t


def test_oracle_vs_enumeration_on_random_dags():
    # independent cross-check on 40 random single-sink DAGs
    from conftest import random_single_sink_dag
    import random as _random

    rng = _random.Random(20240817)
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
    ("reversible", "visiting"), ("reversible", "persistent"), ("standard", "visiting"),
])
def test_tradeoff_searches_each_budget_once(monkeypatch, capsys, game, flavor):
    budgets = []
    solve = search._solve

    def counting(dag, game, flavor, space, state_budget):
        budgets.append(space)
        return solve(dag, game, flavor, space, state_budget)

    monkeypatch.setattr(search, "_solve", counting)
    assert main(["tradeoff", "--family", "pyramid", "--height", "3",
                 "--game", game, "--flavor", flavor]) == 0
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


@pytest.mark.parametrize("flavor", ["visiting", "persistent", "standard"])
def test_state_budget_boundary(flavor):
    # the search discovers exactly the configurations up to the first goal layer
    dag = pyramid(2)
    if flavor == "standard":
        _standard_budget_boundary(dag)
        return
    space = min_space(dag, "reversible", flavor)[0]
    dist = _reversible_distances(dag, space)
    z = 1 << dag.designated_sink
    if flavor == "visiting":
        goal = min(d for x, d in dist.items() if x & z)
        discovered = sum(1 for d in dist.values() if d <= goal)
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


@pytest.mark.parametrize("game,flavor", [
    ("reversible", "visiting"), ("reversible", "persistent"), ("standard", None),
])
def test_witness_failing_replay_is_internal_error(monkeypatch, tmp_path, capsys, game, flavor):
    walk = search._walk

    def dropping(*args):
        moves, cur = walk(*args)
        return moves[1:], cur  # lose the first move

    monkeypatch.setattr(search, "_walk", dropping)
    with pytest.raises(InternalConsistencyError):
        min_time_within_space(line(3), game, flavor, 3)
    graph = tmp_path / "line3.json"
    graph.write_text(json.dumps(line(3).to_json()))
    argv = ["solve", "--mode", "min-space", "--game", game, str(graph)]
    assert main(argv + (["--flavor", flavor] if flavor else [])) == 3
    assert capsys.readouterr().err.startswith("internal consistency violation: ")


def test_min_space_without_any_budget_is_internal_error(monkeypatch):
    # the budget of every vertex always succeeds; running past it is a bug
    monkeypatch.setattr(search, "_solve", lambda *args: None)
    with pytest.raises(InternalConsistencyError, match="no legal pebbling at any budget"):
        min_space(line(3), "reversible", "visiting")
