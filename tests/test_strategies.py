"""Constructive strategies and their guaranteed bounds.

Every constructor's output must replay legally and meet its stated space or
time bound as a hard inequality on verifier-measured metrics; the line
strategies hit their closed forms exactly, and strat_by_depth meets its
bound on random DAGs, not only on pyramids.  Every visiting strategy, from
the library and among the trade-off table's candidates, ends at the mirror
of its prefix up to its first sink visit, and compiles.  The exact move
sequences of a fixed set of instances are pinned in
tests/golden_strategies.json, and each of them holds one Move object per
distinct move and is decoded back from the signed steps of its replay.  The
line prices refuse what `line` refuses.  The by-depth forward half, closed
by `visiting`, equals the by-depth pebbling's replay closed at its first
sink visit, and `_iroot_ceil(n, k)` is the least r >= 1 with r**k >= n.
The checkpoint strategies take any k: k = 10**9 builds the k = 64 strategy.
Both cut rules return strictly increasing cuts in (0, d], so `_place` never
climbs a distance of 0, and `_segments` stays below d.
"""

import argparse
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import golden_moves, random_single_sink_dag

from pebcert import (
    Move,
    bit_reversal,
    build_dag,
    carlson_savage,
    line,
    line_persistent_price,
    line_visiting_price,
    pyramid,
    single_sink_restriction,
    strat_bit_reversal_checkpoint,
    strat_bit_reversal_small_space,
    strat_by_depth,
    strat_carlson_savage,
    strat_line_checkpoint,
    strat_line_persistent,
    strat_line_visiting,
    verify_strategy,
)
from pebcert.algebra import Field
from pebcert import cli
from pebcert.cli import _upper_bound_candidates
from pebcert.errors import GraphError, ParamOutOfRange
from pebcert.nullstellensatz import compile_strategy
from pebcert.pebbling import PLACE, REMOVE, REVERSIBLE, _moves, _steps, replay, visiting
from pebcert.strategies import _halves, _iroot_ceil, _segments, _visit_fwd_prefix


@pytest.mark.parametrize("n", range(1, 10))
def test_line_visiting_exact_space(n):
    metrics = verify_strategy(line(n), strat_line_visiting(n))
    assert metrics.space == line_visiting_price(n) == math.ceil(math.log2(n + 1))


def test_line_visiting_frozen_examples():
    assert verify_strategy(line(1), strat_line_visiting(1)).space == 1
    assert verify_strategy(line(3), strat_line_visiting(3)).space == 2


@pytest.mark.parametrize("n", range(2, 10))
def test_line_persistent_exact_space(n):
    strat = strat_line_persistent(n)
    assert strat.flavor == "persistent"
    metrics = verify_strategy(line(n), strat)
    assert metrics.space == line_persistent_price(n) == math.floor(math.log2(n - 1)) + 2


def test_line_persistent_degenerate():
    strat = strat_line_persistent(1)
    assert [m.op for m in strat.moves] == [PLACE]
    assert verify_strategy(line(1), strat).space == 1
    assert verify_strategy(line(5), strat_line_persistent(5)).space == 4


def _least_power_at_least(m):
    """Least s with 2**s >= m."""
    s = 0
    while 2 ** s < m:
        s += 1
    return s


def test_line_prices_are_exact_for_huge_lines():
    # floating-point log2 rounds 2**49 - 1 and 2**49 + 1 to 2**49
    for k in range(1, 71):
        for n in (2 ** k - 1, 2 ** k, 2 ** k + 1):
            assert line_visiting_price(n) == _least_power_at_least(n + 1)
            # floor(log2(n - 1)) is one less than the least s with 2**s >= n
            persistent = _least_power_at_least(n) + 1 if n >= 2 else 1
            assert line_persistent_price(n) == persistent, n


@pytest.mark.parametrize("n,k", [(16, 2), (27, 3), (64, 3), (16, 1), (5, 2), (7, 3), (1, 1)])
def test_line_checkpoint_bounds(n, k):
    metrics = verify_strategy(line(n), strat_line_checkpoint(n, k))
    assert metrics.space <= 2 * k * _iroot_ceil(n, k)
    assert metrics.time <= (2 ** k) * n


def test_line_checkpoint_k1_is_sequential_sweep():
    strat = strat_line_checkpoint(4, 1)
    metrics = verify_strategy(line(4), strat)
    assert metrics.time == 8  # place all, remove all
    assert metrics.space == 4


def test_param_validation():
    for bad in (0, -1):
        with pytest.raises(ParamOutOfRange):
            strat_line_visiting(bad)
        with pytest.raises(ParamOutOfRange):
            strat_line_checkpoint(4, bad)
    with pytest.raises(ParamOutOfRange):
        strat_carlson_savage(2, 1, 3)
    with pytest.raises(ParamOutOfRange):
        strat_bit_reversal_small_space(6)


@pytest.mark.parametrize("make,message", [
    (lambda: strat_line_persistent(0), "line needs n >= 1"),
    (lambda: strat_bit_reversal_checkpoint(6, 1), "bit_reversal needs a power of two >= 2, got 6"),
    (lambda: strat_bit_reversal_checkpoint(8, 0), "need k >= 1"),
    (lambda: line_visiting_price(0), "line needs n >= 1"),
    (lambda: line_visiting_price(-3), "line needs n >= 1"),
    (lambda: line_persistent_price(0), "line needs n >= 1"),
    (lambda: line_persistent_price(-3), "line needs n >= 1"),
], ids=["line_persistent(0)", "br_checkpoint(6,1)", "br_checkpoint(8,0)",
        "line_visiting_price(0)", "line_visiting_price(-3)", "line_persistent_price(0)",
        "line_persistent_price(-3)"])
def test_param_validation_messages(make, message):
    with pytest.raises(ParamOutOfRange, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("make,message", [
    (lambda: line(True), "line needs n >= 1"),
    (lambda: line(2.0), "line needs n >= 1"),
    (lambda: pyramid(2.0), "pyramid needs h >= 0"),
    (lambda: pyramid(False), "pyramid needs h >= 0"),
    (lambda: bit_reversal(4.0), "bit_reversal needs a power of two >= 2, got 4.0"),
    (lambda: carlson_savage(2.0, 1), "carlson_savage needs c >= 2 and r >= 1"),
    (lambda: carlson_savage(2, True), "carlson_savage needs c >= 2 and r >= 1"),
    (lambda: strat_line_visiting(True), "line needs n >= 1"),
    (lambda: strat_line_persistent(3.0), "line needs n >= 1"),
    (lambda: strat_line_checkpoint(4, 1.5), "need k >= 1"),
    (lambda: strat_bit_reversal_small_space(4.0),
     "bit_reversal needs a power of two >= 2, got 4.0"),
    (lambda: strat_bit_reversal_checkpoint(4, True), "need k >= 1"),
    (lambda: strat_carlson_savage(2.0, 1, 1), "carlson_savage needs c >= 2 and r >= 1"),
    (lambda: strat_carlson_savage(2, 1, 1.0), "need 1 <= sink_index <= c"),
    (lambda: line_visiting_price(2.0), "line needs n >= 1"),
    (lambda: line_visiting_price(True), "line needs n >= 1"),
    (lambda: line_persistent_price(2.0), "line needs n >= 1"),
    (lambda: line_persistent_price(True), "line needs n >= 1"),
], ids=["line(True)", "line(2.0)", "pyramid(2.0)", "pyramid(False)", "bit_reversal(4.0)",
        "cs(2.0,1)", "cs(2,True)", "line_visiting(True)", "line_persistent(3.0)",
        "line_checkpoint(4,1.5)", "br_small_space(4.0)", "br_checkpoint(4,True)",
        "strat_cs(2.0,1,1)", "strat_cs(2,1,1.0)", "line_visiting_price(2.0)",
        "line_visiting_price(True)", "line_persistent_price(2.0)", "line_persistent_price(True)"])
def test_family_parameters_must_be_integers(make, message):
    # the generators judge every family parameter, and the strategies
    # inherit their check; a bool or a float is refused, not read as an int
    with pytest.raises(ParamOutOfRange, match=f"^{message}$"):
        make()


def test_same_condition_same_class_as_the_graphs():
    # a bad size and a missing sink raise what the generators and the
    # other no-sink checks raise
    for make in (bit_reversal, strat_bit_reversal_small_space):
        with pytest.raises(ParamOutOfRange, match="power of two"):
            make(3)
    with pytest.raises(GraphError, match="strat_by_depth needs a designated sink"):
        strat_by_depth(carlson_savage(2, 1))


def test_by_depth_single_vertex():
    from pebcert import build_dag
    dag = build_dag(["z"], [], "z")
    strat = strat_by_depth(dag)
    assert [(m.op, m.vertex) for m in strat.moves] == [(PLACE, "z")]
    assert verify_strategy(dag, strat).space == 1


@pytest.mark.parametrize("h", range(1, 5))
def test_by_depth_pyramids(h):
    dag = pyramid(h)
    strat = strat_by_depth(dag)
    assert strat.flavor == "persistent"
    metrics = verify_strategy(dag, strat)
    assert metrics.space <= dag.depth() * dag.max_indegree + 1


def _check_by_depth(dag):
    """strat_by_depth replays, ends on exactly {z} (the persistent flavor's
    replay rule) and meets its space bound; its replay metrics."""
    strat = strat_by_depth(dag)
    assert strat.flavor == "persistent"
    metrics = verify_strategy(dag, strat)
    assert metrics.space <= dag.depth() * dag.max_indegree + 1
    return metrics


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_by_depth_is_legal_on_random_dags(seed):
    # a predecessor that lies below another one of the same vertex is held
    # when the climb into the last one reaches it, and is not placed again
    _check_by_depth(random_single_sink_dag(random.Random(seed), max_n=9))


def test_by_depth_skips_held_predecessors():
    triangle = build_dag(["a", "b", "z"], [("a", "b"), ("a", "z"), ("b", "z")], "z")
    metrics = _check_by_depth(triangle)
    assert (metrics.time, metrics.space) == (5, 3)
    assert [(m.op, m.vertex) for m in strat_by_depth(triangle).moves] == [
        (PLACE, "a"), (PLACE, "b"), (PLACE, "z"), (REMOVE, "b"), (REMOVE, "a")]
    metrics = _check_by_depth(bit_reversal(8))
    assert (metrics.time, metrics.space) == (79, 16)


def test_by_depth_forward_half_is_its_visiting_prefix():
    # the trade-off table's pyramid candidate closes the by-depth forward
    # half; the by-depth pebbling places the sink once, as that half's last
    # step, so the same strategy comes back from its replay up to that step
    rng = random.Random(11)
    dags = [random_single_sink_dag(rng, max_n=9) for _ in range(200)]
    for dag in dags + [pyramid(h) for h in range(7)]:
        replayed = _steps(replay(dag, strat_by_depth(dag).moves, REVERSIBLE))
        assert (visiting(dag, _visit_fwd_prefix(dag, dag.designated_sink, 0)).moves
                == visiting(dag, replayed).moves)


def test_cuts_increase_strictly_inside_the_climb():
    # `_fwd` plants a checkpoint at each cut with `_place`, which climbs the
    # gap from the cut before, so a gap of 0 would be a place on the base
    # itself; the bit-reversal plant also climbs from the last `_segments`
    # cut to d.  `_segments(d, 1)` counts `_iroot_ceil` up to d, so k = 1
    # stops at d = 1000 to keep the loop quick.
    for k in range(1, 12):
        for d in range(5001):
            for rule in (_halves, _segments) if k > 1 or d <= 1000 else (_halves,):
                cuts = rule(d, k)
                assert all(a < b for a, b in zip([0] + cuts, cuts)), (rule, d, k)
                assert all(c < d or (rule is _halves and c == d) for c in cuts), (rule, d, k)


def test_iroot_ceil_is_the_least_root():
    # up to k = 15, past the bit length of every n here, where k is cut down
    for k in range(1, 16):
        for n in range(5001):
            r = _iroot_ceil(n, k)
            assert r >= 1 and r ** k >= n and (r == 1 or (r - 1) ** k < n), (n, k, r)
    assert [_iroot_ceil(n, 10**9) for n in (0, 1, 2, 5000)] == [1, 1, 2, 2]


@pytest.mark.parametrize("c,r,j", [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 2, 1), (3, 2, 2)])
def test_carlson_savage_strategy_bounds(c, r, j):
    full = carlson_savage(c, r)
    dag = single_sink_restriction(full, full.sink_names[j - 1])
    metrics = verify_strategy(dag, strat_carlson_savage(c, r, j))
    bound = 3 if r == 1 else r * (math.log2(c * r) + 3)
    assert metrics.space <= bound


def test_carlson_savage_base_uses_three_pebbles():
    full = carlson_savage(2, 1)
    dag = single_sink_restriction(full, "t1")
    assert verify_strategy(dag, strat_carlson_savage(2, 1, 1)).space == 3


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_bit_reversal_small_space_bounds(n):
    metrics = verify_strategy(bit_reversal(n), strat_bit_reversal_small_space(n))
    assert metrics.space <= 2 * math.log2(n) + 2


@pytest.mark.parametrize("n,k", [(16, 2), (64, 3), (16, 1), (8, 2)])
def test_bit_reversal_checkpoint_bounds(n, k):
    metrics = verify_strategy(bit_reversal(n), strat_bit_reversal_checkpoint(n, k))
    s_bound = 4 * k * _iroot_ceil(n, k)
    assert metrics.space <= s_bound
    assert metrics.time <= 4 * k * (2 ** (2 * k)) * n * n / s_bound


def test_bit_reversal_checkpoint_k1_pins_whole_bottom_line():
    # k=1 degenerates to a fixed pebble on every bottom vertex
    strat = strat_bit_reversal_checkpoint(16, 1)
    placed = [m.vertex for m in strat.moves[:16]]
    assert placed == [f"x{i}" for i in range(1, 17)]
    metrics = verify_strategy(bit_reversal(16), strat)
    assert metrics.space == 32


@pytest.mark.parametrize("build,dag", [
    (lambda k: strat_line_checkpoint(3, k), line(3)),
    (lambda k: strat_line_checkpoint(100, k), line(100)),
    (lambda k: strat_bit_reversal_checkpoint(4, k), bit_reversal(4)),
    (lambda k: strat_bit_reversal_checkpoint(64, k), bit_reversal(64)),
], ids=["line(3)", "line(100)", "br(4)", "br(64)"])
def test_checkpoint_strategies_take_a_huge_k(build, dag):
    # past a chain's bit length every k cuts alike, and a level of at most one
    # vertex sweeps, so a huge k recurses no deeper and computes no huge power
    strategy = build(10**9)
    assert strategy == build(64)
    verify_strategy(dag, strategy)


def _cs(c, r, j):
    full = carlson_savage(c, r)
    return single_sink_restriction(full, full.sink_names[j - 1])


VISITING_LIBRARY = {
    "line_visiting(1)": lambda: (line(1), strat_line_visiting(1)),
    "line_visiting(8)": lambda: (line(8), strat_line_visiting(8)),
    "line_visiting(9)": lambda: (line(9), strat_line_visiting(9)),
    "line_checkpoint(9,2)": lambda: (line(9), strat_line_checkpoint(9, 2)),
    "line_checkpoint(16,1)": lambda: (line(16), strat_line_checkpoint(16, 1)),
    "cs(2,1,2)": lambda: (_cs(2, 1, 2), strat_carlson_savage(2, 1, 2)),
    "cs(2,2,1)": lambda: (_cs(2, 2, 1), strat_carlson_savage(2, 2, 1)),
    "cs(3,2,2)": lambda: (_cs(3, 2, 2), strat_carlson_savage(3, 2, 2)),
    "br_small(4)": lambda: (bit_reversal(4), strat_bit_reversal_small_space(4)),
    "br_small(8)": lambda: (bit_reversal(8), strat_bit_reversal_small_space(8)),
    "br_checkpoint(8,2)": lambda: (bit_reversal(8), strat_bit_reversal_checkpoint(8, 2)),
    "br_checkpoint(8,3)": lambda: (bit_reversal(8), strat_bit_reversal_checkpoint(8, 3)),
}


def _closed(dag, strat):
    """The strategy ends with the mirror of its prefix up to the first sink
    visit, and compiles."""
    assert strat.flavor == "visiting"
    metrics = verify_strategy(dag, strat)
    assert len(strat.moves) == 2 * metrics.first_sink_step
    compile_strategy(dag, strat, Field.prime(2))
    return metrics


@pytest.mark.parametrize("name", sorted(VISITING_LIBRARY))
def test_library_visiting_strategies_close_at_first_sink_visit(name):
    _closed(*VISITING_LIBRARY[name]())


@pytest.mark.parametrize("family,params,dag", [
    ("line", {"n": 6}, line(6)),
    ("pyramid", {}, pyramid(3)),
    ("cs", {"c": 2, "r": 2}, _cs(2, 2, 1)),
    ("bit-reversal", {"n": 8}, bit_reversal(8)),
])
def test_tradeoff_candidates_close_at_first_sink_visit(monkeypatch, family, params, dag):
    # the candidates' metrics come back alone; the strategies are caught on
    # their way into the measurement
    seen = []

    def spy(on, strat):
        seen.append(strat)
        return verify_strategy(on, strat)
    monkeypatch.setattr(cli, "verify_strategy", spy)
    args = argparse.Namespace(family=family, **params)
    candidates = _upper_bound_candidates(args, dag, "visiting")
    assert candidates
    assert [_closed(dag, strat) for strat in seen] == candidates


@pytest.mark.parametrize("name,make,moves,space", [
    # the forward halves of these run past their first sink visit
    ("line_visiting(8)", lambda: (line(8), strat_line_visiting(8)), 28, 4),
    ("br_small(16)", lambda: (bit_reversal(16), strat_bit_reversal_small_space(16)), 2620, 9),
    ("cs(3,2,1)", lambda: (_cs(3, 2, 1), strat_carlson_savage(3, 2, 1)), 148, 6),
    ("cs(4,3,1)", lambda: (_cs(4, 3, 1), strat_carlson_savage(4, 3, 1)), 11260, 11),
])
def test_closed_strategy_sizes(name, make, moves, space):
    dag, strat = make()
    metrics = verify_strategy(dag, strat)
    assert (metrics.time, metrics.space) == (moves, space)


# Exact move sequences of library strategies: the certificates compiled from
# them and the tables' strategy_upper_time column depend on every move.
GOLDEN = json.loads(Path(__file__).with_name("golden_strategies.json").read_text())
GOLDEN_LIBRARY = {
    **{name: lambda make=make: make()[1] for name, make in VISITING_LIBRARY.items()},
    "line_persistent(9)": lambda: strat_line_persistent(9),
    "line_checkpoint(27,3)": lambda: strat_line_checkpoint(27, 3),
    "br_checkpoint(16,2)": lambda: strat_bit_reversal_checkpoint(16, 2),
    "by_depth(pyramid(3))": lambda: strat_by_depth(pyramid(3)),
    # r = 3: the spine services include recursive copies, under a non-first sink
    "cs(2,3,2)": lambda: strat_carlson_savage(2, 3, 2),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LIBRARY))
def test_golden_strategies(name):
    moves = GOLDEN_LIBRARY[name]().moves
    assert " ".join(("+" if m.op == PLACE else "-") + m.vertex for m in moves) == GOLDEN[name]


GOLDEN_DAGS = {
    **{name: lambda make=make: make()[0] for name, make in VISITING_LIBRARY.items()},
    "line_persistent(9)": lambda: line(9),
    "line_checkpoint(27,3)": lambda: line(27),
    "br_checkpoint(16,2)": lambda: bit_reversal(16),
    "by_depth(pyramid(3))": lambda: pyramid(3),
    "cs(2,3,2)": lambda: _cs(2, 3, 2),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_strategy_steps_decode_to_its_moves(name):
    dag, moves = GOLDEN_DAGS[name](), golden_moves(GOLDEN[name])
    assert _moves(dag, _steps(replay(dag, moves, REVERSIBLE))) == moves


@pytest.mark.parametrize("name", sorted(GOLDEN_LIBRARY))
def test_constructed_strategy_shares_one_move_per_distinct_move(name):
    moves = GOLDEN_LIBRARY[name]().moves
    assert len({id(m) for m in moves}) == len(set(moves))
    assert all(type(m) is Move for m in moves)
