"""Pebble-game semantics and strategy verification.

Core claims:
    - replay enforces placement/removal rules of both games, naming the
      offending move's step and cause
    - reversible removal needs predecessors pebbled, standard removal does not
    - verify_strategy replays, checks endpoint conditions, reports metrics
    - the move-wise inverse of a legal reversible strategy is legal
    - visiting keeps signed steps up to the first sink placement and appends
      that prefix's undo
    - `_unwind` of a climb leaves only its last step's change
    - reversible-legal strategies replay under standard rules with the same
      metrics
    - a move legal at one step and illegal at a later one reports the later
      step, as does an unknown op or an unhashable vertex after legal moves
    - strategy JSON round-trips; a loaded strategy shares one Move per
      distinct move, the reader gives the per-move reader's messages, and
      moves that are not plain strings save as they did before
    - the signed steps read off a replay decode back to the moves replayed,
      in both games
    - replay reads a move as an (op, vertex) pair, so a pair replays like its
      equal Move, and anything else is an illegal move at its step
    - replay and verify_strategy accept exactly the move sequences a
      set-based simulator accepts, failing at the same step, in both games
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from pebcert import (
    Move,
    Strategy,
    line,
    pyramid,
    strategy_from_json,
    strategy_to_json,
    verify_strategy,
)
from pebcert.errors import GraphError, IllegalMoveAt, PebblingError
from pebcert.graphs import carlson_savage, mask_names
from pebcert.pebbling import (
    PERSISTENT,
    PLACE,
    REMOVE,
    REVERSIBLE,
    STANDARD,
    VISITING,
    _moves as _decode,
    _steps,
    _unwind,
    load_strategy,
    replay,
    save_strategy,
    visiting,
)
from pebcert.strategies import strat_by_depth

from conftest import random_single_sink_dag


def _moves(*pairs):
    return tuple(Move(op, v) for op, v in pairs)


def _rv(*pairs):
    return Strategy("reversible", "visiting", _moves(*pairs))


def _after(dag, game, *pairs):
    """Names pebbled once `pairs` replay from the empty configuration."""
    return mask_names(dag.names, replay(dag, _moves(*pairs), game)[-1])


def _illegal(dag, game, *pairs):
    """The IllegalMoveAt raised by replaying `pairs`."""
    with pytest.raises(IllegalMoveAt) as err:
        replay(dag, _moves(*pairs), game)
    return err.value


def test_step_source_placement():
    assert _after(line(2), "reversible", (PLACE, "v1")) == {"v1"}


def test_step_source_removal_always_reversible_legal():
    out = _after(line(2), "reversible", (PLACE, "v1"), (PLACE, "v2"), (REMOVE, "v1"))
    assert out == {"v2"}


def test_step_reversible_removal_needs_predecessors():
    moves = [(PLACE, "v1"), (PLACE, "v2"), (REMOVE, "v1"), (REMOVE, "v2")]
    err = _illegal(line(2), "reversible", *moves)
    assert (err.step, err.cause) == (4, "reversible removal from v2 needs its predecessors pebbled")
    # same moves are legal in the standard game
    assert _after(line(2), "standard", *moves) == set()


def test_step_placement_errors():
    err = _illegal(line(2), "reversible", (PLACE, "v2"))
    assert (err.step, err.cause) == (1, "v2 has unpebbled predecessors")
    err = _illegal(line(2), "standard", (PLACE, "v1"), (PLACE, "v1"))
    assert (err.step, err.cause) == (2, "v1 already pebbled")


def test_step_unknown_vertex_names_no_step():
    # the cause names no step; the IllegalMoveAt around it does
    err = _illegal(line(3), "reversible", (PLACE, "zz"))
    assert err.cause == "unknown vertex 'zz'"
    assert str(err) == "illegal move at step 1: unknown vertex 'zz'"


@pytest.mark.parametrize("game, pairs, step, cause", [
    # the first three last moves were legal at an earlier step, as the same Move
    (REVERSIBLE, [(PLACE, "v1"), (PLACE, "v1")], 2, "v1 already pebbled"),
    (REVERSIBLE, [(PLACE, "v1"), (PLACE, "v2"), (REMOVE, "v2"), (PLACE, "v2"), (REMOVE, "v1"),
                  (REMOVE, "v2")], 6, "reversible removal from v2 needs its predecessors pebbled"),
    (STANDARD, [(PLACE, "v1"), (REMOVE, "v1"), (REMOVE, "v1")], 3, "v1 not pebbled"),
    (REVERSIBLE, [(PLACE, "v1"), (PLACE, "v2"), (PLACE, ["v1"])], 3, "unknown vertex ['v1']"),
    (STANDARD, [(PLACE, "v1"), (REMOVE, "v1"), ("jump", "v1")], 3, "unknown move op 'jump'"),
    (REVERSIBLE, [(PLACE, "v1"), (PLACE, "v2"), (["place"], "v1")], 3,
     "unknown move op ['place']"),
], ids=["place-twice", "reversible-removal-after-predecessor", "standard-removal-from-empty",
        "unhashable-vertex", "unknown-op-on-a-moved-vertex", "unhashable-op"])
def test_move_refused_after_legal_moves_reports_its_step(game, pairs, step, cause):
    err = _illegal(line(3), game, *pairs)
    assert (err.step, err.cause) == (step, cause)


def test_verify_unhashable_vertex_is_unknown():
    with pytest.raises(IllegalMoveAt) as err:
        verify_strategy(line(2), _rv((PLACE, ["v1"])))
    assert (err.value.step, err.value.cause) == (1, "unknown vertex ['v1']")


def test_verify_single_vertex_line():
    m = verify_strategy(line(1), _rv((PLACE, "v1"), (REMOVE, "v1")))
    assert (m.time, m.space, m.first_sink_step) == (2, 1, 1)


def test_verify_pyramid_one_hand_replay():
    # sources v0_1, v0_2; sink v1_1
    strat = _rv((PLACE, "v0_1"), (PLACE, "v0_2"), (PLACE, "v1_1"),
                (REMOVE, "v1_1"), (REMOVE, "v0_2"), (REMOVE, "v0_1"))
    m = verify_strategy(pyramid(1), strat)
    assert (m.time, m.space) == (6, 3)
    assert m.first_sink_step == 3


def test_verify_reports_offending_step():
    # removing v1 (step 3) is legal; removing v2 without v1 (step 4) is not
    strat = _rv((PLACE, "v1"), (PLACE, "v2"), (REMOVE, "v1"), (REMOVE, "v2"))
    with pytest.raises(IllegalMoveAt) as err:
        verify_strategy(line(2), strat)
    assert err.value.step == 4
    # an unknown op is an illegal move like any other
    strat = _rv((PLACE, "v1"), ("jump", "v2"))
    with pytest.raises(IllegalMoveAt) as err:
        verify_strategy(line(2), strat)
    assert err.value.step == 2
    assert str(err.value) == "illegal move at step 2: unknown move op 'jump'"


def test_verify_endpoint_conditions():
    with pytest.raises(PebblingError, match="pebbling must end with the empty configuration"):
        verify_strategy(line(1), _rv((PLACE, "v1"),))
    with pytest.raises(PebblingError, match="sink never pebbled"):
        verify_strategy(line(2), _rv((PLACE, "v1"), (REMOVE, "v1")))
    persistent = Strategy("reversible", "persistent", _moves((PLACE, "v1")))
    m = verify_strategy(line(1), persistent)
    assert (m.time, m.space) == (1, 1)
    with pytest.raises(PebblingError, match="must end with exactly the sink"):
        verify_strategy(line(1), Strategy("reversible", "persistent",
                                          _moves((PLACE, "v1"), (REMOVE, "v1"))))


def test_verify_standard_game():
    strat = Strategy("standard", None, _moves(
        (PLACE, "v1"), (PLACE, "v2"), (REMOVE, "v1"), (REMOVE, "v2")))
    m = verify_strategy(line(2), strat)
    assert (m.time, m.space, m.first_sink_step) == (4, 2, 2)


def test_verify_needs_designated_sink():
    with pytest.raises(GraphError, match="strategy verification needs a designated sink"):
        verify_strategy(carlson_savage(2, 1), _rv((PLACE, "s1")))


@pytest.mark.parametrize("game,flavor,message", [
    ("chess", None, "unknown game 'chess'"),
    (REVERSIBLE, None, "reversible strategy needs a flavor, got None"),
    (REVERSIBLE, "standard", "reversible strategy needs a flavor, got 'standard'"),
])
def test_verify_rejects_unknown_game_and_missing_flavor(game, flavor, message):
    with pytest.raises(PebblingError, match=f"^{message}$"):
        verify_strategy(line(1), Strategy(game, flavor, _moves((PLACE, "v1"), (REMOVE, "v1"))))


def _constructed_samples():
    from pebcert import (
        bit_reversal,
        strat_bit_reversal_small_space,
        strat_carlson_savage,
        strat_line_checkpoint,
        strat_line_visiting,
    )
    from pebcert.graphs import single_sink_restriction

    cs = carlson_savage(2, 2)
    yield line(5), strat_line_visiting(5)
    yield line(9), strat_line_checkpoint(9, 2)
    yield bit_reversal(4), strat_bit_reversal_small_space(4)
    yield single_sink_restriction(cs, cs.sink_names[0]), strat_carlson_savage(2, 2, 1)


def test_reversal_closure():
    # the move-wise inverse in reverse order of a legal visiting strategy is legal
    inverse = {PLACE: REMOVE, REMOVE: PLACE}
    for dag, strat in _constructed_samples():
        back = Strategy("reversible", "visiting",
                        tuple(Move(inverse[m.op], m.vertex) for m in reversed(strat.moves)))
        fwd = verify_strategy(dag, strat)
        rev = verify_strategy(dag, back)
        assert (fwd.time, fwd.space) == (rev.time, rev.space)


def test_visiting_cuts_at_first_sink_placement():
    # the sink is placed again after the first visit; only the first counts
    dag = line(2)
    strat = visiting(dag, [1, 2, -2, -1, 1, 2])
    assert strat == _rv(("place", "v1"), ("place", "v2"), ("remove", "v2"), ("remove", "v1"))
    metrics = verify_strategy(dag, strat)
    assert (metrics.time, metrics.space, metrics.first_sink_step) == (4, 2, 2)


def test_visiting_keeps_a_prefix_that_ends_at_the_sink():
    dag = pyramid(1)
    strat = visiting(dag, [dag.index[v] + 1 for v in ("v0_1", "v0_2", "v1_1")])
    assert strat.moves == _moves(("place", "v0_1"), ("place", "v0_2"), ("place", "v1_1"),
                                 ("remove", "v1_1"), ("remove", "v0_2"), ("remove", "v0_1"))
    assert verify_strategy(dag, strat).first_sink_step == 3


def test_visiting_needs_a_sink_placement():
    with pytest.raises(PebblingError, match="^sink 'v2' never placed$"):
        visiting(line(2), [1, -1])
    with pytest.raises(PebblingError, match="^sink 'v1' never placed$"):
        visiting(line(1), [])
    with pytest.raises(PebblingError, match="^sink 'v1' never placed$"):  # a removal is no visit
        visiting(line(1), [-1])


@settings(max_examples=200)
@given(half=st.lists(st.integers(1, 12).flatmap(lambda v: st.sampled_from([v, -v])),
                     min_size=1, max_size=30))
def test_unwind_keeps_only_the_last_steps_change(half):
    # the XOR of the toggled bits is the net change, whatever the legality
    change = 0
    for step in _unwind(half):
        change ^= 1 << (abs(step) - 1)
    assert change == 1 << (abs(half[-1]) - 1)
    assert _unwind(half[-1:]) == half[-1:]


def test_standard_rules_relax_reversible():
    for dag, strat in _constructed_samples():
        as_standard = Strategy("standard", None, strat.moves)
        m1 = verify_strategy(dag, strat)
        m2 = verify_strategy(dag, as_standard)
        assert (m1.time, m1.space, m1.first_sink_step) == \
            (m2.time, m2.space, m2.first_sink_step)


def test_strategy_json_round_trip():
    strat = _rv((PLACE, "v1"), (PLACE, "v2"), (REMOVE, "v2"), (REMOVE, "v1"))
    data = json.loads(json.dumps(strategy_to_json(strat)))
    assert strategy_from_json(data) == strat
    standard = Strategy("standard", None, strat.moves)
    assert strategy_from_json(strategy_to_json(standard)) == standard


def test_move_is_a_named_tuple_equal_to_its_pair():
    move = Move(PLACE, "v1")
    assert move == (PLACE, "v1") and hash(move) == hash((PLACE, "v1"))
    assert (move.op, move.vertex) == (PLACE, "v1")
    assert repr(move) == "Move(op='place', vertex='v1')"


def test_loaded_strategy_shares_one_move_per_distinct_move(tmp_path):
    dag = pyramid(3)
    path = tmp_path / "s.json"
    save_strategy(visiting(dag, _steps(replay(dag, strat_by_depth(dag).moves, REVERSIBLE))), path)
    s = load_strategy(path)
    assert len({id(m) for m in s.moves}) == len(set(s.moves)) < len(s.moves)
    assert all(type(m) is Move for m in s.moves)


def _random_legal_moves(rng, dag, game, length):
    """`length` moves, each drawn uniformly from those legal in `game`."""
    moves, mask = [], 0
    for _ in range(length):
        legal = [v for v, (bit, pm) in enumerate(dag.toggles)
                 if mask & pm == pm or (game == STANDARD and mask & bit)]
        v = rng.choice(legal)  # every source is always legal
        bit = dag.toggles[v][0]
        moves.append(Move(REMOVE if mask & bit else PLACE, dag.names[v]))
        mask ^= bit
    return tuple(moves)


@pytest.mark.parametrize("game", [STANDARD, REVERSIBLE])
def test_steps_of_a_replay_decode_to_its_moves(game):
    rng = random.Random(28)
    for _ in range(200):
        dag = random_single_sink_dag(rng)
        moves = _random_legal_moves(rng, dag, game, rng.randint(0, 12))
        assert _decode(dag, _steps(replay(dag, moves, game))) == moves


def test_replay_reads_a_pair_like_its_equal_move():
    dag = line(2)
    assert replay(dag, [(PLACE, "v1")], REVERSIBLE) == [0, 1]
    pairs = [(PLACE, "v1"), (PLACE, "v2"), (REMOVE, "v2"), (REMOVE, "v1")]
    assert verify_strategy(dag, Strategy(REVERSIBLE, VISITING, tuple(pairs))).space == 2
    # a pair refused by the rule of an equal Move before it
    with pytest.raises(IllegalMoveAt) as err:
        replay(dag, [Move(PLACE, "v1"), (PLACE, "v1")], REVERSIBLE)
    assert (err.value.step, err.value.cause) == (2, "v1 already pebbled")
    with pytest.raises(IllegalMoveAt) as err:
        replay(dag, [(PLACE, "v1"), (REMOVE, "v2")], STANDARD)
    assert (err.value.step, err.value.cause) == (2, "v2 not pebbled")


@pytest.mark.parametrize("bad", [5, (PLACE,), (PLACE, "v1", "v2"), [PLACE, "v1"], "pv", None])
@pytest.mark.parametrize("game", [STANDARD, REVERSIBLE])
def test_replay_refuses_a_move_that_is_not_a_pair(bad, game):
    cause = f"move {bad!r} is not an (op, vertex) pair"
    for moves, step in (([bad], 1), ([Move(PLACE, "v1"), bad], 2),
                        ([(PLACE, "v1"), bad, bad], 2)):
        with pytest.raises(IllegalMoveAt) as err:
            replay(line(2), moves, game)
        assert (err.value.step, err.value.cause) == (step, cause)


def _reader_message(moves):
    try:
        strategy_from_json({"game": REVERSIBLE, "flavor": VISITING, "moves": moves})
    except PebblingError as exc:
        return str(exc)
    return None


def test_reader_reports_the_error_it_reported_before():
    # the whole list is read before any type is checked, so a missing key
    # on move 5 wins over a non-string "v" on move 2
    moves = [{"op": PLACE, "v": "v1"}, {"op": PLACE, "v": 2}, {"op": PLACE, "v": "v2"},
             {"op": REMOVE, "v": "v1"}, {"v": "v1"}]
    assert _reader_message(moves) == "malformed strategy JSON: 'op'"
    assert _reader_message(moves[:4]) == 'move "op" and "v" must be strings, got \'place\', 2'
    # an unhashable value is not a string either, and the first bad move is named
    assert (_reader_message([{"op": PLACE, "v": "v1"}, {"op": PLACE, "v": ["v1"]}])
            == 'move "op" and "v" must be strings, got \'place\', [\'v1\']')
    assert (_reader_message([{"op": PLACE, "v": 1}, {"op": PLACE, "v": ["v1"]}])
            == 'move "op" and "v" must be strings, got \'place\', 1')
    assert (_reader_message([{"op": PLACE, "v": "v1"}, {"op": {}, "v": "v1"}])
            == 'move "op" and "v" must be strings, got {}, \'v1\'')
    # of several bad moves, the first in the file is named
    bad = [{"op": 4, "v": 8}, {"op": 9, "v": 1}, {"op": 2, "v": 5}, {"op": 4, "v": 8}]
    assert _reader_message(bad) == 'move "op" and "v" must be strings, got 4, 8'


def _old_reader_message(moves):
    """The message of the per-move reader the shared one replaced."""
    try:
        read = [Move(m["op"], m["v"]) for m in moves]
    except (KeyError, TypeError) as exc:
        return f"malformed strategy JSON: {exc}"
    for m in read:
        if not (isinstance(m.op, str) and isinstance(m.vertex, str)):
            return f'move "op" and "v" must be strings, got {m.op!r}, {m.vertex!r}'
    return None


_READER_VALUES = st.sampled_from([PLACE, REMOVE, "v1", "v2", 1, True, 1.0, None, ["v1"], {}])


@settings(max_examples=150)
@given(moves=st.lists(st.dictionaries(st.sampled_from(["op", "v", "x"]), _READER_VALUES)
                      | st.fixed_dictionaries({"op": _READER_VALUES, "v": _READER_VALUES})
                      | _READER_VALUES, max_size=6)
       | _READER_VALUES)
def test_reader_messages_match_the_per_move_reader(moves):
    assert _reader_message(moves) == _old_reader_message(moves)


@pytest.mark.parametrize("vertices", [[1, True, 1.0, "1"], [["v1"], ["v1"], {"a": 1}]])
def test_saving_moves_of_other_types_is_refused(tmp_path, vertices):
    # the writer refuses, with the reader's message, a file its reader would refuse
    strategy = Strategy(STANDARD, None, tuple(Move(PLACE, v) for v in vertices))
    path = tmp_path / "s.json"
    with pytest.raises(PebblingError) as err:
        save_strategy(strategy, path)
    assert str(err.value) == _reader_message([{"op": PLACE, "v": v} for v in vertices])
    assert not path.exists()


@pytest.mark.parametrize("bad", [(PLACE,), (PLACE, "v1", "v2"), [PLACE, "v1"], None])
def test_saving_a_move_that_is_not_a_pair_is_refused(bad):
    strategy = Strategy(STANDARD, None, ((PLACE, "v1"), bad))
    with pytest.raises(PebblingError) as err:
        strategy_to_json(strategy)
    assert str(err.value) == f"move {bad!r} is not an (op, vertex) pair"
    # a plain pair of strings writes like its equal Move
    assert strategy_to_json(strategy._replace(moves=((PLACE, "v1"),))) == strategy_to_json(
        strategy._replace(moves=(Move(PLACE, "v1"),)))


# -- replay against a set-based simulator ----------------------------------------

def _allowed(preds, pebbled, op, v, game):
    """The game rules on vertex-name sets, written out independently of the DAG's move table."""
    if v not in preds:
        return False
    if op == PLACE:
        return v not in pebbled and preds[v] <= pebbled
    return v in pebbled and (game == STANDARD or preds[v] <= pebbled)


def _simulate(preds, moves, game):
    """(first illegal step or None, configurations before it as name sets)."""
    pebbled = set()
    configs = [frozenset()]
    for i, (op, v) in enumerate(moves, start=1):
        if not _allowed(preds, pebbled, op, v, game):
            return i, configs
        if op == PLACE:
            pebbled.add(v)
        else:
            pebbled.remove(v)
        configs.append(frozenset(pebbled))
    return None, configs


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), data=st.data(),
       game=st.sampled_from([STANDARD, REVERSIBLE]),
       flavor=st.sampled_from([VISITING, PERSISTENT]))
def test_replay_matches_set_simulator(seed, data, game, flavor):
    dag = random_single_sink_dag(random.Random(seed))
    preds = {v: set(dag.pred_names(v)) for v in dag.names}
    flavor = flavor if game == REVERSIBLE else None
    z = dag.designated_sink_name
    every = [(op, v) for v in dag.names + ("ghost",) for op in (PLACE, REMOVE)]
    # mostly legal moves, placements first, with illegal ones mixed in
    moves = []
    pebbled = set()
    for _ in range(data.draw(st.integers(0, 4 * len(dag)))):
        legal = [(op, v) for op, v in every if _allowed(preds, pebbled, op, v, game)]
        places = [m for m in legal if m[0] == PLACE]
        roll = data.draw(st.integers(0, 9))
        pool = places if places and roll < 6 else legal if legal and roll < 9 else every
        op, v = data.draw(st.sampled_from(pool))
        moves.append((op, v))
        if (op, v) in legal:
            (pebbled.add if op == PLACE else pebbled.remove)(v)
            if (op, v) == (PLACE, z) and data.draw(st.integers(0, 3)):
                # close the way a strategy does: unwind, keeping z if persistent
                if game == STANDARD:
                    moves += [(REMOVE, u) for u in sorted(pebbled)]
                else:
                    unwind = moves[:-1] if flavor == PERSISTENT else moves
                    moves += [(REMOVE if o == PLACE else PLACE, u) for o, u in reversed(unwind)]
                break
    if moves and data.draw(st.booleans()):
        moves[data.draw(st.integers(0, len(moves) - 1))] = data.draw(st.sampled_from(every))
    strategy = Strategy(game, flavor, _moves(*moves))
    fail, configs = _simulate(preds, moves, game)

    if fail is not None:
        with pytest.raises(IllegalMoveAt) as err:
            replay(dag, strategy.moves, game)
        assert err.value.step == fail
        with pytest.raises(IllegalMoveAt) as err:
            verify_strategy(dag, strategy)
        assert err.value.step == fail
        return

    masks = replay(dag, strategy.moves, game)
    assert [frozenset(v for v in dag.names if m >> dag.index[v] & 1) for m in masks] == configs
    first = next((t for t, c in enumerate(configs) if z in c), None)
    want_final = {z} if strategy.flavor == PERSISTENT else set()
    if first is None:
        with pytest.raises(PebblingError, match="sink never pebbled"):
            verify_strategy(dag, strategy)
    elif configs[-1] != want_final:
        with pytest.raises(PebblingError, match="must end with"):
            verify_strategy(dag, strategy)
    else:
        m = verify_strategy(dag, strategy)
        assert (m.time, m.space, m.first_sink_step) == \
            (len(moves), max(map(len, configs)), first)
