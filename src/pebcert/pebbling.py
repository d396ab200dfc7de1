"""Semantics of the standard and reversible pebble games.

A strategy is an ordered move list; configurations are derived by replay, so
validity is always re-checked rather than trusted.  Time is the number of
moves (= configuration transitions); space is the largest configuration seen
during replay.

Rules: placing on v requires v empty and all predecessors pebbled (both
games).  Removal requires v pebbled, and in the reversible game additionally
all predecessors pebbled; standard removal is unconditional.  A visiting
pebbling starts and ends empty with the sink pebbled somewhere in between; a
persistent pebbling ends with exactly the sink pebbled.  The standard game is
verified with visiting semantics (start and end empty, sink visited).

A strategy repeats few distinct moves many times, so each distinct move is
handled once: `replay` decodes it into one rule per call, the test of its
legality together with the messages of its refusal, and a saved strategy
writes each distinct move's text once.  The writer and the reader
of strategy files check moves by one rule: each is a pair of strings, and
the writer refuses any other move.  The package builds moves as signed steps
over topological indices (v + 1 places v, -(v + 1) removes it), and this
module holds their algebra: `_undo` reverses steps, `_unwind` keeps only the
last step's change of a climb, `_steps` reads steps off configurations,
`visiting` alone cuts and mirrors a forward half, and only `_moves` and
`strategy_from_json` call `Move`, once per distinct move.  `replay` reads a
move as an `(op, vertex)` pair, so a pair replays like its equal `Move`, and
anything else is an illegal move at its step.  Every record (`Move`,
`Strategy`, `PebblingMetrics`) is a named tuple, equal to the tuple of its
fields.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .errors import GraphError, IllegalMoveAt, PebblingError
from .graphs import Dag, _read_json, _write_json

STANDARD = "standard"
REVERSIBLE = "reversible"
VISITING = "visiting"
PERSISTENT = "persistent"

PLACE = "place"
REMOVE = "remove"


class Move(NamedTuple):
    op: str  # "place" | "remove"
    vertex: str


class Strategy(NamedTuple):
    game: str  # "standard" | "reversible"
    flavor: str | None  # "visiting" | "persistent"; None for standard
    moves: tuple[Move, ...]


class PebblingMetrics(NamedTuple):
    time: int
    space: int
    first_sink_step: int  # index of the first configuration containing the sink


def _undo(steps):
    """The steps that undo `steps`: each negated, in reverse order."""
    return [-step for step in reversed(steps)]


def _unwind(half):
    """`half`, then the `_undo` of all but its last step: only that step's change stays."""
    return half + _undo(half[:-1])


def _steps(configs):
    """The signed steps between consecutive configurations of `configs`."""
    return [(a ^ b).bit_length() * (1 if b > a else -1) for a, b in zip(configs, configs[1:])]


def _moves(dag, steps) -> tuple[Move, ...]:
    """The moves of the list of signed steps `steps` over `dag`; each distinct
    step is decoded once, so equal steps give one object."""
    by_step = {s: Move(PLACE if s > 0 else REMOVE, dag.names[abs(s) - 1]) for s in set(steps)}
    return tuple(map(by_step.__getitem__, steps))


def visiting(dag, steps) -> Strategy:
    """Reversible visiting strategy: signed `steps` through the first placement
    on `dag`'s sink, then their `_undo` (all a certificate reads)."""
    try:
        half = steps[:steps.index(dag.designated_sink + 1) + 1]
    except ValueError:
        raise PebblingError(f"sink {dag.designated_sink_name!r} never placed") from None
    return Strategy(REVERSIBLE, VISITING, _moves(dag, half + _undo(half)))


def _is_pair(move):
    """A move is a two-item tuple `(op, vertex)`; a `Move` is one."""
    return isinstance(move, tuple) and len(move) == 2


def _rule(dag, move, game):
    """(bit, need, want, held, empty): `move` is legal on configuration m
    exactly when m & need == want, and then gives m ^ bit; a refused move's
    message is `held` when m & bit, else `empty`.  An unknown vertex or op,
    or a move that is not a pair, gets a rule that never holds."""
    if not _is_pair(move):
        why = f"move {move!r} is not an (op, vertex) pair"
        return 0, 0, -1, why, why
    op, vertex = move
    try:
        bit, pred_mask = dag.toggles[dag.index[vertex]]
    except (KeyError, TypeError):  # an unhashable name is unknown too
        why = f"unknown vertex {vertex!r}"
        return 0, 0, -1, why, why
    if op == PLACE:
        held = f"{vertex} already pebbled"
        return bit, bit | pred_mask, pred_mask, held, f"{vertex} has unpebbled predecessors"
    if op == REMOVE:
        need = bit | pred_mask if game == REVERSIBLE else bit
        held = f"reversible removal from {vertex} needs its predecessors pebbled"
        return bit, need, need, held, f"{vertex} not pebbled"
    why = f"unknown move op {op!r}"
    return 0, 0, -1, why, why


def replay(dag: Dag, moves, game: str) -> list[int]:
    """Configurations P_0 .. P_t as bitmasks; raises IllegalMoveAt on failure.

    Each distinct move is read as an `(op, vertex)` pair and decoded once
    into a `_rule`, which also holds the step's message if it is refused.
    """
    rules = {}
    configs = [0]
    mask = 0
    for i, move in enumerate(moves, start=1):
        try:
            rule = rules.get(move)
        except TypeError:  # an unhashable vertex or op, which its rule refuses
            rule = _rule(dag, move, game)
        if rule is None:
            rule = rules[move] = _rule(dag, move, game)
        bit, need, want, held, empty = rule
        if mask & need != want:
            raise IllegalMoveAt(i, held if mask & bit else empty)
        mask ^= bit
        configs.append(mask)
    return configs


def _check_kind(strategy):
    """Refuse an unknown game, and a reversible strategy without a flavor."""
    if strategy.game not in (STANDARD, REVERSIBLE):
        raise PebblingError(f"unknown game {strategy.game!r}")
    if strategy.game == REVERSIBLE and strategy.flavor not in (VISITING, PERSISTENT):
        raise PebblingError(f"reversible strategy needs a flavor, got {strategy.flavor!r}")


def verify_strategy(dag: Dag, strategy: Strategy) -> PebblingMetrics:
    """Replay a strategy from the empty configuration and check its contract.

    Reversible visiting: end empty, sink pebbled at some step.  Reversible
    persistent: end with exactly the sink.  Standard: end empty, sink visited
    (flavor ignored).  Returns time, space, and the first sink step.
    """
    if dag.designated_sink is None:
        raise GraphError("strategy verification needs a designated sink")
    _check_kind(strategy)

    configs = replay(dag, strategy.moves, strategy.game)
    zbit = 1 << dag.designated_sink
    first_sink = next((t for t, m in enumerate(configs) if m & zbit), None)
    if first_sink is None:
        raise PebblingError("sink never pebbled")

    final = configs[-1]
    if strategy.game == REVERSIBLE and strategy.flavor == PERSISTENT:
        if final != zbit:
            raise PebblingError("persistent pebbling must end with exactly the sink")
    else:
        if final != 0:
            raise PebblingError("pebbling must end with the empty configuration")

    return PebblingMetrics(len(strategy.moves), max(m.bit_count() for m in configs), first_sink)


def _string_moves(moves) -> dict:
    """The distinct moves of `moves`, in the order each first comes, as dict
    keys; PebblingError for the first that is not a pair of strings.  Strategy
    files are written and read through this one check."""
    try:
        distinct = dict.fromkeys(moves)
    except TypeError:  # an unhashable move, which the check names
        distinct = moves
    for move in distinct:
        if not _is_pair(move):
            raise PebblingError(f"move {move!r} is not an (op, vertex) pair")
        op, v = move
        if not (isinstance(op, str) and isinstance(v, str)):
            raise PebblingError(f'move "op" and "v" must be strings, got {op!r}, {v!r}')
    return distinct


def strategy_to_json(strategy: Strategy) -> dict:
    data = {"game": strategy.game}
    if strategy.flavor is not None:
        data["flavor"] = strategy.flavor
    # equal moves of strings write equal text, so they share one row
    rows = {move: {"op": move[0], "v": move[1]} for move in _string_moves(strategy.moves)}
    data["moves"] = list(map(rows.__getitem__, strategy.moves))
    return data


def strategy_from_json(data) -> Strategy:
    try:
        game = data["game"]
        pairs = list(map(itemgetter("op", "v"), data["moves"]))
    except (KeyError, TypeError) as exc:
        raise PebblingError(f"malformed strategy JSON: {exc}") from None
    made = {pair: Move(*pair) for pair in _string_moves(pairs)}
    return Strategy(game, data.get("flavor"), tuple(map(made.__getitem__, pairs)))


def load_strategy(path) -> Strategy:
    return _read_json(path, strategy_from_json, PebblingError)


def save_strategy(strategy: Strategy, path) -> None:
    _write_json(strategy_to_json(strategy), path)
