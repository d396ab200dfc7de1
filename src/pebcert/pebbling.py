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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphError, IllegalMoveAt, PebblingError
from .graphs import Dag, _read_json, _write_json

STANDARD = "standard"
REVERSIBLE = "reversible"
VISITING = "visiting"
PERSISTENT = "persistent"

PLACE = "place"
REMOVE = "remove"


@dataclass(frozen=True)
class Move:
    op: str  # "place" | "remove"
    vertex: str


@dataclass(frozen=True)
class Strategy:
    game: str  # "standard" | "reversible"
    flavor: str | None  # "visiting" | "persistent"; None for standard
    moves: tuple[Move, ...]


@dataclass(frozen=True)
class PebblingMetrics:
    time: int
    space: int
    first_sink_step: int  # index of the first configuration containing the sink


def mirrored(moves) -> tuple[Move, ...]:
    """Inverse moves in reverse order; legal whenever `moves` is reversible-legal."""
    return tuple(Move(REMOVE if m.op == PLACE else PLACE, m.vertex) for m in reversed(moves))


def visiting(moves, sink: str) -> Strategy:
    """Reversible visiting strategy: `moves` up to and including the first
    placement on `sink`, then that prefix's mirror (all a certificate reads)."""
    moves = tuple(moves)
    try:
        t = moves.index(Move(PLACE, sink)) + 1
    except ValueError:
        raise PebblingError(f"sink {sink!r} never placed") from None
    return Strategy(REVERSIBLE, VISITING, moves[:t] + mirrored(moves[:t]))


def _move_mask(dag, config_mask, move, game):
    """Next configuration bitmask, or raise PebblingError for an illegal move."""
    try:
        bit, pred_mask = dag.toggles[dag.index[move.vertex]]
    except (KeyError, TypeError):  # an unhashable name is unknown too
        raise PebblingError(f"unknown vertex {move.vertex!r}") from None
    if move.op == PLACE:
        if config_mask & bit:
            raise PebblingError(f"{move.vertex} already pebbled")
        if config_mask & pred_mask != pred_mask:
            raise PebblingError(f"{move.vertex} has unpebbled predecessors")
        return config_mask | bit
    if move.op == REMOVE:
        if not config_mask & bit:
            raise PebblingError(f"{move.vertex} not pebbled")
        if game == REVERSIBLE and config_mask & pred_mask != pred_mask:
            raise PebblingError(
                f"reversible removal from {move.vertex} needs its predecessors pebbled")
        return config_mask & ~bit
    raise PebblingError(f"unknown move op {move.op!r}")


def replay(dag: Dag, moves, game: str) -> list[int]:
    """Configurations P_0 .. P_t as bitmasks; raises IllegalMoveAt on failure."""
    configs = [0]
    mask = 0
    for i, move in enumerate(moves, start=1):
        try:
            mask = _move_mask(dag, mask, move, game)
        except PebblingError as exc:
            raise IllegalMoveAt(i, str(exc)) from None
        configs.append(mask)
    return configs


def verify_strategy(dag: Dag, strategy: Strategy) -> PebblingMetrics:
    """Replay a strategy from the empty configuration and check its contract.

    Reversible visiting: end empty, sink pebbled at some step.  Reversible
    persistent: end with exactly the sink.  Standard: end empty, sink visited
    (flavor ignored).  Returns time, space, and the first sink step.
    """
    if dag.designated_sink is None:
        raise GraphError("strategy verification needs a designated sink")
    if strategy.game not in (STANDARD, REVERSIBLE):
        raise PebblingError(f"unknown game {strategy.game!r}")
    if strategy.game == REVERSIBLE and strategy.flavor not in (VISITING, PERSISTENT):
        raise PebblingError(f"reversible strategy needs a flavor, got {strategy.flavor!r}")

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

    space = max(m.bit_count() for m in configs)
    return PebblingMetrics(time=len(strategy.moves), space=space,
                           first_sink_step=first_sink)


def strategy_to_json(strategy: Strategy) -> dict:
    data = {"game": strategy.game}
    if strategy.flavor is not None:
        data["flavor"] = strategy.flavor
    data["moves"] = [{"op": m.op, "v": m.vertex} for m in strategy.moves]
    return data


def strategy_from_json(data) -> Strategy:
    try:
        game = data["game"]
        moves = tuple(Move(m["op"], m["v"]) for m in data["moves"])
    except (KeyError, TypeError) as exc:
        raise PebblingError(f"malformed strategy JSON: {exc}") from None
    for m in moves:
        if not (isinstance(m.op, str) and isinstance(m.vertex, str)):
            raise PebblingError(f'move "op" and "v" must be strings, got {m.op!r}, {m.vertex!r}')
    return Strategy(game, data.get("flavor"), moves)


def load_strategy(path) -> Strategy:
    return _read_json(path, strategy_from_json, PebblingError)


def save_strategy(strategy: Strategy, path) -> None:
    _write_json(strategy_to_json(strategy), path)
