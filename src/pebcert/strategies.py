"""Constructive pebbling strategies with known space/time guarantees.

Each constructor returns a Strategy for the named generated graph; callers
verify it with verify_strategy against the matching generator output.  Every
reversible visiting strategy is a forward half passed to `pebbling.visiting`,
which keeps it up to its first sink visit and appends that prefix's mirror.

All chain strategies come from one recursion, `_fwd`/`_place`: level 1
sweeps, and level k plants checkpoints with level k-1 (place, then unwind the
climb) and carries on from the last one with level k-1.  A cut rule says
where a level's checkpoints go:

- `_halves`, space-optimal climbing: one checkpoint at 2^(k-1), so k pebbles
  reach distance 2^k - 1 and a chain of d vertices needs ceil(log2(d+1)).
- `_segments`, k-level checkpointing: ceil(d^(1/k)) equal segments, trading
  space 2k*ceil(d^(1/k)) against time 2^k*d.
"""

from __future__ import annotations

from .errors import GraphError, ParamOutOfRange
from .graphs import Dag, bit_reverse_index, carlson_savage, single_sink_restriction
from .pebbling import PERSISTENT, PLACE, REMOVE, REVERSIBLE, Move, Strategy, mirrored, visiting


def _iroot_ceil(n, k):
    """Smallest integer r with r**k >= n."""
    r = max(1, round(n ** (1.0 / k)))
    while r ** k < n:
        r += 1
    while r > 1 and (r - 1) ** k >= n:
        r -= 1
    return r


def _halves(d, k):
    """One checkpoint at 2^(k-1), if the climb gets that far."""
    half = 1 << (k - 1)
    return [half] if d >= half else []


def _segments(d, k):
    """Inner boundaries of ceil(d^(1/k)) equal segments of d."""
    nseg = _iroot_ceil(d, k)
    seg = -(-d // nseg)  # ceil
    return [min(i * seg, d) for i in range(1, nseg)]


def _fwd(base, d, k, cuts):
    """Signed chain positions (negative = removal) bringing a pebble to base+d.

    Positions are 1-based chain offsets; `base` 0 means the chain boundary.
    Level k plants a checkpoint at each offset of cuts(d, k) with level k-1,
    then carries on from the last one at level k-1; level 1 sweeps.  Under
    `_halves`, level k reaches any d <= 2^k - 1 with at most k pebbles above
    `base`; a farther target is still reached, but its level-1 sweep takes
    more pebbles.
    """
    if k <= 1:
        return list(range(base + 1, base + d + 1))
    out, prev = [], 0
    for cut in cuts(d, k):
        out += _place(base + prev, cut - prev, k - 1, cuts)
        prev = cut
    return out + _fwd(base + prev, d - prev, k - 1, cuts)


def _place(base, d, k, cuts):
    """`_fwd` to base+d-1, place base+d, undo the climb: leaves only base+d above base."""
    if d == 0:
        return []
    climb = _fwd(base, d - 1, k, cuts)
    return climb + [base + d] + [-pos for pos in reversed(climb)]


def _space_optimal(d):
    """Space-optimal forward half to chain position d, in ceil(log2(d+1)) pebbles."""
    return _fwd(0, d, d.bit_length(), _halves)  # d.bit_length() == ceil(log2(d+1))


def strat_line_visiting(n: int) -> Strategy:
    """Visiting pebbling of line(n) with space exactly ceil(log2(n+1))."""
    if n < 1:
        raise ParamOutOfRange("need n >= 1")
    chain = [f"v{i}" for i in range(1, n + 1)]
    return visiting(_moves_on_chain(_space_optimal(n), chain), chain[-1])


def strat_line_persistent(n: int) -> Strategy:
    """Persistent pebbling of line(n); space floor(log2(n-1)) + 2 for n >= 2.

    Reaches v_{n-1} with the visiting forward half, places v_n, and unwinds
    the forward half with the sink pebble in place.
    """
    if n < 1:
        raise ParamOutOfRange("need n >= 1")
    chain = [f"v{i}" for i in range(1, n + 1)]
    moves = _moves_on_chain(_place(0, n, (n - 1).bit_length(), _halves), chain)
    return Strategy(REVERSIBLE, PERSISTENT, tuple(moves))


def _moves_on_chain(positions, chain):
    return [Move(PLACE if pos > 0 else REMOVE, chain[abs(pos) - 1]) for pos in positions]


def _serviced(positions, chain, service):
    """Chain moves, each bracketed by `service(position)` and its mirror.

    The service is a forward half that pebbles the chain vertex's outside
    predecessor; its mirror clears the service again after the chain move.
    """
    out = []
    for pos in positions:
        fwd = service(abs(pos))
        out += fwd
        out += _moves_on_chain([pos], chain)
        out += mirrored(fwd)
    return out


def strat_line_checkpoint(n: int, k: int) -> Strategy:
    """Visiting pebbling of line(n) in space <= 2k*ceil(n^(1/k)), time <= 2^k*n."""
    if n < 1 or k < 1:
        raise ParamOutOfRange("need n >= 1 and k >= 1")
    chain = [f"v{i}" for i in range(1, n + 1)]
    return visiting(_moves_on_chain(_fwd(0, n, k, _segments), chain), chain[-1])


def _persist_moves(dag, v, memo):
    """Persistent pebbling of the sub-DAG of vertex v: ends with only v pebbled.

    All but one predecessor is pebbled persistently one at a time, the last is
    visited, v is placed, and everything unwinds in reverse.
    """
    if v not in memo:
        head = _visit_fwd_prefix(dag, v, memo)
        memo[v] = head + list(mirrored(head[:-1]))
    return memo[v]


def _visit_fwd_prefix(dag, v, memo):
    """Forward half of a visiting pebbling of v's sub-DAG, ending with v placed."""
    preds = dag.preds[v]
    out = []
    for p in preds[:-1]:
        out += _persist_moves(dag, p, memo)
    if preds:
        out += _visit_fwd_prefix(dag, preds[-1], memo)
    out.append(Move(PLACE, dag.names[v]))
    return out


def strat_by_depth(dag: Dag) -> Strategy:
    """Persistent strategy in space at most depth * max_indegree + 1."""
    if dag.designated_sink is None:
        raise GraphError("strat_by_depth needs a designated sink")
    moves = _persist_moves(dag, dag.designated_sink, {})
    return Strategy(REVERSIBLE, PERSISTENT, tuple(moves))


def _cs_fwd(dag, c, r, sink_index, prefix, memo):
    """Forward half reaching sink `sink_index` of the CS graph under `prefix`.

    Climbs the spine with the chain strategy; every spine move is bracketed by
    a forward/backward visit of the auxiliary predecessor (pyramid sink for
    the first c positions of a section, recursive-copy sink for the last c).
    """
    if r == 1:
        return [Move(PLACE, f"{prefix}s1"), Move(PLACE, f"{prefix}s2"),
                Move(PLACE, f"{prefix}t{sink_index}")]
    two_c = 2 * c
    length = two_c * (r - 1)
    chain = [f"{prefix}spine{sink_index}/sec{(p - 1) // two_c + 1}/v{(p - 1) % two_c + 1}"
             for p in range(1, length + 1)]

    def service(pos):
        m = (pos - 1) % two_c + 1
        if m <= c:
            return _visit_fwd_prefix(dag, dag.index[f"{prefix}pyr{m}/v{r - 1}_1"], memo)
        return _cs_fwd(dag, c, r - 1, m - c, prefix + "sub/", memo)
    return _serviced(_space_optimal(length), chain, service)


def strat_carlson_savage(c: int, r: int, sink_index: int) -> Strategy:
    """Visiting strategy for the single-sink restriction of carlson_savage(c, r).

    Measured space stays within r * (log2(c*r) + 3).
    """
    if c < 2 or r < 1 or not 1 <= sink_index <= c:
        raise ParamOutOfRange("need c >= 2, r >= 1, 1 <= sink_index <= c")
    full = carlson_savage(c, r)
    dag = single_sink_restriction(full, full.sink_names[sink_index - 1])
    return visiting(_cs_fwd(dag, c, r, sink_index, "", {}), dag.designated_sink_name)


def strat_bit_reversal_small_space(n: int) -> Strategy:
    """Visiting strategy for bit_reversal(n) in space <= 2*log2(n) + 2.

    Climbs the top line space-optimally; each top move is bracketed by a
    forward/backward climb of the bottom line up to the cross predecessor.
    """
    if n < 2 or n & (n - 1):
        raise ParamOutOfRange("need a power of two >= 2")
    bits = n.bit_length() - 1
    bottom = [f"x{i}" for i in range(1, n + 1)]
    top = [f"y{i}" for i in range(1, n + 1)]
    out = _serviced(_space_optimal(n), top, lambda pos: _moves_on_chain(
        _space_optimal(bit_reverse_index(pos - 1, bits) + 1), bottom))
    return visiting(out, top[-1])


def strat_bit_reversal_checkpoint(n: int, k: int) -> Strategy:
    """Checkpointed visiting strategy for bit_reversal(n).

    Phase 1 plants ceil(n^(1/k)) fixed pebbles equally spaced on the bottom
    line; phase 2 climbs the top line with the level-k checkpoint routine,
    serving each cross predecessor from the nearest fixed pebble at or below
    it with the level-(k-1) routine.  For 4*log2(n) <= 4k*ceil(n^(1/k)) <= 2n
    the measured space stays within 4k*ceil(n^(1/k)).
    """
    if n < 2 or n & (n - 1):
        raise ParamOutOfRange("need a power of two >= 2")
    if k < 1:
        raise ParamOutOfRange("need k >= 1")
    bits = n.bit_length() - 1
    bottom = [f"x{i}" for i in range(1, n + 1)]
    top = [f"y{i}" for i in range(1, n + 1)]
    fixed = _segments(n, k) + [n]
    plant = [pos for lo, hi in zip([0] + fixed, fixed)
             for pos in _place(lo, hi - lo, k - 1, _segments)]

    def service(pos):
        target = bit_reverse_index(pos - 1, bits) + 1
        base = max((f for f in fixed if f <= target), default=0)
        return _moves_on_chain(_fwd(base, target - base, k - 1, _segments), bottom)
    fwd = _moves_on_chain(plant, bottom) + _serviced(_fwd(0, n, k, _segments), top, service)
    return visiting(fwd, top[-1])


def line_visiting_price(n: int) -> int:
    """Closed form ceil(log2(n+1)), in integers."""
    return n.bit_length()


def line_persistent_price(n: int) -> int:
    """Closed form floor(log2(n-1)) + 2 for n >= 2, in integers; 1 below."""
    return (n - 1).bit_length() + 1 if n >= 2 else 1
