"""Constructive pebbling strategies with known space/time guarantees.

Each constructor returns a Strategy for the named generated graph; callers
verify it with verify_strategy against the matching generator output.  Every
reversible visiting strategy is a forward half passed to `pebbling.visiting`,
which keeps it up to its first sink visit and appends that prefix's mirror.

Chain climbing: the forward half of the space-optimal visiting pebbling of a
chain of d vertices uses ceil(log2(d+1)) pebbles.  With budget k it reaches
distance 2^k - 1: first bring a lone pebble to the midpoint (climb with k-1,
place, unwind the climb), then continue beyond it with k-1.
"""

from __future__ import annotations

import math

from .errors import ParamOutOfRange
from .graphs import Dag, bit_reverse_index, carlson_savage, single_sink_restriction
from .pebbling import (
    PERSISTENT,
    PLACE,
    REMOVE,
    REVERSIBLE,
    Move,
    Strategy,
    mirrored,
    visiting,
)


def _climb(emit, base, d, k):
    """Forward moves bringing a pebble to chain position base+d (junk allowed).

    Positions are 1-based chain offsets; `base` 0 means the chain boundary.
    Requires d <= 2^k - 1; peak count of pebbles above `base` is at most k.
    """
    if d == 0:
        return
    if k <= 0:
        raise ParamOutOfRange(f"cannot reach distance {d} with no pebbles")
    half = 1 << (k - 1)
    if d <= half - 1:
        _climb(emit, base, d, k - 1)
        return
    hop = []
    _climb(hop.append, base, half - 1, k - 1)
    for pos in hop:
        emit(pos)
    emit(base + half)
    for pos in reversed(hop):
        emit(-pos)  # negative = removal
    _climb(emit, base + half, d - half, k - 1)


def _chain_fwd_moves(chain, d=None):
    """Space-optimal forward half on the first d vertices of a name chain."""
    if d is None:
        d = len(chain)
    out = []
    _climb(out.append, 0, d, d.bit_length())  # d.bit_length() == ceil(log2(d+1))
    return _moves_on_chain(out, chain)


def strat_line_visiting(n: int) -> Strategy:
    """Visiting pebbling of line(n) with space exactly ceil(log2(n+1))."""
    if n < 1:
        raise ParamOutOfRange("need n >= 1")
    chain = [f"v{i}" for i in range(1, n + 1)]
    return visiting(_chain_fwd_moves(chain), chain[-1])


def strat_line_persistent(n: int) -> Strategy:
    """Persistent pebbling of line(n); space floor(log2(n-1)) + 2 for n >= 2.

    Reaches v_{n-1} with the visiting forward half, places v_n, and unwinds
    the forward half with the sink pebble in place.
    """
    if n < 1:
        raise ParamOutOfRange("need n >= 1")
    chain = [f"v{i}" for i in range(1, n + 1)]
    fwd = _chain_fwd_moves(chain, n - 1)
    moves = tuple(fwd) + (Move(PLACE, chain[-1]),) + mirrored(fwd)
    return Strategy(REVERSIBLE, PERSISTENT, moves)


def _iroot_ceil(n, k):
    """Smallest integer r with r**k >= n."""
    r = max(1, round(n ** (1.0 / k)))
    while r ** k < n:
        r += 1
    while r > 1 and (r - 1) ** k >= n:
        r -= 1
    return r


def _ck_fwd(emit, base, d, k):
    """Checkpointed forward half reaching base+d.

    Level 1 sweeps sequentially; level k splits into ceil(d^(1/k)) segments,
    plants a checkpoint at each boundary with the level-(k-1) routine (place
    and unwind), and recurses into the final segment.
    """
    if d == 0:
        return
    if k <= 1:
        for pos in range(base + 1, base + d + 1):
            emit(pos)
        return
    nseg = _iroot_ceil(d, k)
    seg = -(-d // nseg)  # ceil
    bounds = [base + min(i * seg, d) for i in range(nseg + 1)]
    for i in range(1, nseg):
        _ck_place(emit, bounds[i - 1], bounds[i] - bounds[i - 1], k - 1)
    _ck_fwd(emit, bounds[nseg - 1], bounds[nseg] - bounds[nseg - 1], k - 1)


def _ck_place(emit, base, d, k):
    """From a pebble at `base`: end with pebbles at base and base+d only."""
    if d == 0:
        return
    sub = []
    _ck_fwd(sub.append, base, d - 1, k)
    for pos in sub:
        emit(pos)
    emit(base + d)
    for pos in reversed(sub):
        emit(-pos)


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
    out = []
    _ck_fwd(out.append, 0, n, k)
    return visiting(_moves_on_chain(out, chain), chain[-1])


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
        raise ParamOutOfRange("strat_by_depth needs a designated sink")
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
    raw = []
    _climb(raw.append, 0, length, length.bit_length())

    def service(pos):
        m = (pos - 1) % two_c + 1
        if m <= c:
            return _visit_fwd_prefix(dag, dag.index[f"{prefix}pyr{m}/v{r - 1}_1"], memo)
        return _cs_fwd(dag, c, r - 1, m - c, prefix + "sub/", memo)
    return _serviced(raw, chain, service)


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
    raw = []
    _climb(raw.append, 0, n, n.bit_length())
    out = _serviced(raw, top,
                    lambda pos: _chain_fwd_moves(bottom, bit_reverse_index(pos - 1, bits) + 1))
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

    nfix = _iroot_ceil(n, k)
    seg = -(-n // nfix)
    fixed = sorted({min(i * seg, n) for i in range(1, nfix + 1)})

    fwd = []
    prev = 0
    for pos in fixed:
        raw = []
        _ck_place(raw.append, prev, pos - prev, k - 1)
        fwd += _moves_on_chain(raw, bottom)
        prev = pos

    def service(pos):
        target = bit_reverse_index(pos - 1, bits) + 1
        base = max((f for f in fixed if f <= target), default=0)
        raw = []
        _ck_fwd(raw.append, base, target - base, k - 1)
        return _moves_on_chain(raw, bottom)

    raw_top = []
    _ck_fwd(raw_top.append, 0, n, k)
    fwd += _serviced(raw_top, top, service)
    return visiting(fwd, top[-1])


def line_visiting_price(n: int) -> int:
    """Closed form ceil(log2(n+1))."""
    return math.ceil(math.log2(n + 1))


def line_persistent_price(n: int) -> int:
    """Closed form floor(log2(n-1)) + 2 for n >= 2."""
    if n < 2:
        return 1
    return math.floor(math.log2(n - 1)) + 2
