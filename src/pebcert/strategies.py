"""Constructive pebbling strategies with known space/time guarantees.

Each constructor returns a Strategy for the named generated graph; callers
verify it with verify_strategy against the matching generator output.  The
generator judges the family's parameters, and the constructors read its
layout off the graph in signed steps over topological indices (v + 1 places
v, -(v + 1) removes it): chain position p is step p of `line(n)`, and step p
(bottom) or n + p (top) of `bit_reversal(n)`.  Every reversible visiting
strategy is a forward half of steps passed to `pebbling.visiting`, which
keeps it up to its first sink placement and appends that prefix's `_undo`.
Every bracket inside a half (climb, act, undo the climb) is `_unwind`.

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
from .graphs import (Dag, _check_line, bit_reversal, bit_reverse_index, carlson_savage, line,
                     single_sink_restriction)
from .pebbling import PERSISTENT, REVERSIBLE, Strategy, _moves, _unwind, visiting


def _iroot_ceil(n, k):
    """Least r >= 1 with r**k >= n, counted up: `_segments` makes r - 1 cuts anyway."""
    r = 1
    while r ** k < n:
        r += 1
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
    """`_fwd` to base+d-1, place base+d, unwind the climb: leaves only base+d above base."""
    return _unwind(_fwd(base, d - 1, k, cuts) + [base + d])


def _space_optimal(d):
    """Space-optimal forward half to chain position d, in ceil(log2(d+1)) pebbles."""
    return _fwd(0, d, d.bit_length(), _halves)  # d.bit_length() == ceil(log2(d+1))


def strat_line_visiting(n: int) -> Strategy:
    """Visiting pebbling of line(n) with space exactly ceil(log2(n+1))."""
    dag = line(n)
    return visiting(dag, _space_optimal(n))


def strat_line_persistent(n: int) -> Strategy:
    """Persistent pebbling of line(n); space floor(log2(n-1)) + 2 for n >= 2.

    Reaches v_{n-1} with the visiting forward half, places v_n, and unwinds
    the forward half with the sink pebble in place.
    """
    dag = line(n)
    return Strategy(REVERSIBLE, PERSISTENT,
                    _moves(dag, _place(0, n, (n - 1).bit_length(), _halves)))


def _serviced(positions, chain, service):
    """Chain steps (position p is vertex chain[p - 1]), each after
    `service(p)`, a forward half that pebbles the vertex's outside
    predecessor, and unwound with it."""
    out = []
    for pos in positions:
        step = chain[abs(pos) - 1] + 1
        out += _unwind(service(abs(pos)) + [step if pos > 0 else -step])
    return out


def strat_line_checkpoint(n: int, k: int) -> Strategy:
    """Visiting pebbling of line(n) in space <= 2k*ceil(n^(1/k)), time <= 2^k*n."""
    dag = line(n)
    if type(k) is not int or k < 1:
        raise ParamOutOfRange("need k >= 1")
    return visiting(dag, _fwd(0, n, k, _segments))


def _visit_fwd_prefix(dag, v, held):
    """Forward half of a visiting pebbling of v's sub-DAG beside the pebbles
    of `held`, ending with v placed; a held predecessor is not placed again,
    and each other one but the last is pebbled persistently, its half unwound."""
    preds = [p for p in dag.preds[v] if not held >> p & 1]
    out = []
    for p in preds[:-1]:
        out += _unwind(_visit_fwd_prefix(dag, p, held))
        held |= 1 << p
    if preds:
        out += _visit_fwd_prefix(dag, preds[-1], held)
    out.append(v + 1)
    return out


def strat_by_depth(dag: Dag) -> Strategy:
    """Persistent strategy in space at most depth * max_indegree + 1."""
    if dag.designated_sink is None:
        raise GraphError("strat_by_depth needs a designated sink")
    steps = _unwind(_visit_fwd_prefix(dag, dag.designated_sink, 0))
    return Strategy(REVERSIBLE, PERSISTENT, _moves(dag, steps))


def _cs_fwd(dag, c, r, v):
    """Forward half reaching v, a sink of a level-r CS copy inside `dag`.

    Climbs the spine into v (preds[1] back to position 1, which has one
    predecessor) with the chain strategy; each spine step is bracketed by a
    visit of its outside predecessor preds[0], a pyramid sink for the first
    c positions of a section and a recursive-copy sink for the last c.
    """
    if r == 1:
        return _visit_fwd_prefix(dag, v, 0)
    chain = [v]
    while len(dag.preds[chain[0]]) == 2:
        chain.insert(0, dag.preds[chain[0]][1])

    def service(pos):
        outside = dag.preds[chain[pos - 1]][0]
        if (pos - 1) % (2 * c) < c:
            return _visit_fwd_prefix(dag, outside, 0)
        return _cs_fwd(dag, c, r - 1, outside)
    return _serviced(_space_optimal(len(chain)), chain, service)


def strat_carlson_savage(c: int, r: int, sink_index: int) -> Strategy:
    """Visiting strategy for the single-sink restriction of carlson_savage(c, r).

    Measured space stays within r * (log2(c*r) + 3).
    """
    full = carlson_savage(c, r)
    if type(sink_index) is not int or not 1 <= sink_index <= c:
        raise ParamOutOfRange("need 1 <= sink_index <= c")
    dag = single_sink_restriction(full, full.sink_names[sink_index - 1])
    return visiting(dag, _cs_fwd(dag, c, r, dag.designated_sink))


def strat_bit_reversal_small_space(n: int) -> Strategy:
    """Visiting strategy for bit_reversal(n) in space <= 2*log2(n) + 2.

    Climbs the top line space-optimally; each top move is bracketed by a
    forward/backward climb of the bottom line up to the cross predecessor.
    """
    dag = bit_reversal(n)
    bits = n.bit_length() - 1
    fwd = _serviced(_space_optimal(n), range(n, 2 * n),
                    lambda pos: _space_optimal(bit_reverse_index(pos - 1, bits) + 1))
    return visiting(dag, fwd)


def strat_bit_reversal_checkpoint(n: int, k: int) -> Strategy:
    """Checkpointed visiting strategy for bit_reversal(n).

    Phase 1 plants ceil(n^(1/k)) fixed pebbles equally spaced on the bottom
    line; phase 2 climbs the top line with the level-k checkpoint routine,
    serving each cross predecessor from the nearest fixed pebble at or below
    it with the level-(k-1) routine.  For 4*log2(n) <= 4k*ceil(n^(1/k)) <= 2n
    the measured space stays within 4k*ceil(n^(1/k)).
    """
    dag = bit_reversal(n)
    if type(k) is not int or k < 1:
        raise ParamOutOfRange("need k >= 1")
    bits = n.bit_length() - 1
    fixed = _segments(n, k) + [n]
    plant = [pos for lo, hi in zip([0] + fixed, fixed)
             for pos in _place(lo, hi - lo, k - 1, _segments)]

    def service(pos):
        target = bit_reverse_index(pos - 1, bits) + 1
        base = max((f for f in fixed if f <= target), default=0)
        return _fwd(base, target - base, k - 1, _segments)
    fwd = plant + _serviced(_fwd(0, n, k, _segments), range(n, 2 * n), service)
    return visiting(dag, fwd)


def line_visiting_price(n: int) -> int:
    """Closed form ceil(log2(n+1)), in integers."""
    _check_line(n)
    return n.bit_length()


def line_persistent_price(n: int) -> int:
    """Closed form floor(log2(n-1)) + 2 for n >= 2, in integers; 1 for n = 1."""
    _check_line(n)
    return (n - 1).bit_length() + 1 if n >= 2 else 1
