"""A speed probe: how fast this process runs Python from moment to moment.

The host the benchmark was tuned on shares its cores with other tenants, and
the speed at which it runs one process swings by up to a factor of two, for
milliseconds and for minutes at a time (see README, "Steadiness").  No
statistic over passes removes a slow stretch that lasts a whole run, so the
benchmark measures the speed alongside the work and scales its times to a
fixed reference speed.

`Probe.start()` installs a SIGALRM interval timer in the measured process;
every `INTERVAL_S` seconds the handler runs `kernel()`, a fixed piece of
pure-Python work, and records its duration.  The samples fall evenly over
the time measured, inside pebcert's calls too (the handler runs between
their bytecodes).  A sample's *speed* is `REFERENCE_S` over its duration,
and the mean speed over a stretch of time is the share of the reference
speed the program got in it.  (The mean of the speeds, not the reciprocal
of the mean duration: work done is the integral of speed over time, and
with a speed that swings the two differ.)  `clock()` leaves out the time
spent in the handler, and a time on that clock times `speed()` is the time
at the reference speed.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.01
# The kernel's time at the reference speed: about its fastest time on the
# host the benchmark was tuned on (Xeon at 2.1 GHz, Python 3.11.7).
REFERENCE_S = 40e-6


def kernel() -> int:
    """Fixed work of the kind pebcert does: small tuples and frozensets
    built and freed, dict lookups and updates, set membership."""
    table, acc = {}, 0
    for i in range(100):
        key = frozenset((i % 37, i % 11, i % 5))
        table[key] = table.get(key, 0) + i
        if key in table:
            acc += len(key)
    return acc


class Probe:
    """Samples `kernel()` every `INTERVAL_S` seconds from a SIGALRM timer."""

    def __init__(self):
        self.count = 0
        self.busy_s = 0.0
        self.speed_sum = 0.0

    def _sample(self, signum, frame):
        # With the collector off, the kernel's objects are freed before it
        # returns and never set off a collection, whose cost would depend on
        # the heap pebcert holds.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.busy_s += took
        self.speed_sum += REFERENCE_S / took
        self.count += 1
        if enabled:
            gc.enable()

    def start(self):
        for _ in range(20):  # let the interpreter specialise the kernel first
            kernel()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """`time.perf_counter()` less the time spent sampling."""
        return time.perf_counter() - self.busy_s

    def reading(self) -> tuple[int, float]:
        return self.count, self.speed_sum

    def speed(self, since: tuple[int, float]) -> float:
        """Mean speed of the samples since `since` (a `reading()`)."""
        count, speed_sum = self.count - since[0], self.speed_sum - since[1]
        if count == 0:
            raise RuntimeError("no speed sample in the measured stretch")
        return speed_sum / count
