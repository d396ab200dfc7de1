"""One fresh interpreter of the benchmark: set up a workload, time its passes.

`run.py` starts this file with a fixed PYTHONHASHSEED and `src` on the path.
The first thing it does is start a `speed.Probe`, and every time it reports
is measured on the probe's clock and scaled to the probe's reference speed
(see `speed.py`).  With `--phase setup` it only sets up and reports the
set-up time, measured from `--t0`, the parent's `time.perf_counter()` just
before the start (the clock is CLOCK_MONOTONIC, shared by all processes).
With `--phase run` it then runs whole passes until `--seconds` have gone and
prints one JSON line.  The outputs of the first pass are checked as each
operation ends, outside its timing; later passes must give the same results.
With `--trace 1` it installs the tracer first and reports the per-layer
metrics as well.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import traceback
import warnings
from pathlib import Path

import speed


class Laps:
    """Times the steps of one operation, each up to the call naming it."""

    def __init__(self, op, clock):
        self.op = op
        self.clock = clock
        self.start = self.last = clock()
        self.times = {}

    def __call__(self, step):
        now = self.clock()
        self.times[f"{self.op}/{step}"] = now - self.last
        self.last = now


def run_pass(workload, times, summaries, errors, check, clock):
    """Run every operation once, adding each step's time to `times`;
    returns the number of operations that raised."""
    failed = 0
    for name, fn in workload.ops:
        laps = Laps(name, clock)
        try:
            result = fn(laps)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            failed += 1
            continue
        if not laps.times:  # an operation without steps is one step
            laps.times[name] = clock() - laps.start
        times.update(laps.times)
        if check:
            errors += [f"{name}: {e}" for e in workload.check_output(name, result)]
        summaries.setdefault(name, []).append(workload.summary(result))
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    # Compiling a constructive strategy that runs past its first sink visit
    # warns once per call site; the benchmark does that on purpose.
    warnings.filterwarnings("ignore", message="strategy runs past")

    probe = speed.Probe()
    probe.start()
    import pebcert  # noqa: F401  (import time is part of set-up)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(probe.clock)
        tracer.install()
    from workloads import WORKLOADS

    def phase(name):
        return tracer.phase(name) if tracer else contextlib.nullcontext()

    workload = WORKLOADS[args.workload]()
    args.out.mkdir(parents=True, exist_ok=True)
    with phase("setup"):
        workload.setup(args.seed, args.out)
    setup_s = (probe.clock() - args.t0) * probe.speed((0, 0.0))
    if args.phase == "setup":
        probe.stop()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    attempted = failed = 0
    summaries, errors = {}, []
    if tracer and workload.searches:
        # One untimed pass measures the tracemalloc peak of the searches,
        # so that the timed passes run without tracemalloc.
        tracer.track_memory = True
        with phase("memory"):
            failed += run_pass(workload, {}, {}, [], False, probe.clock)
        attempted += len(workload.ops)
        tracer.track_memory = False

    # Each pass is scaled to the reference speed by the speed samples taken
    # while it ran; a step counts with its median over the passes.
    pass_s, step_s = [], {}
    timed_from = probe.reading()
    start = probe.clock()
    while not pass_s or probe.clock() - start < args.seconds:
        since, times = probe.reading(), {}
        with phase("pass"):
            failed += run_pass(workload, times, summaries, errors, not pass_s, probe.clock)
        attempted += len(workload.ops)
        pass_speed = probe.speed(since)
        pass_s.append(sum(times.values()) * pass_speed)
        for step, seconds in times.items():
            step_s.setdefault(step, []).append(seconds * pass_speed)
    run_speed = probe.speed(timed_from)
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(pass_s)
    step_s = {step: statistics.median(t) for step, t in step_s.items()}

    errors += workload.check_passes(summaries)
    for line in errors:
        print(f"check failed: {args.workload}: {line}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "pass_s": pass_s, "setup_s": setup_s, "wall_s": wall_s,
              "speed": run_speed, "peak_rss_mb": peak_rss_mb, "step_s": step_s}
    if tracer:
        tracer.dump(args.out / f"trace-{args.workload}-seed{args.seed}.json")
        result["per_layer"] = tracer.layer_metrics(wall_s, run_speed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
