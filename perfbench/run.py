"""Benchmark entry point: one workload, fresh interpreters, one JSON line.

    python3 perfbench/run.py --workload rev-search --seed 1 --seconds 30 --trace 0

Runs from the root of a pebcert checkout and imports the package from its
`src/`.  Every interpreter it starts runs `worker.py` with
PYTHONHASHSEED=0, one after another, and is waited for.  With `--trace 0`
it starts interpreters that only set up, before and after one that sets up
and runs timed passes for `--seconds`; it prints `wall_s` (the median pass),
`setup_s` (the median set-up time over all of them), both scaled to the
reference speed of `speed.py`, and `peak_rss_mb`.  With `--trace 1`
it starts one traced interpreter and prints the per-layer metrics.  The last
line of standard output is the result object; files go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("rev-search", "std-search", "cert-roundtrip")
SETUP_PROBES = 8  # half before the timed run, half after it
DEADLINE_S = 170  # every run must end within 180 s


def start_worker(args, phase, deadline):
    """Run worker.py once and return the JSON object it printed last."""
    src = ROOT / "src"
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--phase", phase, "--out", str(OUT_DIR / args.workload), "--t0", ""]
    cmd[-1] = repr(time.perf_counter())
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({phase}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "pebcert" / "__init__.py").is_file():
        print(f"error: no pebcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S

    try:
        probes = 0 if args.trace else SETUP_PROBES // 2
        setups = [start_worker(args, "setup", deadline)["setup_s"] for _ in range(probes)]
        result = start_worker(args, "run", deadline)
        setups += [start_worker(args, "setup", deadline)["setup_s"] for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    print(f"{args.workload} seed {args.seed}: speed {result['speed']:.3f}; s per pass: "
          + ", ".join(f"{v:.3f}" for v in result["pass_s"]) + "; median s per step: "
          + ", ".join(f"{k} {v:.3f}" for k, v in result["step_s"].items()), file=sys.stderr)

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
