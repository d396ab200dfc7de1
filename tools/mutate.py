"""Committed mutation checks: every mutant in `mutants.json` must fail its tests.

    python tools/mutate.py

Run it from anywhere; it works on the checkout that holds this file, with
the standard library and pytest.  It first copies `src/`, `tests/` and
`pyproject.toml` into a temporary directory and runs every named test there
unchanged: they must all pass.  Then, one mutant at a time, it makes a fresh
copy, replaces the mutant's `old` text, which must occur exactly once in its
`file`, with its `new` text, and runs only the mutant's `tests`, one pytest
process at a time.  A mutant is killed when a named test fails, survived
when they all pass, and stale when its old text does not occur exactly once
(or its file is gone).  Any other pytest outcome (say, a test id that no
longer exists, or a run past its time cap) is an error.  The exit code is 0
only when every mutant is killed.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
COPIED = ("src", "tests", "pyproject.toml")
TESTS_FAILED = 1  # pytest's exit code when a test failed; 0 means all passed
# a mutant can make a search run without end (say, one whose frontier never
# empties), so each pytest process gets capped time and address space
TIMEOUT_S = 300
MEMORY_CAP = 2 << 30


def _copy(dest: Path) -> None:
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy(ROOT / name, dest / name)


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _pytest(cwd: Path, tests) -> int | str:
    """pytest's exit code on `tests` in `cwd`, or "timeout"."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    # the copy's own `src/` comes first on the path, by pyproject's pytest settings
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    try:
        return subprocess.run(cmd, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              env=env, preexec_fn=_cap_memory, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return "timeout"


def _run(mutant) -> str:
    """killed, survived, stale or error: the outcome of one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _copy(tmp)
        path = tmp / mutant["file"]
        text = path.read_text(encoding="utf-8") if path.is_file() else ""
        if text.count(mutant["old"]) != 1:
            return "stale"
        path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        code = _pytest(tmp, mutant["tests"])
    return {0: "survived", TESTS_FAILED: "killed"}.get(code, f"error (pytest {code})")


def main() -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    start = time.perf_counter()
    named = list(dict.fromkeys(t for m in mutants for t in m["tests"]))
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        code = _pytest(Path(tmp), named)
    if code != 0:
        print(f"the {len(named)} named tests fail on the unmutated tree (pytest {code})")
        return 1
    print(f"unmutated tree: {len(named)} named tests pass")
    outcomes = []
    for mutant in mutants:
        t0 = time.perf_counter()
        outcome = _run(mutant)
        outcomes.append(outcome)
        n = len(mutant["tests"])
        print(f"{outcome:<9} {mutant['name']} ({mutant['file']}, {n} test{'s' * (n != 1)}, "
              f"{time.perf_counter() - t0:.1f} s)", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(mutants)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main())
