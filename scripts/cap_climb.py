#!/usr/bin/env python3
"""The headline metric: per bundled spec, the largest degree cap at which
`hopfquiver run --task verify` passes within a fixed wall-time budget.

For each spec under `specs/` the cap is raised from 1, each run in a fresh
interpreter (start-up included in the time), until a cap runs out `BUDGET_S`
(a run is stopped there), fails, or `MAX_CAP` has passed.  The host's speed
phase moves a single run by 20-40%, so a cap whose first run runs out the
budget or passes in more than `RECHECK_FRAC` of it is run a second time; the
cap passes when either run passes within the budget.  The JSON result gives,
per spec, the best cap, why the climb stopped, and every run's cap, exit
code and seconds (both runs of a rechecked cap), with the Python version and
git commit.

Usage:  python3 scripts/cap_climb.py [--out FILE]    (default: stdout)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BUDGET_S = 60
MAX_CAP = 16
RECHECK_FRAC = 0.8

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "specs"
RUN_CLI = "import sys; from hopfquiver.cli import main; sys.exit(main(sys.argv[1:]))"


def _run_verify(spec: Path, cap: int, out_dir: str) -> tuple[int | None, float]:
    """Exit code (None when the budget ran out) and wall seconds of one run.

    The child is reaped by a blocking `wait()`, so the time is read as soon as
    it exits (`subprocess.run(timeout=...)` polls with sleeps of up to 50 ms
    instead); a timer thread kills it when the budget runs out."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", RUN_CLI, "run", "--spec", str(spec), "--task", "verify",
           "--degree-cap", str(cap), "--out", out_dir]
    t0 = time.perf_counter()
    child = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    timer = threading.Timer(BUDGET_S, child.kill)
    timer.start()
    try:
        code = child.wait()
    finally:
        timer.cancel()
        child.kill()  # no-op once reaped; stops the child if the wait was interrupted
    seconds = time.perf_counter() - t0
    return (None if seconds >= BUDGET_S else code), seconds


def _logged_run(spec: Path, cap: int, out_dir: str, runs: list) -> tuple[int | None, float]:
    code, seconds = _run_verify(spec, cap, out_dir)
    runs.append({"cap": cap, "exit": code, "seconds": round(seconds, 3)})
    print(f"{spec.stem:35s} cap {cap:2d}  exit {code}  {seconds:7.2f}s",
          file=sys.stderr, flush=True)
    return code, seconds


def climb(spec: Path) -> dict:
    runs, best, stopped = [], 0, "max_cap"
    with tempfile.TemporaryDirectory() as out_dir:
        for cap in range(1, MAX_CAP + 1):
            code, seconds = _logged_run(spec, cap, out_dir, runs)
            if code is None or (code == 0 and seconds > RECHECK_FRAC * BUDGET_S):
                again, _ = _logged_run(spec, cap, out_dir, runs)
                if code is None:
                    code = again
            if code is None:
                stopped = "budget"
                break
            if code != 0:
                stopped = f"exit {code}"
                break
            best = cap
    return {"best_cap": best, "stopped": stopped, "runs": runs}


def _commit() -> str | None:
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="result file (JSON); default: stdout")
    args = parser.parse_args()
    result = {
        "budget_s": BUDGET_S,
        "max_cap": MAX_CAP,
        "recheck_frac": RECHECK_FRAC,
        "python": platform.python_version(),
        "commit": _commit(),
        "specs": {spec.stem: climb(spec) for spec in sorted(SPECS.glob("*.json"))},
    }
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
