#!/usr/bin/env python3
"""Re-record the golden reports in tests/golden/ from the bundled specs.

Each bundled spec is run once with `--task report` at its file's degree cap,
in its own interpreter, and the resulting report.json is copied unchanged to
tests/golden/<spec>.json.  tests/test_golden.py compares fresh runs with
these files byte for byte.  Re-record only when a report is meant to change,
and log every change.

Run from the repository root:  python3 scripts/record_golden.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "specs"
GOLDEN = ROOT / "tests" / "golden"


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryDirectory() as tmp:
        for spec in sorted(SPECS.glob("*.json")):
            out = Path(tmp) / spec.stem
            code = subprocess.run(
                [sys.executable, "-m", "hopfquiver.cli", "run", "--spec", str(spec),
                 "--task", "report", "--out", str(out), "--format", "json"],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode
            if code not in (0, 1):
                raise SystemExit(f"{spec.name}: hopfquiver exited {code}")
            shutil.copyfile(out / "report.json", GOLDEN / spec.name)
            print(f"{spec.name:45s} exit {code}")


if __name__ == "__main__":
    record()
