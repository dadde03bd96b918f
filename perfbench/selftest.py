#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks, through the same command line the benchmark is run with:
  * every workload, untraced and traced, prints as its last line a result
    with every metric of BENCHMARK.json and its unit, and all verdicts hold;
  * a wrong recorded digest (in a copy of the benchmark and the program)
    makes the run count a failure, so the oracle is not vacuous;
  * in a directory holding only BENCHMARK.json and the benchmark's files, the
    command fails without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [*SPEC["command"], "--seed", "1", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def copy_bench(dest: Path) -> None:
    """Copy BENCHMARK.json and the benchmark's files, and nothing else."""
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("__pycache__"))


def main() -> int:
    errors = []
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            code, out = bench("--workload", workload, "--trace", trace, "--tiny")
            res = result_of(out)
            label = f"{workload} --trace {trace}"
            if code != 0 or set(res) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: exit {code}, last line {out.strip()[-200:]!r}")
                continue
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                errors.append(f"{label}: verdicts failed: {res}")
            for m in listed:
                got = res["metrics"].get(m["name"])
                if not got or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    errors.append(f"{label}: metric {m['name']} [{m['unit']}] missing or wrong: {got}")
            extra = set(res["metrics"]) - {m["name"] for m in listed}
            if extra:
                errors.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")

    # the oracle must catch a wrong digest: corrupt one recorded digest in a
    # copy of the benchmark next to a copy of the program, and run it there
    corrupt = WORK / "corrupt"
    copy_bench(corrupt)
    shutil.copytree(ROOT / "src", corrupt / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    expected_path = corrupt / "perfbench" / "expected.json"
    expected = json.loads(expected_path.read_text())
    tiny = expected["verdicts"]["deep_verify/tiny"]
    pid = sorted(tiny)[0]
    tiny[pid]["sha256"] = "0" * 64
    expected_path.write_text(json.dumps(expected))
    code, out = bench("--workload", "deep_verify", "--trace", "0", "--tiny", cwd=corrupt)
    res = result_of(out)
    if code != 0 or res.get("correct") is not False or not res.get("failed"):
        errors.append(f"wrong digest for {pid} went unnoticed: {res}")
    elif not any(line.startswith("# failed_frac") and not line.split()[2] == "0"
                 for line in out.splitlines()):
        errors.append("wrong digest did not make failed_frac > 0")

    bare = WORK / "bare"
    copy_bench(bare)
    code, out = bench("--workload", "deep_verify", "--trace", "0", cwd=bare)
    if code == 0 or out.strip():
        errors.append(f"bare directory: exit {code}, stdout {out.strip()[-200:]!r}")

    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
