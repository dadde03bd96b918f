#!/usr/bin/env python3
"""Record the oracle: exit code and report.json sha256 of every problem of
every workload at the default seed, full and tiny size, into expected.json.

    python3 perfbench/record_expected.py

Run it only on a commit whose reports are known to be right, and commit the
result with the change that justifies new digests.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    cli, problem_mod, workloads = run._import_program()
    seed = workloads.DEFAULT_SEED
    verdicts = {}
    for name, build in workloads.WORKLOADS.items():
        for tiny in (False, True):
            runner = run.Runner(cli, problem_mod, build(seed, tiny=tiny), {})
            runner.measure(0)
            if runner.failed:
                print("\n".join(runner.mismatches), file=sys.stderr)
                return 1
            verdicts[name + ("/tiny" if tiny else "")] = {
                p.pid: {"exit": p.expect_exit, "sha256": runner.digests[p.pid]}
                for p in runner.problems
            }
            print(f"{name}{' (tiny)' if tiny else ''}: {len(runner.problems)} problems")
    out = {"seed": seed, "git_commit": run.git_commit(), "verdicts": verdicts}
    run.EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
