#!/usr/bin/env python3
"""hopfquiver benchmark: time to verdict on generated problem files.

    python3 perfbench/run.py --workload deep_verify --seed 1 --seconds 40 --trace 0

Run from the repository root.  Every problem goes through the real front end,
`hopfquiver.cli.main(["run", "--spec", FILE, "--out", DIR])`, called in this
single process with no threads.  A run makes one full pass over the
workload's problems and keeps cycling through them while the next problem,
at its last time, ends within `--seconds`; after each problem it times that
problem's set-up (`load_problem` and `ProblemSpec.structure()`) on its own,
several times.  A problem's time is the mean of its runs and its set-up
time the median of its set-up samples.  The mean, not the median, because
on a shared host whose speed switches between two levels for minutes at a
time (1.6x apart on a 2-vCPU cloud VM) the median of a few runs jumps from
one level to the other, while the mean moves with the share of time spent
at each.

Every verdict is checked: the exit code against the expected one, the
`report.json` digest against `expected.json` (for problems that do not depend
on the seed, and for all problems at the default seed), and every repetition
of a problem against its first.

`--trace 1` runs one untraced pass, then traced passes (see tracer.py), and
reports per-layer metrics for one pass of the workload.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Lines before it give every metric with
its unit, `failed_frac`, the tail percentile and provenance; the same goes to
`.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"
SETUP_MIN_REPS = 3
SETUP_SLICE_S = 0.01
TAIL_BEYOND = 10


def _import_program():
    """Import the program from `src/`; exit 2 when it is not there."""
    if not (ROOT / "src" / "hopfquiver").is_dir():
        print(f"error: no hopfquiver sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        from hopfquiver import cli, problem  # noqa: F401
        import workloads
    except ImportError as exc:
        print(f"error: cannot import hopfquiver from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    return cli, problem, workloads


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs one workload's problems through the CLI and checks verdicts."""

    def __init__(self, cli, problem_mod, problems, expected: dict):
        self.cli = cli
        self.problem_mod = problem_mod
        self.problems = problems
        self.expected = expected  # pid -> {"exit", "sha256"}
        self.times: dict[str, list[float]] = {p.pid: [] for p in problems}
        self.setup_times: dict[str, list[float]] = {p.pid: [] for p in problems}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        spec_dir = WORK / "specs"
        spec_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = WORK / "out"
        self.report = self.out_dir / "report.json"
        self.paths = {}
        for i, p in enumerate(problems):
            path = spec_dir / f"{i:03d}.json"
            path.write_text(json.dumps(p.spec, sort_keys=True, indent=2) + "\n")
            self.paths[p.pid] = path

    def time_setup(self, p) -> None:
        """Parse and build the basis of one problem, as its own call, at
        least SETUP_MIN_REPS times and for at least SETUP_SLICE_S."""
        samples = self.setup_times[p.pid]
        gc.collect()
        start = time.perf_counter()
        reps = 0
        while reps < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_SLICE_S:
            t0 = time.perf_counter()
            self.problem_mod.load_problem(str(self.paths[p.pid])).structure()
            samples.append(time.perf_counter() - t0)
            reps += 1

    def run_one(self, p, tracer=None) -> float:
        argv = ["run", "--spec", str(self.paths[p.pid]), "--out", str(self.out_dir)]
        sink = io.StringIO()
        self.report.unlink(missing_ok=True)
        # every problem starts from the same collector state, as a fresh
        # `hopfquiver run` process would
        gc.collect()
        if tracer is not None:
            tracer.start_problem(p.pid)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_problem()
        self._check(p, code, sink.getvalue())
        return elapsed

    def _check(self, p, code: int, output: str):
        self.attempted += 1
        digest = sha256(self.report) if self.report.exists() else "no report.json"
        first = self.digests.setdefault(p.pid, digest)
        want = self.expected.get(p.pid, {})
        errors = []
        if code != p.expect_exit:
            errors.append(f"exit {code} != {p.expect_exit}: {output.strip()[-200:]}")
        if "exit" in want and code != want["exit"]:
            errors.append(f"exit {code} != recorded {want['exit']}")
        if "sha256" in want and digest != want["sha256"]:
            errors.append("report.json digest differs from the recorded one")
        if digest != first:
            errors.append("report.json differs between repetitions")
        if errors:
            self.failed += 1
            self.mismatches.append(f"{p.pid}: " + "; ".join(errors))

    def measure(self, seconds: float, tracer=None, setup: bool = False) -> None:
        """One full pass, then more problems while the next one, at its last
        time, ends before `seconds` have passed (so a slow problem does not
        overrun the window).  With `setup`, each problem run is followed by
        timing its set-up, so set-up samples spread over the whole run as
        problem times do."""
        deadline = time.perf_counter() + seconds
        first_pass = True
        while True:
            for p in self.problems:
                if not first_pass and time.perf_counter() + self.times[p.pid][-1] > deadline:
                    return
                self.times[p.pid].append(self.run_one(p, tracer))
                if setup:
                    self.time_setup(p)
            first_pass = False
            if seconds <= 0:
                return


def per_problem(times: dict[str, list[float]], stat=statistics.mean) -> list[float]:
    return [stat(ts) for ts in times.values() if ts]


def problem_quantile(times: dict[str, list[float]], q: float) -> float:
    """Quantile `q` of the time per problem over every run of the workload,
    each problem weighing 1 spread evenly over its runs, so that problems
    run once more in the last, partial pass do not count more."""
    runs = sorted((t, 1 / len(ts)) for ts in times.values() for t in ts)
    target = q * sum(w for _, w in runs)
    acc = 0.0
    for t, w in runs:
        acc += w
        if acc >= target:
            return t
    return runs[-1][0]


def tail(times: dict[str, list[float]]) -> tuple[float, float, int]:
    """(value, percentile, runs beyond): the highest percentile of the time
    per problem with about TAIL_BEYOND runs above it.  With fewer than
    10 * TAIL_BEYOND runs that percentile would lie below the 90th, so the
    tail is then the time of the slowest problem (percentile 100, none
    beyond)."""
    n = sum(map(len, times.values()))
    if n < 10 * TAIL_BEYOND:
        return max(per_problem(times)), 100.0, 0
    q = 1 - TAIL_BEYOND / n
    return problem_quantile(times, q), 100.0 * q, TAIL_BEYOND


def end_to_end(runner: Runner) -> dict:
    means = per_problem(runner.times)
    tail_s, tail_pct, beyond = tail(runner.times)
    return {
        "metrics": {
            "wall_s": (sum(means), "s"),
            "setup_s": (sum(per_problem(runner.setup_times, statistics.median)), "s"),
            "problems_per_s": (len(means) / sum(means), "1/s"),
            "problem_p50_s": (statistics.median(means), "s"),
            "problem_tail_s": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "extra": {
            "problem_tail_percentile": (tail_pct, "%"),
            "problem_tail_runs_beyond": (beyond, "count"),
            "problems": (len(means), "count"),
            "problem_runs": (sum(map(len, runner.times.values())), "count"),
            "setup_samples": (sum(map(len, runner.setup_times.values())), "count"),
        },
    }


def traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    from tracer import Tracer, layer_metrics

    start = time.perf_counter()
    runner.measure(0)
    untraced_wall = sum(per_problem(runner.times))
    runner.times = {pid: [] for pid in runner.times}
    tracer = Tracer()
    tracer.install()
    passes = 0
    try:
        # traced passes while the next one, at the last one's length, ends
        # within `seconds` of the start
        last = 0.0
        while passes == 0 or time.perf_counter() + last - start < seconds:
            t0 = time.perf_counter()
            runner.measure(0, tracer)
            last = time.perf_counter() - t0
            passes += 1
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    metrics = layer_metrics(tracer, passes)
    rejects = [tracer.readings_of(p.pid) for p in runner.problems
               if p.reject and tracer.readings_of(p.pid)]
    metrics["structure.readings_tried_reject_path"] = (
        statistics.mean(r / passes for r in rejects) if rejects else 0.0, "count")
    traced_wall = sum(per_problem(runner.times))
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")
    top = sorted(tracer.stats.items(), key=lambda kv: -kv[1][2])[:8]
    return {
        "metrics": metrics,
        "extra": {
            "traced_passes": (passes, "count"),
            "untraced_wall_s": (untraced_wall, "s"),
            "traced_wall_s": (traced_wall, "s"),
            **{f"self_s[{name}]": (st[2] / passes, "s") for name, st in top},
        },
    }


def provenance(args, workloads) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": workloads.DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def load_expected(workload: str, tiny: bool, seed: int, workloads) -> dict:
    """Recorded verdicts that apply to this run (pid -> exit, sha256)."""
    if not EXPECTED.exists():
        return {}
    data = json.loads(EXPECTED.read_text())
    key = workload + ("/tiny" if tiny else "")
    if workload in workloads.SEED_FREE or seed == data.get("seed"):
        return data.get("verdicts", {}).get(key, {})
    return {}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small problems, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, problem_mod, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    problems = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    expected = load_expected(args.workload, args.tiny, args.seed, workloads)
    runner = Runner(cli, problem_mod, problems, expected)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    (WORK / "results").mkdir(parents=True, exist_ok=True)

    if args.trace:
        result = traced(runner, args.seconds, WORK / "results" / f"spans-{tag}.jsonl")
    else:
        runner.measure(args.seconds, setup=True)
        result = end_to_end(runner)

    metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
    record = {
        "provenance": provenance(args, workloads),
        "metrics": metrics,
        "extra": {name: {"value": v, "unit": u} for name, (v, u) in result["extra"].items()},
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "mismatches": runner.mismatches,
        "problem_times_s": runner.times,
    }
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# provenance {json.dumps(record['provenance'], sort_keys=True)}")
    for name, (value, unit) in {**result["metrics"], **result["extra"]}.items():
        print(f"# {name:44s} {value:>16.6g} {unit}")
    print(f"# {'failed_frac':44s} {record['failed_frac']:>16.6g} ratio"
          f"  ({runner.failed} of {runner.attempted})")
    for line in runner.mismatches[:10]:
        print(f"# mismatch {line}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
