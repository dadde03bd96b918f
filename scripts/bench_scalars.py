#!/usr/bin/env python3
"""Time Q(zeta_m) scalar multiplication and inversion per field order m.

For each m in ORDERS the operands are fixed by SEED: `roots` are pairs
of powers zeta^k with 1 <= k < m (the values of the standard cyclic
cocycles; k = 0 would give 1, which the unit rows time) and
`rationals` pairs of random coordinate vectors with numerators in [-9, 9]
and denominators in [1, 6].  Each figure is the median, over REPEATS
timed runs of LOOPS loops, of the mean time of one `a * b` (or one
`a.inverse()`, timed over a tenth of the loops) in microseconds.  The unit
rows time `1 * x`, `x * 1` and `x / 1` for the `rationals` operands `x`.
Only the public API is used (`field_context`, `root_of_unity`, `scalar`,
`one`, `*`, `/`, `inverse`), so the script times any checkout's `hopfquiver`,
and records that checkout's git commit.

Run from the repository root:

    PYTHONPATH=src python3 scripts/bench_scalars.py [--label NAME] [--out FILE]

With `--out`, the result is stored under `layer.<label>` of FILE (a JSON
object, created if missing; other keys are kept); otherwise it is printed.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import subprocess
import time
from pathlib import Path

import hopfquiver
from hopfquiver import field_context

ORDERS = (3, 4, 5, 7, 8, 9, 11, 12)
PAIRS = 64
SEED = 1
LOOPS = 20
REPEATS = 5


def operands(m: int, kind: str, rng: random.Random) -> list:
    ctx = field_context(m)
    if kind == "roots":
        return [
            (ctx.root_of_unity(rng.randrange(1, m)), ctx.root_of_unity(rng.randrange(1, m)))
            for _ in range(PAIRS)
        ]

    def coords():
        return [f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}" for _ in range(ctx.degree)]

    pairs = []
    while len(pairs) < PAIRS:
        a, b = ctx.scalar(coords()), ctx.scalar(coords())
        if a and b:
            pairs.append((a, b))
    return pairs


def time_us(fn, pairs: list, loops: int, repeats: int) -> float:
    """Median over `repeats` of the mean microseconds per call of fn(a, b)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            for a, b in pairs:
                fn(a, b)
        samples.append((time.perf_counter() - start) / (loops * len(pairs)) * 1e6)
    return statistics.median(samples)


def git_commit(path: Path) -> dict:
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(path), *args], capture_output=True, text=True
        ).stdout.strip()

    return {
        "commit": git("rev-parse", "HEAD") or None,
        "dirty": bool(git("status", "--porcelain")),
    }


def run() -> dict:
    rng = random.Random(SEED)
    per_m = {}
    for m in ORDERS:
        row = {"degree": field_context(m).degree}
        for kind in ("roots", "rationals"):
            pairs = operands(m, kind, rng)
            row[f"mul_{kind}_us"] = time_us(lambda a, b: a * b, pairs, LOOPS, REPEATS)
            row[f"inverse_{kind}_us"] = time_us(
                lambda a, b: a.inverse(), pairs, LOOPS // 10, REPEATS
            )
        units = [(field_context(m).one(), x) for x, _ in pairs]
        row["mul_unit_left_us"] = time_us(lambda u, x: u * x, units, LOOPS, REPEATS)
        row["mul_unit_right_us"] = time_us(lambda u, x: x * u, units, LOOPS, REPEATS)
        row["div_unit_us"] = time_us(lambda u, x: x / u, units, LOOPS, REPEATS)
        per_m[str(m)] = row
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        **git_commit(Path(hopfquiver.__file__).resolve().parent),
        "seed": SEED,
        "loops": LOOPS,
        "repeats": REPEATS,
        "per_m": per_m,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    result = run()
    if args.out is None:
        print(json.dumps(result, indent=2))
        return
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("layer", {})[args.label] = result
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
