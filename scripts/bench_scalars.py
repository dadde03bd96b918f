#!/usr/bin/env python3
"""Time Q(zeta_m) scalar multiplication and inversion per field order m,
and the 3-cocycle check per cyclic group order n.

For each m in ORDERS the operands are fixed by SEED: `roots` are pairs
of powers zeta^k with 1 <= k < m (the values of the standard cyclic
cocycles; k = 0 would give 1, which the unit rows time) and
`rationals` pairs of random coordinate vectors with numerators in [-9, 9]
and denominators in [1, 6].  Each figure is the minimum, over REPEATS
timed runs of LOOPS loops, of the mean time of one `a * b` (or one
`a.inverse()`, timed over a tenth of the loops) in microseconds: a shared
host switches speed for minutes at a time, and the minimum of many short
runs reads the fast phase where one median of a few reads whichever phase
it fell in.  The `add_*` rows time `a + b` the same way.  The `times_*` rows time the
memoized product `a.times(b)` on the same pairs, and the `plus_*` rows the
memoized sum `a.plus(b)`: `*_hit_us` in the same repeated loop, on the
operands interned once (`FieldContext.intern`, as the kernels hold their
structure constants), where all but the first call of a pair hit the memo,
and `*_miss_us` in LOOPS passes over the distinct pairs, each pass on
unkeyed copies in a fresh `FieldContext(m)`, so every call misses and
interns its operands and result.  The unit rows time `1 * x`, `x * 1` and
`x / 1` for the `rationals` operands `x`.  The reader rows time
`ctx.scalar(s)`, the parse of one problem-file coefficient, on PAIRS
strings fixed by SEED: `parse_int_us` on integers in [-99, 99] and
`parse_fraction_us` on "p/q" with q in [2, 9].
The cocycle rows time, for each n in COCYCLE_ORDERS, `verify_cocycle` on
the standard Z_n cocycle over Q(zeta_n), `cocycle_from_table` on the same
table written to JSON and read back, and `verify_cocycle` on the loaded
table; each figure is the minimum over COCYCLE_REPEATS runs, in seconds.
The many-valued rows, for each n in TWISTED_ORDERS, do the same for
`verify_cocycle` on the standard Z_n cocycle times the coboundary of a
normalized 2-cochain with rational values fixed by SEED, a table with
nearly one value per entry.  Each `*_peak_kb` figure is the tracemalloc
peak of one more call, in KiB, counting what the call allocates.
Only the public API is used (`FieldContext`, `field_context`,
`root_of_unity`, `scalar`, `one`, `+`, `*`, `times`, `/`, `inverse`,
`to_json`, `mul`, `identity`, `standard_cyclic_cocycle`,
`cocycle_from_table`, `verify_cocycle`, and `intern` and `plus` where the
checkout has them), so the script times any checkout's `hopfquiver` that
has `Scalar.times` (the `plus_*` rows only where it has `Scalar.plus`, the
hit rows on unkeyed operands where it has no `intern`), and records that
checkout's git commit.

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
import subprocess
import time
import tracemalloc
from pathlib import Path

import hopfquiver
from hopfquiver import (
    FieldContext,
    Scalar,
    cocycle_from_table,
    field_context,
    standard_cyclic_cocycle,
    verify_cocycle,
)

ORDERS = (3, 4, 5, 7, 8, 9, 11, 12)
PAIRS = 64
SEED = 1
LOOPS = 20
REPEATS = 20
COCYCLE_ORDERS = (7, 11, 13, 16, 20)
COCYCLE_REPEATS = 20
TWISTED_ORDERS = (11, 16, 20)


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
    """Minimum over `repeats` of the mean microseconds per call of fn(a, b)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            for a, b in pairs:
                fn(a, b)
        samples.append((time.perf_counter() - start) / (loops * len(pairs)) * 1e6)
    return min(samples)


def time_miss_us(m: int, pairs: list, method: str) -> float:
    """Minimum over REPEATS of the mean microseconds of one `a.times(b)` (or
    `a.plus(b)`, by `method`) that misses its memo: LOOPS passes over the
    distinct pairs, each pass on copies in a fresh FieldContext(m) made
    before its timer starts."""
    op = getattr(Scalar, method)
    distinct = list(dict.fromkeys(pairs))
    samples = []
    for _ in range(REPEATS):
        elapsed = 0.0
        for _ in range(LOOPS):
            ctx = FieldContext(m)
            fresh = [(ctx.scalar(a.to_json()), ctx.scalar(b.to_json())) for a, b in distinct]
            start = time.perf_counter()
            for a, b in fresh:
                op(a, b)
            elapsed += time.perf_counter() - start
        samples.append(elapsed / (LOOPS * len(fresh)) * 1e6)
    return min(samples)


def time_s(fn) -> float:
    """Minimum over COCYCLE_REPEATS of the seconds of one call fn()."""
    samples = []
    for _ in range(COCYCLE_REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


def peak_kb(fn) -> float:
    """The tracemalloc peak of one call fn(), in KiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def times_coboundary(phi, rng: random.Random):
    """phi times the coboundary of a normalized 2-cochain f, f(x, y) a random
    positive rational for x, y != e:
    (df)(a, b, c) = f(b, c) f(a, bc) / (f(ab, c) f(a, b))."""
    g = phi.group
    ctx = phi.ctx
    n = g.order
    e = g.identity
    f = [
        [ctx.one() if e in (x, y) else ctx.scalar(f"{rng.randint(1, 9)}/{rng.randint(1, 9)}")
         for y in range(n)]
        for x in range(n)
    ]
    table = [
        [
            [
                phi(a, b, c) * f[b][c] * f[a][g.mul(b, c)] / (f[g.mul(a, b)][c] * f[a][b])
                for c in range(n)
            ]
            for b in range(n)
        ]
        for a in range(n)
    ]
    return cocycle_from_table(g, ctx, table)


def cocycle_rows() -> dict:
    rows = {}
    for n in COCYCLE_ORDERS:
        ctx = field_context(n)
        phi = standard_cyclic_cocycle(n, ctx.zeta)
        text = json.dumps([[[v.to_json() for v in row] for row in plane] for plane in phi.values])
        table = json.loads(text)
        loaded = cocycle_from_table(phi.group, ctx, table)
        rows[str(n)] = {
            "verify_standard_s": time_s(lambda: verify_cocycle(phi.group, phi)),
            "load_table_s": time_s(lambda: cocycle_from_table(phi.group, ctx, table)),
            "verify_table_s": time_s(lambda: verify_cocycle(phi.group, loaded)),
            "verify_standard_peak_kb": peak_kb(lambda: verify_cocycle(phi.group, phi)),
        }
    return rows


def twisted_rows() -> dict:
    rng = random.Random(SEED)
    rows = {}
    for n in TWISTED_ORDERS:
        ctx = field_context(n)
        phi = times_coboundary(standard_cyclic_cocycle(n, ctx.zeta), rng)
        rows[str(n)] = {
            "distinct_values": len(
                {json.dumps(v.to_json()) for plane in phi.values for row in plane for v in row}
            ),
            "verify_twisted_s": time_s(lambda: verify_cocycle(phi.group, phi)),
            "verify_twisted_peak_kb": peak_kb(lambda: verify_cocycle(phi.group, phi)),
        }
    return rows


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
        ctx = field_context(m)
        intern = getattr(ctx, "intern", lambda x: x)
        row = {"degree": ctx.degree}
        for kind in ("roots", "rationals"):
            pairs = operands(m, kind, rng)
            keyed = [(intern(a), intern(b)) for a, b in pairs]
            row[f"mul_{kind}_us"] = time_us(lambda a, b: a * b, pairs, LOOPS, REPEATS)
            row[f"times_{kind}_hit_us"] = time_us(lambda a, b: a.times(b), keyed, LOOPS, REPEATS)
            row[f"times_{kind}_miss_us"] = time_miss_us(m, pairs, "times")
            row[f"add_{kind}_us"] = time_us(lambda a, b: a + b, pairs, LOOPS, REPEATS)
            if hasattr(Scalar, "plus"):
                row[f"plus_{kind}_hit_us"] = time_us(lambda a, b: a.plus(b), keyed, LOOPS, REPEATS)
                row[f"plus_{kind}_miss_us"] = time_miss_us(m, pairs, "plus")
            row[f"inverse_{kind}_us"] = time_us(
                lambda a, b: a.inverse(), pairs, LOOPS // 10, REPEATS
            )
        units = [(field_context(m).one(), x) for x, _ in pairs]
        row["mul_unit_left_us"] = time_us(lambda u, x: u * x, units, LOOPS, REPEATS)
        row["mul_unit_right_us"] = time_us(lambda u, x: x * u, units, LOOPS, REPEATS)
        row["div_unit_us"] = time_us(lambda u, x: x / u, units, LOOPS, REPEATS)
        for kind, text in (("int", lambda: str(rng.randint(-99, 99))),
                           ("fraction", lambda: f"{rng.randint(-99, 99)}/{rng.randint(2, 9)}")):
            strings = [(ctx, text()) for _ in range(PAIRS)]
            row[f"parse_{kind}_us"] = time_us(lambda c, v: c.scalar(v), strings, LOOPS, REPEATS)
        per_m[str(m)] = row
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        **git_commit(Path(hopfquiver.__file__).resolve().parent),
        "seed": SEED,
        "loops": LOOPS,
        "repeats": REPEATS,
        "per_m": per_m,
        "cocycle_repeats": COCYCLE_REPEATS,
        "cocycle_per_n": cocycle_rows(),
        "twisted_per_n": twisted_rows(),
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
