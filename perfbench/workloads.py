"""Seeded problem generators for the three benchmark workloads.

Every problem is a spec dict written out as JSON for `hopfquiver run`.  The
data is built with the library's own constructors (`groups`, `actions`), so
the generator and the program agree on the file format by construction.

The seed changes the data, never the cost profile: each workload has a fixed
list of (family, size, degree cap) slots, and the seed picks roots of unity,
diagonal basis changes of the arrow space, which problems carry a doubled
action or cocycle entry, and the order.  A diagonal basis change a_i -> c_i a_i
maps a Majid bimodule to an isomorphic one, so valid data stays valid.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

from hopfquiver.actions import (
    cyclic_action_from_seeds,
    translation_loop_action,
    trivial_loop_action,
)
from hopfquiver.groups import (
    RamificationData,
    cyclic_group,
    standard_cyclic_cocycle,
    symmetric_group,
    trivial_cocycle,
)
from hopfquiver.cyclotomic import field_context
from hopfquiver.quiver import hopf_quiver

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Problem:
    """One `hopfquiver run` invocation.

    `expect_exit` is 0 for valid data and 1 for data with a doubled entry
    (the reject path).
    """

    pid: str
    spec: dict
    expect_exit: int

    @property
    def reject(self) -> bool:
        return self.expect_exit == 1


def _spec(ctx, group, cocycle: dict, ram: list, action, cap: int, tasks) -> dict:
    return {
        "schema": 1,
        "field_order": ctx.order,
        "group": {"mult": [list(r) for r in group.mult]},
        "cocycle": cocycle,
        "ramification": [{"class_rep": c, "mult": m} for c, m in ram],
        "action": action.to_json() if action is not None else {"left": [], "right": []},
        "degree_cap": cap,
        "tasks": list(tasks),
    }


def _unit(rng: random.Random, ctx):
    """A random root of unity of Q(zeta_m), sign included."""
    z = ctx.root_of_unity(rng.randrange(ctx.order))
    return z if rng.random() < 0.5 else -z


def _rescaled(rng, ctx, left, right):
    """Seeds of the bimodule after the basis change a_i -> c_i a_i."""
    n = len(left)
    c = [_unit(rng, ctx) for _ in range(n)]
    ratio = [c[i] / c[(i + 1) % n] for i in range(n)]
    return [x * r for x, r in zip(left, ratio)], [y * r for y, r in zip(right, ratio)]


def _cyclic(n: int, m: int, class_rep: int):
    ctx = field_context(m)
    group = cyclic_group(n)
    ram = [(class_rep, 1)]
    quiver = hopf_quiver(group, RamificationData.from_class_reps(group, ram))
    return ctx, group, ram, quiver


def taft(rng, n: int, cap: int, class_rep: int = 1) -> dict:
    """Taft-type data on Z_n, trivial cocycle, q = zeta_n^k with k a unit."""
    ctx, group, ram, quiver = _cyclic(n, n, class_rep)
    phi = trivial_cocycle(group, ctx)
    q = ctx.root_of_unity(rng.choice([k for k in range(1, n) if gcd(k, n) == 1]))
    left, right = _rescaled(rng, ctx, [q] * n, [ctx.one()] * n)
    action = cyclic_action_from_seeds(quiver, phi, left, right)
    return _spec(ctx, group, {"kind": "trivial"}, ram, action, cap, ["report"])


def z2_twisted(rng, cap: int) -> dict:
    """Z_2 with the cocycle Phi(g,g,g) = -1 over Q(i) (the smallest
    genuinely quasi-Hopf example)."""
    ctx, group, ram, quiver = _cyclic(2, 4, 1)
    phi = standard_cyclic_cocycle(2, ctx.scalar(-1))
    left, right = _rescaled(rng, ctx, [ctx.one(), ctx.scalar(-1)], [ctx.zeta, ctx.zeta])
    action = cyclic_action_from_seeds(quiver, phi, left, right)
    cocycle = {"kind": "cyclic_standard", "n": 2, "zeta_power": 1}
    return _spec(ctx, group, cocycle, ram, action, cap, ["report"])


def z4_two_blocks_standard(rng, cap: int) -> dict:
    """Z_4 ramified at g^2 (two blocks) with the standard cocycle over
    Q(zeta_8)."""
    ctx, group, ram, quiver = _cyclic(4, 8, 2)
    phi = standard_cyclic_cocycle(4, ctx.root_of_unity(2))
    z = ctx.zeta
    one = ctx.one()
    left, right = _rescaled(rng, ctx, [one, one, one, -one], [z, z, z ** 7, z ** 3])
    action = cyclic_action_from_seeds(quiver, phi, left, right)
    cocycle = {"kind": "cyclic_standard", "n": 4, "zeta_power": 1}
    return _spec(ctx, group, cocycle, ram, action, cap, ["report"])


def one_vertex_loops(rng, loops: int, cap: int) -> dict:
    ctx = field_context(1)
    group = cyclic_group(1)
    ram = [(0, loops)]
    quiver = hopf_quiver(group, RamificationData.from_class_reps(group, ram))
    action = trivial_loop_action(quiver, ctx)
    return _spec(ctx, group, {"kind": "trivial"}, ram, action, cap, ["report"])


def s3_loops(rng, cap: int) -> dict:
    ctx = field_context(1)
    group = symmetric_group(3)
    ram = [(group.identity, 1)]
    quiver = hopf_quiver(group, RamificationData.from_class_reps(group, ram))
    action = translation_loop_action(quiver, ctx)
    return _spec(ctx, group, {"kind": "trivial"}, ram, action, cap, ["report"])


def double_action_entry(rng, spec: dict) -> dict:
    """Copy of `spec` with the coefficients of one action entry doubled."""
    ctx = field_context(spec["field_order"])
    out = json.loads(json.dumps(spec))
    side = rng.choice([s for s in ("left", "right") if out["action"][s]])
    entry = rng.choice(out["action"][side])
    for term in entry["value"]:
        term["coeff"] = (ctx.scalar(term["coeff"]) * 2).to_json()
    return out


def double_cocycle_entry(rng, phi) -> list:
    """JSON table of a Z_n cocycle with one entry doubled.

    Only entries that are not 1 are candidates: `verify_cocycle` skips the
    quadruples whose five entries are all 1, and doubling a 1 would change
    how many it skips, so the seed would change the cost, not only the data.
    """
    values = phi.values
    n = len(values)
    cells = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)
             if not values[a][b][c].is_one()]
    a, b, c = rng.choice(cells)
    out = [[[v.to_json() for v in row] for row in plane] for plane in values]
    out[a][b][c] = (values[a][b][c] * 2).to_json()
    return out


# -- workloads ---------------------------------------------------------------

# (frozen spec, degree cap): the bundled `z4_two_blocks_standard_cocycle` and
# `one_vertex_2_loop` examples with the cap and the `report` task written in,
# kept under perfbench/specs so that the workload changes only with the
# benchmark.  The pair varies field degree (phi(8) = 4 vs 1) and arrows per
# vertex (1 vs 2).
SPECS_DIR = Path(__file__).resolve().parent / "specs"
DEEP_VERIFY = (
    ("z4_two_blocks_standard_cocycle", 6),
    ("one_vertex_2_loop", 5),
)
TINY_CAP = 3

# many_small slots: (family, constructor, degree caps).  Every slot yields four
# problems of which exactly one has a doubled action entry, so the reject
# share is a quarter on every seed.  The primitives task of `report` needs
# degree 3, hence the higher caps on one-vertex quivers.
_SMALL_SLOTS = (
    ("taft_z2", lambda rng, cap: taft(rng, 2, cap), (2, 3, 4)),
    ("taft_z3", lambda rng, cap: taft(rng, 3, cap), (2, 3)),
    ("taft_z4", lambda rng, cap: taft(rng, 4, cap), (2,)),
    ("taft_z5", lambda rng, cap: taft(rng, 5, cap), (2,)),
    ("taft_z6", lambda rng, cap: taft(rng, 6, cap), (2,)),
    ("z2_twisted", z2_twisted, (2, 3, 4)),
    ("z4_two_blocks_trivial", lambda rng, cap: taft(rng, 4, cap, class_rep=2), (2,)),
    ("z4_two_blocks_standard", z4_two_blocks_standard, (2,)),
    ("s3_loops", s3_loops, (2,)),
    ("one_vertex_1_loop", lambda rng, cap: one_vertex_loops(rng, 1, cap), (3, 4)),
    ("one_vertex_2_loop", lambda rng, cap: one_vertex_loops(rng, 2, cap), (3,)),
    ("one_vertex_3_loop", lambda rng, cap: one_vertex_loops(rng, 3, cap), (3,)),
)
SMALL_COPIES = 4

# cocycle_sweep: verify-only Z_n cocycles over Q(zeta_n), no arrows.  The
# cocycles use zeta_n itself: the cost of a Q(zeta_n) product depends on how
# many coordinates of its factors are nonzero, which other powers change, so
# the seed only picks the doubled table entries and the order.  n = 13 (6 s
# alone) and n = 12 are left out so that a pass takes about 5 s and every
# problem is run several times in one measured window.
SWEEP_STANDARD_N = (7, 9, 11)
SWEEP_TABLE_N = (8, 9, 10, 12)


def deep_verify(seed: int, tiny: bool = False) -> list[Problem]:
    out = []
    for name, cap in DEEP_VERIFY:
        spec = json.loads((SPECS_DIR / f"{name}_cap{cap}.json").read_text())
        if tiny:
            spec["degree_cap"] = TINY_CAP
        out.append(Problem(f"{name}@{spec['degree_cap']}", spec, 0))
    random.Random(seed).shuffle(out)
    return out


def many_small(seed: int, tiny: bool = False) -> list[Problem]:
    rng = random.Random(seed)
    copies = 2 if tiny else SMALL_COPIES
    out = []
    for family, build, caps in _SMALL_SLOTS:
        for cap in caps[:1] if tiny else caps:
            doubled = rng.randrange(copies)
            for i in range(copies):
                spec = build(rng, cap)
                if i == doubled:
                    spec = double_action_entry(rng, spec)
                pid = f"{family}@{cap}#{i}" + ("-doubled" if i == doubled else "")
                out.append(Problem(pid, spec, 1 if i == doubled else 0))
    rng.shuffle(out)
    return out


def _sweep_standard(n: int) -> dict:
    ctx = field_context(n)
    cocycle = {"kind": "cyclic_standard", "n": n, "zeta_power": 1}
    return _spec(ctx, cyclic_group(n), cocycle, [], None, 1, ["verify"])


def _sweep_table(rng, n: int) -> dict:
    ctx = field_context(n)
    phi = standard_cyclic_cocycle(n, ctx.zeta)
    cocycle = {"kind": "table", "values": double_cocycle_entry(rng, phi)}
    return _spec(ctx, phi.group, cocycle, [], None, 1, ["verify"])


def cocycle_sweep(seed: int, tiny: bool = False) -> list[Problem]:
    rng = random.Random(seed)
    standard = (4, 5) if tiny else SWEEP_STANDARD_N
    table = (3,) if tiny else SWEEP_TABLE_N
    out = [Problem(f"cyclic_standard_z{n}", _sweep_standard(n), 0) for n in standard]
    out += [Problem(f"table_z{n}-doubled", _sweep_table(rng, n), 1) for n in table]
    rng.shuffle(out)
    return out


# workloads whose problems do not depend on the seed (it only orders them),
# so their recorded digests hold at every seed
SEED_FREE = ("deep_verify",)

WORKLOADS = {
    "deep_verify": deep_verify,
    "many_small": many_small,
    "cocycle_sweep": cocycle_sweep,
}
