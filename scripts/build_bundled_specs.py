#!/usr/bin/env python3
"""Regenerate the bundled problem files in specs/ from the worked examples.

Run from the repository root:  python3 scripts/build_bundled_specs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hopfquiver import (  # noqa: E402
    BimoduleAction,
    Element,
    RamificationData,
    cyclic_group,
    field_context,
    hopf_quiver,
    standard_cyclic_cocycle,
    symmetric_group,
    trivial_cocycle,
)
from hopfquiver.actions import (  # noqa: E402
    cyclic_action_from_seeds,
    taft_action,
    translation_loop_action,
    trivial_loop_action,
)

OUT = Path(__file__).resolve().parents[1] / "specs"

TRIVIAL = {"kind": "trivial"}
BLOCK_TASKS = ["verify", "decompose", "crossed_product"]


def write_spec(name: str, action, cocycle: dict, cap: int, tasks: list[str]):
    """Write specs/<name>: the problem on `action`'s quiver and field."""
    quiver = action.quiver
    payload = {
        "schema": 1,
        "field_order": action.ctx.order,
        "group": {"mult": [list(r) for r in quiver.group.mult]},
        "cocycle": cocycle,
        "ramification": quiver.ram.to_json(quiver.group),
        "action": action.to_json(),
        "degree_cap": cap,
        "tasks": tasks,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path}")


def quiver(group, class_rep: int, mult: int = 1):
    return hopf_quiver(group, RamificationData.from_class_reps(group, [(class_rep, mult)]))


def taft(n: int, class_rep: int = 1):
    """Z_n Taft-type data over Q(zeta_n): trivial cocycle, q = zeta_n."""
    ctx = field_context(n)
    group = cyclic_group(n)
    return taft_action(quiver(group, class_rep), trivial_cocycle(group, ctx), ctx.root_of_unity(1))


def two_slot(action, doubled):
    """The direct sum of two copies of `action`, a one-slot action: the same
    tables on `doubled`, its quiver with multiplicity 2, with every entry
    repeated on slot 1.  A direct sum of Majid bimodules is one."""
    single = action.quiver
    index = {(a.source, a.class_elt, a.slot): a.index for a in doubled.arrows}

    def arrow_in(slot, idx):
        a = single.arrow(idx)
        return index[(a.source, a.class_elt, slot)]

    def value_in(slot, v):
        return Element(action.ctx, {
            doubled.arrow_path(arrow_in(slot, p.arrows[0])): c for p, c in v.terms.items()
        })

    left, right = {}, {}
    for slot in (0, 1):
        for (g, a), v in action.left.items():
            left[(g, arrow_in(slot, a))] = value_in(slot, v)
        for (a, g), v in action.right.items():
            right[(arrow_in(slot, a), g)] = value_in(slot, v)
    return BimoduleAction(action.ctx, doubled, left, right)


def main():
    for n in (2, 3, 4):
        write_spec(f"z{n}_taft.json", taft(n), TRIVIAL, 4, ["verify"])

    # Z_2 with the nontrivial cocycle (value -1 on the triple of the
    # generator) and the sign-corrected action over Q(i)
    ctx = field_context(4)
    group = cyclic_group(2)
    phi = standard_cyclic_cocycle(2, ctx.scalar(-1))
    action = cyclic_action_from_seeds(
        quiver(group, 1), phi, [ctx.one(), ctx.scalar(-1)], [ctx.zeta, ctx.zeta]
    )
    cocycle = {"kind": "cyclic_standard", "n": 2, "zeta_power": 1}
    write_spec("z2_nontrivial_cocycle.json", action, cocycle, 4, ["verify"])

    # the same data on two arrows per vertex: two copies of that bimodule
    write_spec(
        "z2_two_slot_nontrivial_cocycle.json",
        two_slot(action, quiver(group, 1, 2)), cocycle, 4, BLOCK_TASKS,
    )

    # Z_4 ramified at g^2 (two blocks), trivial cocycle, q = i
    write_spec("z4_two_blocks_trivial.json", taft(4, class_rep=2), TRIVIAL, 3, BLOCK_TASKS)

    # Z_4 ramified at g^2 with the standard cocycle; the action seeds need a
    # primitive 8th root of unity
    ctx8 = field_context(8)
    group4 = cyclic_group(4)
    phi4 = standard_cyclic_cocycle(4, ctx8.root_of_unity(2))
    z = ctx8.zeta
    action4 = cyclic_action_from_seeds(
        quiver(group4, 2),
        phi4,
        [ctx8.one(), ctx8.one(), ctx8.one(), ctx8.scalar(-1)],
        [z, z, z ** 7, z ** 3],
    )
    cocycle4 = {"kind": "cyclic_standard", "n": 4, "zeta_power": 1}
    write_spec("z4_two_blocks_standard_cocycle.json", action4, cocycle4, 3, BLOCK_TASKS)

    # nonabelian example: S_3 with one loop per vertex, translation action
    s3 = symmetric_group(3)
    action_s3 = translation_loop_action(quiver(s3, s3.identity), field_context(1))
    write_spec("s3_loops.json", action_s3, TRIVIAL, 2, BLOCK_TASKS)

    # one-vertex quivers with one and two loops
    for nloops in (1, 2):
        act1 = trivial_loop_action(quiver(cyclic_group(1), 0, nloops), field_context(1))
        write_spec(f"one_vertex_{nloops}_loop.json", act1, TRIVIAL, 3, ["verify", "primitives"])


if __name__ == "__main__":
    main()
