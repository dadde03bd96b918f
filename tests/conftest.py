"""Shared fixtures: the worked structures exercised across the suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from hopfquiver import (
    Element,
    RamificationData,
    cyclic_group,
    field_context,
    hopf_quiver,
    standard_cyclic_cocycle,
    symmetric_group,
    trivial_cocycle,
)
from hopfquiver.actions import (
    cyclic_action_from_seeds,
    taft_action,
    translation_loop_action,
    trivial_loop_action,
)
from hopfquiver.majid import BimoduleAction, MajidStructure
from hopfquiver.problem import load_problem

SPECS_DIR = Path(__file__).resolve().parents[1] / "specs"


def structure_at(spec_path, cap: int) -> MajidStructure:
    """The structure of a problem file with its degree cap replaced."""
    return load_problem(spec_path).with_degree_cap(cap).structure()


def make_taft_structure(n: int, cap: int = 4, class_rep: int = 1, q_power: int = 1):
    """Z_n Taft-type structure: trivial cocycle, g.a_i = q a_{i+1}, a_i.g = a_{i+1}."""
    ctx = field_context(n if n > 1 else 1)
    group = cyclic_group(n)
    phi = trivial_cocycle(group, ctx)
    ram = RamificationData.from_class_reps(group, [(class_rep, 1)])
    quiver = hopf_quiver(group, ram)
    q = ctx.root_of_unity(q_power)
    action = taft_action(quiver, phi, q)
    return MajidStructure(quiver, phi, action, cap)


def make_flagship_structure(cap: int = 4):
    """Z_2 with the cocycle that is -1 on the generator triple, over Q(i)."""
    ctx = field_context(4)
    group = cyclic_group(2)
    phi = standard_cyclic_cocycle(2, ctx.scalar(-1))
    ram = RamificationData.from_class_reps(group, [(1, 1)])
    quiver = hopf_quiver(group, ram)
    action = cyclic_action_from_seeds(
        quiver, phi, [ctx.one(), ctx.scalar(-1)], [ctx.zeta, ctx.zeta]
    )
    return MajidStructure(quiver, phi, action, cap)


def make_z4_blocks_structure(nontrivial_phi: bool, cap: int = 3):
    """Z_4 ramified at g^2: two blocks; optionally the standard Z_4 cocycle."""
    group = cyclic_group(4)
    ram = RamificationData.from_class_reps(group, [(2, 1)])
    quiver = hopf_quiver(group, ram)
    if nontrivial_phi:
        ctx = field_context(8)
        z = ctx.zeta
        phi = standard_cyclic_cocycle(4, ctx.root_of_unity(2))
        action = cyclic_action_from_seeds(
            quiver, phi,
            [ctx.one(), ctx.one(), ctx.one(), ctx.scalar(-1)],
            [z, z, z ** 7, z ** 3],
        )
    else:
        ctx = field_context(4)
        phi = trivial_cocycle(group, ctx)
        action = taft_action(quiver, phi, ctx.zeta)
    return MajidStructure(quiver, phi, action, cap)


def make_loop_structure(nloops: int, cap: int = 3):
    ctx = field_context(1)
    group = cyclic_group(1)
    ram = RamificationData.from_class_reps(group, [(0, nloops)])
    quiver = hopf_quiver(group, ram)
    action = trivial_loop_action(quiver, ctx)
    return MajidStructure(quiver, trivial_cocycle(group, ctx), action, cap)


def make_s3_loops_structure(cap: int = 2):
    """Nonabelian example: S_3 with one loop per vertex, translation action."""
    ctx = field_context(1)
    group = symmetric_group(3)
    ram = RamificationData.from_class_reps(group, [(group.identity, 1)])
    quiver = hopf_quiver(group, ram)
    action = translation_loop_action(quiver, ctx)
    return MajidStructure(quiver, trivial_cocycle(group, ctx), action, cap)


def make_kronecker_structure(cap: int = 3):
    """Z_2 with two arrows each way (R = 2 on the generator class) and a
    left action that genuinely mixes the multiplicity slots: on each
    component it acts by the involutive matrix [[1, 1], [0, -1]]."""
    ctx = field_context(1)
    group = cyclic_group(2)
    ram = RamificationData.from_class_reps(group, [(1, 2)])
    quiver = hopf_quiver(group, ram)
    one = ctx.one()
    ap = quiver.arrow_path
    left = {
        (0, 0): Element(ctx, {ap(0): one}),
        (0, 1): Element(ctx, {ap(1): one}),
        (0, 2): Element(ctx, {ap(2): one}),
        (0, 3): Element(ctx, {ap(3): one}),
        (1, 0): Element(ctx, {ap(2): one}),
        (1, 1): Element(ctx, {ap(2): one, ap(3): -one}),
        (1, 2): Element(ctx, {ap(0): one}),
        (1, 3): Element(ctx, {ap(0): one, ap(1): -one}),
    }
    right = {
        (0, 0): Element(ctx, {ap(0): one}),
        (1, 0): Element(ctx, {ap(1): one}),
        (2, 0): Element(ctx, {ap(2): one}),
        (3, 0): Element(ctx, {ap(3): one}),
        (0, 1): Element(ctx, {ap(2): one}),
        (1, 1): Element(ctx, {ap(3): one}),
        (2, 1): Element(ctx, {ap(0): one}),
        (3, 1): Element(ctx, {ap(1): one}),
    }
    action = BimoduleAction(ctx, quiver, left, right)
    return MajidStructure(quiver, trivial_cocycle(group, ctx), action, cap)


@pytest.fixture
def z2_taft():
    return make_taft_structure(2)


@pytest.fixture
def flagship():
    return make_flagship_structure()


@pytest.fixture
def specs_dir():
    return SPECS_DIR
