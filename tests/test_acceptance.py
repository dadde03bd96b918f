"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and bound is pinned here, nothing is deferred.
"""

import itertools
import json
import random
import subprocess
import sys
import time

from hopfquiver import (
    AbstractQuiver,
    Element,
    RamificationData,
    connected_components,
    cyclic_group,
    field_context,
    hopf_quiver,
    paths_up_to,
    recognize_hopf_quiver,
    small_groups,
    standard_cyclic_cocycle,
    subgroup_generated,
    symmetric_group,
    trivial_cocycle,
    verify_bimodule,
    verify_cocycle,
    verify_majid_axioms,
)
from hopfquiver.majid import MajidStructure
from hopfquiver.structure import (
    block_product_check,
    blocks,
    cocommutative_check,
    crossed_product,
    primitives,
    theta,
    verify_translations,
)

from conftest import (
    SPECS_DIR,
    make_flagship_structure,
    make_loop_structure,
    make_taft_structure,
    make_z4_blocks_structure,
)
from oracles import comultiply, iterated_splits


def announce(num, name):
    print(f"\nCRITERION {num} ({name}): PASS")


def reevaluate_cocycle_witness(group, values, violation):
    """Independent re-check that a reported witness really violates."""
    if violation.check == "normalization":
        a, b, c = violation.witness
        e = group.identity
        return (a == e or b == e or c == e) and not values[a][b][c].is_one()
    if violation.check == "cocycle_identity":
        a, b, c, d = violation.witness
        lhs = values[a][b][group.mul(c, d)] * values[group.mul(a, b)][c][d]
        rhs = (
            values[b][c][d]
            * values[a][group.mul(b, c)][d]
            * values[a][b][c]
        )
        return lhs != rhs
    return False


def test_criterion_1_cocycle_suite():
    rng = random.Random(20240811)
    # trivial cocycle accepted on every group of order <= 12
    ctx1 = field_context(1)
    tables = []
    for name, g in small_groups(12):
        phi = trivial_cocycle(g, ctx1)
        assert verify_cocycle(g, phi).ok, name
        tables.append((name, g, phi))
    # standard cyclic cocycles accepted for n = 2..8, each sweep under 1 s
    for n in range(2, 9):
        ctx = field_context(n)
        phi = standard_cyclic_cocycle(n, ctx.zeta)
        t0 = time.perf_counter()
        rep = verify_cocycle(phi.group, phi)
        elapsed = time.perf_counter() - t0
        assert rep.ok, n
        assert elapsed < 1.0, f"n={n} exhaustive check took {elapsed:.2f}s"
        tables.append((f"cyclic{n}", phi.group, phi))
    # 100 random single-entry mutations of each are rejected with a witness
    # that independently re-validates (entries are doubled, which can never
    # produce another valid normalized cocycle)
    for name, g, phi in tables:
        n = g.order
        two = phi.ctx.scalar(2)
        for _ in range(100):
            a, b, c = (rng.randrange(n) for _ in range(3))
            mutated = phi.with_entry(a, b, c, phi(a, b, c) * two)
            rep = verify_cocycle(g, mutated)
            assert not rep.ok, (name, a, b, c)
            assert all(
                reevaluate_cocycle_witness(g, mutated.values, v)
                for v in rep.violations
            ), (name, a, b, c)
    announce(1, "cocycle suite")


def test_criterion_2_path_coalgebra_suite():
    quivers = []
    for n in (2, 3, 4):
        g = cyclic_group(n)
        quivers.append(hopf_quiver(g, RamificationData.from_class_reps(g, [(1, 1)])))
    s3 = symmetric_group(3)
    cls = next(i for i, c in enumerate(s3.classes) if len(c) == 3)
    quivers.append(hopf_quiver(s3, RamificationData.from_dict({cls: 1})))

    ctx = field_context(1)
    t0 = time.perf_counter()
    for quiver in quivers:
        for degree_paths in paths_up_to(quiver, 5):
            for p in degree_paths:
                n = len(p.arrows)
                delta = comultiply(ctx, quiver, p)
                # term count: n+1 terms with coefficient 1
                assert len(delta) == n + 1
                assert all(c.is_one() for c in delta.values())
                # grading compatibility
                for l, r in delta:
                    assert len(l.arrows) + len(r.arrows) == n
                # counit laws
                eps_id = Element.zero(ctx)
                id_eps = Element.zero(ctx)
                for (l, r), c in delta.items():
                    if l.is_vertex():
                        eps_id = eps_id + Element.of_path(ctx, r, c)
                    if r.is_vertex():
                        id_eps = id_eps + Element.of_path(ctx, l, c)
                assert eps_id == Element.of_path(ctx, p)
                assert id_eps == Element.of_path(ctx, p)
                # coassociativity: leftmost vs rightmost iteration, and both
                # equal to the three-fold splits
                threefold = iterated_splits(quiver, p, 3)
                assert len(set(threefold)) == len(threefold)
                leftmost = {}
                rightmost = {}
                for (l, r), c in delta.items():
                    for (ll, lr), cc in comultiply(ctx, quiver, l).items():
                        key = (ll, lr, r)
                        leftmost[key] = leftmost.get(key, ctx.zero()) + c * cc
                    for (rl, rr), cc in comultiply(ctx, quiver, r).items():
                        key = (l, rl, rr)
                        rightmost[key] = rightmost.get(key, ctx.zero()) + c * cc
                assert leftmost == rightmost == {t: ctx.one() for t in threefold}
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"path coalgebra suite took {elapsed:.2f}s"
    announce(2, "path coalgebra suite")


def test_criterion_3_hopf_quiver_round_trip():
    rng = random.Random(31337)
    for name, g in small_groups(8):
        for _ in range(20):
            ram = RamificationData.from_dict(
                {i: rng.randint(0, 2) for i in range(len(g.classes))}
            )
            quiver = hopf_quiver(g, ram)
            result = recognize_hopf_quiver(AbstractQuiver.of(quiver), g)
            assert result.ok and result.ram == ram, (name, ram)
            comps = connected_components(quiver)
            _, index = subgroup_generated(g, ram.support_elements(g))
            assert len(comps.components) == index, (name, ram)
    announce(3, "hopf quiver round trip")


def test_criterion_4_bimodule_and_axioms_trivial_phi():
    for n in (2, 3, 4):
        S = make_taft_structure(n, cap=4)
        assert verify_bimodule(S.group, S.phi, S.action).ok, n
        rep = verify_majid_axioms(S)
        assert rep.ok, (n, rep.violations[:5])
        # a_0 a_0 = (1 + q) times the length-2 path out of the identity
        q = S.ctx.root_of_unity(1)
        prod = S.multiply(S.arrow(0), S.arrow(0))
        path2 = S.quiver.path(0, [0, 1 % n])
        assert prod == Element.of_path(S.ctx, path2, S.ctx.one() + q), n
        if n == 2:
            assert prod.is_zero()
    announce(4, "bimodule and axiom suite, trivial reassociator")


def test_criterion_5_nontrivial_reassociator_flagship():
    S = make_flagship_structure(cap=4)
    assert S.phi(1, 1, 1) == S.ctx.scalar(-1)
    assert verify_bimodule(S.group, S.phi, S.action).ok
    assert S.beta(S.vertex(1)) == S.ctx.scalar(-1)  # forced by 1/Phi(g,g^-1,g)
    t0 = time.perf_counter()
    rep = verify_majid_axioms(S)
    elapsed = time.perf_counter() - t0
    assert rep.ok, rep.violations[:5]
    # the antipode laws were genuinely exercised on the whole basis
    assert rep.counts["antipode_alpha_law"] == len(S.basis_up_to())
    assert rep.counts["antipode_beta_law"] == len(S.basis_up_to())
    assert rep.counts["antipode_functional_forward"] == len(S.basis_up_to())
    assert elapsed < 30.0, f"flagship verification took {elapsed:.2f}s"
    announce(5, "nontrivial reassociator flagship")


def _structure_rejects_flip(S, side=None, key=None, cocycle_entry=None):
    """Apply one sign flip and cascade the verifiers; True if some verifier
    reports a violation."""
    phi = S.phi
    action = S.action
    if cocycle_entry is not None:
        a, b, c = cocycle_entry
        phi = phi.with_entry(a, b, c, -phi(a, b, c))
    else:
        action = action.with_entry(side, key, _flip(action, side, key))
    if not verify_cocycle(S.group, phi).ok:
        return True
    if not verify_bimodule(S.group, phi, action).ok:
        return True
    mutated = MajidStructure(S.quiver, phi, action, S.degree_cap)
    return not verify_majid_axioms(mutated).ok


def _flip(action, side, key):
    value = action.left[key] if side == "left" else action.right[key]
    return value.scale(action.ctx.scalar(-1))


def test_criterion_6_mutation_sensitivity():
    structures = [make_taft_structure(n, cap=4) for n in (2, 3, 4)]
    structures.append(make_flagship_structure(cap=4))
    for S in structures:
        n = S.group.order
        for side, key, _ in S.action.entries():
            assert _structure_rejects_flip(S, side=side, key=key), (n, side, key)
        for a, b, c in itertools.product(range(n), repeat=3):
            assert _structure_rejects_flip(S, cocycle_entry=(a, b, c)), (n, a, b, c)
    announce(6, "mutation sensitivity")


def test_criterion_7_structure_suite():
    for nontrivial in (False, True):
        S = make_z4_blocks_structure(nontrivial, cap=3)
        dec = blocks(S)
        assert dec.normal_subgroup == (0, 2)
        assert len(dec.coset_reps) == 2
        assert verify_translations(S).ok
        assert block_product_check(S).ok
        cp = crossed_product(S)
        assert cp.iso_report.ok, cp.iso_report.violations[:5]
        if not nontrivial:
            for p, q in itertools.product(dec.blocks[dec.principal_rep], repeat=2):
                for u, v in itertools.product(dec.coset_reps, repeat=2):
                    assert theta(S, p, q, u, v).is_one()
    announce(7, "block, translation and crossed product suite")


def test_criterion_8_primitives_suite():
    for nloops in (1, 2):
        S = make_loop_structure(nloops, cap=3)
        lie = primitives(S)
        assert lie.report.ok, (nloops, lie.report.violations[:5])
        assert len(lie.loop_arrows) == nloops
        assert lie.report.counts["primitive"] == nloops
        assert lie.report.counts["primitive_associativity"] == nloops ** 3
        assert lie.report.counts["bracket_antisymmetry"] == nloops ** 2
        assert lie.report.counts["jacobi"] == nloops ** 3
    # every quiver with a non-loop arrow fails, witnessed by such an arrow
    non_loop_structures = [
        make_taft_structure(2, cap=3),
        make_taft_structure(3, cap=3),
        make_z4_blocks_structure(False, cap=3),
    ]
    for S in non_loop_structures:
        ok, witness = cocommutative_check(S)
        assert not ok
        assert witness is not None and len(witness.arrows) == 1
        arrow = S.quiver.arrow(witness.arrows[0])
        assert arrow.source != arrow.target
    announce(8, "primitives and cocommutativity suite")


def test_criterion_9_cli_determinism(tmp_path):
    spec = SPECS_DIR / "z2_nontrivial_cocycle.json"
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        result = subprocess.run(
            [
                sys.executable, "-m", "hopfquiver.cli", "run",
                "--spec", str(spec), "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(
            ((out / "report.json").read_bytes(), (out / "report.txt").read_bytes())
        )
    assert outputs[0][0] == outputs[1][0], "report.json differs between runs"
    assert outputs[0][1] == outputs[1][1], "report.txt differs between runs"
    report = json.loads(outputs[0][0])
    assert report["ok"] is True
    announce(9, "CLI determinism")
