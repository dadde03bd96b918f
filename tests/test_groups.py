"""Groups, 3-cocycles, subgroups: construction errors with witnesses,
brute-force conjugacy oracles, and exhaustive cocycle verification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfquiver import (
    build_group,
    cocycle_from_table,
    cyclic_group,
    dihedral_group,
    field_context,
    small_groups,
    standard_cyclic_cocycle,
    subgroup_generated,
    symmetric_group,
    trivial_cocycle,
    verify_cocycle,
)
from hopfquiver import groups
from hopfquiver.errors import (
    NoIdentity,
    NoInverse,
    NotAssociative,
    RootNotInField,
    SpecError,
)
from hopfquiver.groups import (
    alternating_group,
    dicyclic_group,
    direct_product,
    quaternion_group,
)

from oracles import cocycle_report_by_scalars


def test_build_group_z2():
    g = build_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.identity == 0
    assert g.classes == ((0,), (1,))


def test_build_group_errors():
    with pytest.raises(NoInverse):
        build_group([[0, 1], [1, 1]])
    t = [[1, 0], [0, 0]]
    with pytest.raises(NotAssociative) as exc:
        build_group(t)
    a, b, c = exc.value.triple
    # the witness really is a broken triple
    assert t[t[a][b]][c] != t[a][t[b][c]]
    with pytest.raises(NoIdentity):
        # constant semigroup: associative but there is no identity
        build_group([[0, 0], [0, 0]])
    # identity is allowed anywhere, not only at index 0
    shifted = build_group([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    assert shifted.identity == 2


def brute_force_classes(mult):
    """Independent conjugacy oracle: orbits by direct table conjugation."""
    n = len(mult)
    inv = [next(b for b in range(n) if mult[a][b] == 0 and mult[b][a] == 0) for a in range(n)]
    seen, classes = set(), []
    for x in range(n):
        if x in seen:
            continue
        orbit = sorted({mult[mult[g][x]][inv[g]] for g in range(n)})
        classes.append(tuple(orbit))
        seen.update(orbit)
    return tuple(classes)


def test_s3_classes_against_oracle():
    g = symmetric_group(3)
    assert sorted(len(c) for c in g.classes) == [1, 2, 3]
    assert g.classes == brute_force_classes(g.mult)


def test_catalog_classes_match_oracle():
    for name, g in small_groups(12):
        assert g.classes == brute_force_classes(g.mult), name


def test_classes_conjugation_invariant_up_to_order_24():
    groups = [g for _, g in small_groups(12)] + [symmetric_group(4)]
    for g in groups:
        assert g.order <= 24
        for cls in g.classes:
            members = set(cls)
            for x in g.elements():
                assert {g.mul(g.mul(x, c), g.inv(x)) for c in cls} == members


def test_small_groups_catalog():
    names = dict(small_groups(12))
    assert len(names) == 24
    assert names["Q8"].order == 8
    assert names["A4"].order == 12
    assert names["Dic3"].order == 12
    assert len(names["S3"].classes) == 3
    # distinct class-size multisets distinguish a few non-isomorphic pairs
    assert sorted(len(c) for c in names["D4"].classes) != sorted(
        len(c) for c in names["Z8"].classes
    )


def test_direct_product_orders():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    assert len(g.classes) == 6  # abelian
    assert quaternion_group().order == 8
    assert dicyclic_group(3).order == 12
    assert alternating_group(4).order == 12
    assert dihedral_group(4).order == 8


# -- cocycles ----------------------------------------------------------------


def test_trivial_cocycle_valid_everywhere():
    for name, g in small_groups(8):
        ctx = field_context(1)
        assert verify_cocycle(g, trivial_cocycle(g, ctx)).ok, name


def brute_force_cocycle_check(group, values):
    """Independent transcription of the cocycle identity."""
    n = group.order
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    lhs = values[a][b][group.mul(c, d)] * values[group.mul(a, b)][c][d]
                    rhs = (
                        values[b][c][d]
                        * values[a][group.mul(b, c)][d]
                        * values[a][b][c]
                    )
                    if lhs != rhs:
                        return False
    return True


def test_z2_sign_cocycle_brute_force():
    ctx = field_context(2)
    g = cyclic_group(2)
    one, minus = ctx.one(), ctx.scalar(-1)
    values = [[[one, one], [one, one]], [[one, one], [one, minus]]]
    phi = cocycle_from_table(g, ctx, values)
    assert brute_force_cocycle_check(g, phi.values)
    assert verify_cocycle(g, phi).ok


def test_z2_broken_normalization_reported():
    ctx = field_context(2)
    g = cyclic_group(2)
    one, minus = ctx.one(), ctx.scalar(-1)
    values = [[[one, one], [one, one]], [[one, minus], [one, one]]]  # phi(g,e,g) = -1
    rep = verify_cocycle(g, cocycle_from_table(g, ctx, values))
    assert not rep.ok
    assert any(v.check == "normalization" for v in rep.violations)


def test_zero_cocycle_value_rejected():
    ctx = field_context(1)
    g = cyclic_group(2)
    values = [[["1", "1"], ["1", "1"]], [["1", "1"], ["1", "0"]]]
    with pytest.raises(SpecError, match=r"cocycle.values\[1\]\[1\]\[1\] is zero"):
        cocycle_from_table(g, ctx, values)


def test_standard_cyclic_cocycle_small_cases():
    # n = 1: trivial
    phi1 = standard_cyclic_cocycle(1, field_context(1).one())
    assert all(v.is_one() for plane in phi1.values for row in plane for v in row)
    # n = 2 with zeta = -1 reproduces the sign cocycle
    ctx = field_context(2)
    phi2 = standard_cyclic_cocycle(2, ctx.scalar(-1))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                expected = ctx.scalar(-1) if (a, b, c) == (1, 1, 1) else ctx.one()
                assert phi2(a, b, c) == expected


def test_standard_cyclic_cocycle_verified_n_1_to_8():
    for n in range(1, 9):
        ctx = field_context(n)
        phi = standard_cyclic_cocycle(n, ctx.zeta)
        assert verify_cocycle(phi.group, phi).ok, n


def test_standard_cyclic_cocycle_bad_root():
    ctx = field_context(4)
    with pytest.raises(RootNotInField):
        standard_cyclic_cocycle(3, ctx.zeta)  # i is not a cube root of 1


def test_pointwise_inverse_is_cocycle():
    ctx = field_context(4)
    phi = standard_cyclic_cocycle(4, ctx.zeta)
    inverse = [[[v.inverse() for v in row] for row in plane] for plane in phi.values]
    assert verify_cocycle(phi.group, cocycle_from_table(phi.group, ctx, inverse)).ok


def test_with_entry_mutation_detected():
    ctx = field_context(4)
    phi = standard_cyclic_cocycle(4, ctx.zeta)
    mutated = phi.with_entry(1, 2, 3, phi(1, 2, 3) * ctx.scalar(2))
    rep = verify_cocycle(phi.group, mutated)
    assert not rep.ok


def _same_report(phi):
    fast = verify_cocycle(phi.group, phi).to_json()
    assert fast == cocycle_report_by_scalars(phi.group, phi).to_json()
    return fast


def _times_coboundary(phi, rng):
    """phi times the coboundary of a seeded normalized 2-cochain f with
    rational values: a cocycle cohomologous to phi whose table holds nearly
    one value per entry."""
    g = phi.group
    ctx = phi.ctx
    n = g.order
    e = g.identity
    one = ctx.one()
    f = [
        [one if e in (x, y) else ctx.scalar(f"{rng.randint(1, 9)}/{rng.randint(1, 9)}")
         for y in range(n)]
        for x in range(n)
    ]
    m = g.mult
    table = [
        [
            [phi(a, b, c) * f[b][c] * f[a][m[b][c]] / (f[m[a][b]][c] * f[a][b]) for c in range(n)]
            for b in range(n)
        ]
        for a in range(n)
    ]
    return cocycle_from_table(g, ctx, table)


def test_cocycle_sweep_matches_scalar_oracle_on_cocycles():
    rng = random.Random(5)
    for n in range(2, 10):
        ctx = field_context(n)
        phi = standard_cyclic_cocycle(n, ctx.zeta)
        assert _same_report(phi)["ok"], n
        if n <= 7:
            assert _same_report(_times_coboundary(phi, rng))["ok"], n
    ctx = field_context(3)
    for name, g in small_groups(12):
        assert _same_report(trivial_cocycle(g, ctx))["ok"], name
        if g.order <= 8:
            assert _same_report(_times_coboundary(trivial_cocycle(g, ctx), rng))["ok"], name


def _mutants(phi, rng):
    """Seeded corruptions of one table: an entry doubled or halved, two
    entries of different values swapped, an entry moved to another root."""
    n = phi.group.order
    ctx = phi.ctx
    cells = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    for factor in (2, ctx.scalar("1/2")):
        cell = rng.choice(cells)
        yield phi.with_entry(*cell, phi(*cell) * factor)
    x, y = rng.sample(cells, 2)
    while phi(*x) == phi(*y):
        x, y = rng.sample(cells, 2)
    yield phi.with_entry(*x, phi(*y)).with_entry(*y, phi(*x))
    cell = rng.choice(cells)
    root = ctx.root_of_unity(rng.randrange(1, ctx.order))
    yield phi.with_entry(*cell, phi(*cell) * root)


def test_cocycle_sweep_matches_scalar_oracle_on_mutants():
    rng = random.Random(9)
    for n in range(2, 8):
        phi = standard_cyclic_cocycle(n, field_context(n).zeta)
        for table in (phi, _times_coboundary(phi, rng)):
            for _ in range(4):
                doubled, halved, _swapped, rooted = (
                    _same_report(mutant) for mutant in _mutants(table, rng)
                )
                # A factor f != 1 on one entry (a, b, c) with a, b, c != e
                # appears once, unpaired, in the quadruples (a, b, c, d) with
                # d != e, a: so it breaks the identity when n >= 3, and on Z_2
                # (only d = a = b = c, where it appears twice) when f^2 != 1.
                # An entry with a factor at e breaks normalization.
                assert not doubled["ok"] and not halved["ok"], n
                assert n == 2 or not rooted["ok"], n


def test_cocycle_sweep_takes_both_paths(monkeypatch):
    """A table with few values is swept on indices throughout, one times a
    generic coboundary by scalars, and a doubled Z_3 table switches once its
    products are interned; the oracle tests above cover all three."""
    calls = []
    for path in ("_identity_by_indices", "_identity_by_scalars"):
        inner = getattr(groups, path)
        monkeypatch.setattr(
            groups, path, lambda *args, path=path, inner=inner: calls.append(path) or inner(*args)
        )
    phi = standard_cyclic_cocycle(5, field_context(5).zeta)
    verify_cocycle(phi.group, phi)
    assert calls == ["_identity_by_indices"] * 5
    calls.clear()
    verify_cocycle(phi.group, _times_coboundary(phi, random.Random(1)))
    assert calls == ["_identity_by_scalars"] * 5
    calls.clear()
    phi = standard_cyclic_cocycle(3, field_context(3).zeta)
    verify_cocycle(phi.group, phi.with_entry(1, 1, 2, phi(1, 1, 2) * 2))
    assert calls == ["_identity_by_indices"] * 2 + ["_identity_by_scalars"]


# -- subgroups ---------------------------------------------------------------


def brute_force_closure(group, gens):
    elems = {group.identity}
    changed = True
    while changed:
        changed = False
        for x in list(elems):
            for y in list(elems) + list(gens):
                z = group.mul(x, y)
                if z not in elems:
                    elems.add(z)
                    changed = True
    return tuple(sorted(elems))


def test_subgroup_generated_examples():
    g4 = cyclic_group(4)
    sub, index = subgroup_generated(g4, [2])
    assert sub == (0, 2) and index == 2
    s3 = symmetric_group(3)
    transpositions = next(c for c in s3.classes if len(c) == 3)
    sub, index = subgroup_generated(s3, transpositions)
    assert index == 1 and len(sub) == 6
    sub, index = subgroup_generated(s3, [s3.identity])
    assert sub == (s3.identity,) and index == 6
    sub, index = subgroup_generated(s3, [])
    assert sub == (s3.identity,)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_subgroup_matches_brute_force(data):
    name, g = data.draw(st.sampled_from(small_groups(10)))
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    sub, index = subgroup_generated(g, gens)
    assert sub == brute_force_closure(g, gens)
    assert index * len(sub) == g.order


def test_class_union_subgroup_is_normal():
    for name, g in small_groups(12):
        for cls in g.classes:
            sub, _ = subgroup_generated(g, cls)
            members = set(sub)
            for x in g.elements():
                for h in sub:
                    assert g.mul(g.mul(x, h), g.inv(x)) in members, (name, x, h)
