"""Majid bimodule verification and the graded structure it builds:
multiplication, quasi-antipode, and the full axiom suite.

Worked data: Z_n Taft-type actions (trivial cocycle), the Z_2 structure with
the sign cocycle over Q(i), and the Z_4 two-block structure with the standard
cocycle over Q(zeta_8).
"""

import json

import pytest

import hopfquiver.problem
from hopfquiver import (
    Element,
    FieldContext,
    RamificationData,
    cyclic_group,
    field_context,
    hopf_quiver,
    standard_cyclic_cocycle,
    trivial_cocycle,
    verify_bimodule,
    verify_majid_axioms,
)
from hopfquiver.actions import cyclic_action_from_seeds, taft_action
from hopfquiver.cyclotomic import PRODUCT_MEMO_SIZE
from hopfquiver.errors import ActionNotDegree1, DegreeCapExceeded
from hopfquiver.majid import BimoduleAction, MajidStructure
from hopfquiver.pathcoalg import counit
from hopfquiver.structure import crossed_product, verify_translations

from conftest import (
    SPECS_DIR,
    make_flagship_structure,
    make_kronecker_structure,
    make_s3_loops_structure,
    make_taft_structure,
    make_z4_blocks_structure,
    structure_at,
)
from oracles import (
    antipode_laws_by_three_fold_splits,
    quasi_associativity_by_all_splits,
    vanishing_axioms_by_full_sweep,
)


# -- bimodule verification -----------------------------------------------------


def test_taft_bimodule_valid():
    for n in (2, 3, 4):
        S = make_taft_structure(n)
        rep = verify_bimodule(S.group, S.phi, S.action)
        assert rep.ok, (n, rep.violations[:5])


def test_identity_action_follows_from_tables():
    S = make_taft_structure(3)
    for a in S.quiver.arrows:
        m = S.arrow(a.index)
        assert S.multiply(S.vertex(S.group.identity), m) == m
        assert S.multiply(m, S.vertex(S.group.identity)) == m


def test_naive_action_fails_with_nontrivial_cocycle():
    """The untwisted Taft action is not a bimodule once Phi(g,g,g) = -1; the
    violated instances are exactly those missing the -1 ratio."""
    ctx = field_context(4)
    group = cyclic_group(2)
    phi = standard_cyclic_cocycle(2, ctx.scalar(-1))
    quiver = hopf_quiver(group, RamificationData.from_class_reps(group, [(1, 1)]))
    naive_left = {}
    naive_right = {}
    for a in quiver.arrows:
        other = quiver.arrow_path(1 - a.index)
        naive_left[(1, a.index)] = Element.of_path(ctx, other)
        naive_right[(a.index, 1)] = Element.of_path(ctx, other)
        naive_left[(0, a.index)] = Element.of_path(ctx, quiver.arrow_path(a.index))
        naive_right[(a.index, 0)] = Element.of_path(ctx, quiver.arrow_path(a.index))
    naive = BimoduleAction(ctx, quiver, naive_left, naive_right)
    rep = verify_bimodule(group, phi, naive)
    assert not rep.ok
    checks = {v.check for v in rep.violations}
    assert "bimodule_left_assoc" in checks or "bimodule_right_assoc" in checks


def test_corrected_action_solves_the_sign():
    S = make_flagship_structure()
    assert verify_bimodule(S.group, S.phi, S.action).ok


def test_seeds_that_cannot_close_are_rejected():
    ctx = field_context(4)
    group = cyclic_group(2)
    phi = standard_cyclic_cocycle(2, ctx.scalar(-1))
    quiver = hopf_quiver(group, RamificationData.from_class_reps(group, [(1, 1)]))
    with pytest.raises(ValueError):
        # with Phi(g,g,g) = -1 the left seeds must multiply to -1, not 1
        cyclic_action_from_seeds(quiver, phi, [ctx.one(), ctx.one()], [ctx.one(), ctx.one()])


def test_action_not_degree1_rejected():
    ctx = field_context(2)
    group = cyclic_group(2)
    quiver = hopf_quiver(group, RamificationData.from_class_reps(group, [(1, 1)]))
    vertex = Element.of_path(ctx, quiver.vertex_path(0))
    with pytest.raises(ActionNotDegree1):
        BimoduleAction(ctx, quiver, {(0, 0): vertex}, {})
    good = BimoduleAction(ctx, quiver, {(0, 0): Element.of_path(ctx, quiver.arrow_path(0))}, {})
    with pytest.raises(ActionNotDegree1):
        good.with_entry("right", (0, 0), vertex)


def test_reassociator_extension():
    """The extended reassociator restricts to Phi on vertex triples, kills
    anything of positive degree, and inverts pointwise on group-likes."""
    S = make_flagship_structure()
    g0, g1, a = S.vertex(0), S.vertex(1), S.arrow(0)
    assert S.reassociator(g1, g1, g1) == S.phi(1, 1, 1)
    assert S.reassociator(g0, g1, g0).is_one()
    assert S.reassociator(g1, a, g1).is_zero()
    assert S.reassociator(a, g1, g1).is_zero()
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                fwd = S.reassociator(S.vertex(x), S.vertex(y), S.vertex(z))
                inv = S.reassociator_inverse(S.vertex(x), S.vertex(y), S.vertex(z))
                assert (fwd * inv).is_one()
    # trilinearity
    both = S.reassociator(g1 + g0, g1, g1)
    assert both == S.phi(1, 1, 1) + S.phi(0, 1, 1)


def test_bicomodule_violation_reported():
    ctx = field_context(2)
    group = cyclic_group(2)
    quiver = hopf_quiver(group, RamificationData.from_class_reps(group, [(1, 1)]))
    phi = trivial_cocycle(group, ctx)
    action = taft_action(quiver, phi, ctx.scalar(-1))
    # redirect g.a_0 into the wrong isotypic component (a_0 instead of a_1)
    bad = action.with_entry("left", (1, 0), Element.of_path(ctx, quiver.arrow_path(0)))
    rep = verify_bimodule(group, phi, bad)
    assert any(v.check == "bicomodule_left" for v in rep.violations)


# -- multiplication -------------------------------------------------------------


def test_vertex_products_are_group_multiplication():
    S = make_taft_structure(4)
    g = S.group
    for x in g.elements():
        for y in g.elements():
            assert S.multiply(S.vertex(x), S.vertex(y)) == S.vertex(g.mul(x, y))


def test_unit_acts_trivially_on_arrows():
    S = make_taft_structure(3)
    for a in S.quiver.arrows:
        x = S.arrow(a.index)
        assert S.multiply(S.unit(), x) == x
        assert S.multiply(x, S.unit()) == x


def test_quantum_integer_coefficient():
    """a_0 a_0 = (1 + q) * (the length-2 path from vertex 0), so 0 at q = -1."""
    for n in (2, 3, 4):
        S = make_taft_structure(n)
        ctx = S.ctx
        q = ctx.root_of_unity(1)
        a0 = S.arrow(0)
        prod = S.multiply(a0, a0)
        path2 = S.quiver.path(0, [0, 1 % n if n > 1 else 0])
        expected = Element.of_path(ctx, path2, ctx.one() + q)
        assert prod == expected, n
    # and explicitly zero for the q = -1 case
    S2 = make_taft_structure(2)
    assert S2.multiply(S2.arrow(0), S2.arrow(0)).is_zero()


def test_multiplication_graded():
    S = make_flagship_structure()
    for p in S.basis_up_to():
        for q in S.basis_up_to():
            n = len(p.arrows) + len(q.arrows)
            if n > S.degree_cap:
                continue
            prod = S.multiply_paths(p, q)
            assert prod.is_homogeneous(n)


def test_degree_cap_enforced():
    S = make_taft_structure(2, cap=2)
    p = S.quiver.path(0, [0, 1])
    with pytest.raises(DegreeCapExceeded):
        S.multiply_paths(p, S.quiver.arrow_path(0))


# -- isotypic component identities ---------------------------------------------


def component_of(quiver, element):
    comps = {
        (quiver.arrow(p.arrows[0]).target, quiver.arrow(p.arrows[0]).source)
        for p in element.terms
    }
    assert len(comps) == 1
    return comps.pop()


def test_action_translates_isotypic_components():
    """f . (gMh) = (fg)M(fh) and (gMh) . f = (gf)M(hf), as sets with equal
    dimension (checked through the composition-scalar identity)."""
    for S in (make_flagship_structure(), make_z4_blocks_structure(True)):
        g = S.group
        for a in S.quiver.arrows:
            tgt, src = a.target, a.source
            for f in g.elements():
                lv = S.action.left_of(f, a.index)
                assert component_of(S.quiver, lv) == (g.mul(f, tgt), g.mul(f, src))
                rv = S.action.right_of(a.index, f)
                assert component_of(S.quiver, rv) == (g.mul(tgt, f), g.mul(src, f))
                # composition scalars: f^-1.(f.m) is the stated Phi-ratio times m
                m = S.arrow(a.index)
                finv = g.inv(f)
                ratio = S.phi(finv, f, tgt) / S.phi(finv, f, src)
                left = S.multiply(S.vertex(finv), S.multiply(S.vertex(f), m))
                assert left == m.scale(ratio)
                ratio_r = S.phi(src, f, finv) / S.phi(tgt, f, finv)
                right = S.multiply(S.multiply(m, S.vertex(f)), S.vertex(finv))
                assert right == m.scale(ratio_r)


# -- quasi-antipode --------------------------------------------------------------


def test_antipode_on_vertices():
    S = make_taft_structure(4)
    g = S.group
    for v in g.elements():
        assert S.antipode(S.vertex(v)) == S.vertex(g.inv(v))
        # S(g) g = g S(g) = 1
        assert S.multiply(S.antipode(S.vertex(v)), S.vertex(v)) == S.unit()
        assert S.multiply(S.vertex(v), S.antipode(S.vertex(v))) == S.unit()


def test_antipode_arrow_taft():
    """Trivial cocycle: S(a_0) = -q * a_1, which is a_1 at q = -1."""
    S = make_taft_structure(2)
    q = S.ctx.root_of_unity(1)  # -1
    expected = Element.of_path(S.ctx, S.quiver.arrow_path(1), -q)
    assert S.antipode(S.arrow(0)) == expected
    assert S.antipode(S.arrow(0)) == S.arrow(1).scale(S.ctx.one())


def test_antipode_component_bookkeeping():
    """S(a) lies in the component with target s(a)^-1 and source t(a)^-1."""
    for S in (make_taft_structure(3), make_flagship_structure()):
        g = S.group
        for a in S.quiver.arrows:
            img = S.antipode(S.arrow(a.index))
            assert component_of(S.quiver, img) == (g.inv(a.source), g.inv(a.target))


def test_antipode_graded():
    S = make_flagship_structure()
    for p in S.basis_up_to():
        img = S.antipode_path(p)
        assert img.is_homogeneous(len(p.arrows))


def test_alpha_beta_values():
    S = make_flagship_structure()
    g = S.group
    # alpha is the counit
    for v in g.elements():
        assert counit(S.vertex(v)).is_one()
        expected = S.phi(v, g.inv(v), v).inverse()
        assert S.beta(S.vertex(v)) == expected
        assert not (counit(S.vertex(v)) * S.beta(S.vertex(v))).is_zero()
    assert S.beta(S.vertex(1)) == S.ctx.scalar(-1)
    # alpha and beta vanish on positive-degree paths
    a = S.arrow(0)
    assert counit(a).is_zero() and S.beta(a).is_zero()


# -- the full axiom suite ---------------------------------------------------------


def test_axioms_taft():
    for n in (2, 3, 4):
        S = make_taft_structure(n)
        rep = verify_majid_axioms(S)
        assert rep.ok, (n, rep.violations[:5])


def test_axioms_pass_for_all_valid_data_up_to_order_6():
    """Structures built from verified cocycle + bimodule data always pass the
    axiom suite (the construction is exact, not approximate)."""
    from hopfquiver import verify_cocycle

    cases = [make_taft_structure(n, cap=4) for n in (2, 3, 4, 5, 6)]
    cases.append(make_flagship_structure(cap=4))
    for S in cases:
        assert verify_cocycle(S.group, S.phi).ok
        assert verify_bimodule(S.group, S.phi, S.action).ok
        assert verify_majid_axioms(S).ok, S.group.order


def test_axioms_flagship():
    S = make_flagship_structure()
    rep = verify_majid_axioms(S)
    assert rep.ok, rep.violations[:5]


def test_axioms_z4_blocks():
    for nontrivial in (False, True):
        S = make_z4_blocks_structure(nontrivial)
        rep = verify_majid_axioms(S)
        assert rep.ok, rep.violations[:5]


def test_axioms_nonabelian_loops():
    """S_3 one-loop-per-vertex with the translation action: exercises the
    construction over a noncommutative vertex group."""
    S = make_s3_loops_structure(cap=2)
    assert verify_bimodule(S.group, S.phi, S.action).ok
    rep = verify_majid_axioms(S)
    assert rep.ok, rep.violations[:5]
    # the loop at x times the loop at y is supported at the vertex xy
    g = S.group
    loop_of = {a.source: a.index for a in S.quiver.arrows}
    x, y = 1, 2
    prod = S.multiply(S.arrow(loop_of[x]), S.arrow(loop_of[y]))
    assert all(p.source == g.mul(x, y) for p in prod.terms)


def test_axioms_multiplicity_two_slot_mixing():
    """R_C = 2 with an action mixing the two slots: the general-matrix case
    flows through multiplication, antipode and the axiom suite."""
    S = make_kronecker_structure(cap=3)
    assert verify_bimodule(S.group, S.phi, S.action).ok
    # the left action really mixes slots
    mixed = S.action.left_of(1, 1)
    assert len(mixed.terms) == 2
    rep = verify_majid_axioms(S)
    assert rep.ok, rep.violations[:5]


def test_axioms_on_group_algebra_only():
    """R = 0 gives (kG, Phi) itself; every checker still runs and passes."""
    ctx = field_context(4)
    group = cyclic_group(4)
    phi = standard_cyclic_cocycle(4, ctx.zeta)
    quiver = hopf_quiver(group, RamificationData.from_dict({}))
    action = BimoduleAction(ctx, quiver, {}, {})
    S = MajidStructure(quiver, phi, action, 4)
    assert verify_bimodule(group, phi, action).ok
    rep = verify_majid_axioms(S)
    assert rep.ok, rep.violations[:5]
    assert sum(rep.counts.values()) > 0


@pytest.mark.parametrize("side, key, arrow, check", [
    ("left", (0, 0), 1, "multiplication_comultiplicative"),
    ("left", (0, 1), 0, "antipode_antimorphism"),
    ("right", (0, 0), 1, "translation_comultiplicative"),
])
def test_coalgebra_map_checks_fire_on_mutants(side, key, arrow, check):
    """Each coalgebra-map check fires on one single-entry mutant of the Z_2
    Taft action (trivial cocycle, Q(i), cap 3) that sends an arrow to the
    other arrow."""
    ctx = field_context(4)
    group = cyclic_group(2)
    quiver = hopf_quiver(group, RamificationData.from_class_reps(group, [(1, 1)]))
    phi = trivial_cocycle(group, ctx)
    action = taft_action(quiver, phi, ctx.scalar(-1))
    S = MajidStructure(quiver, phi, action, 3)
    assert verify_majid_axioms(S).ok and verify_translations(S).ok
    mutant = action.with_entry(side, key, Element.of_path(ctx, quiver.arrow_path(arrow)))
    T = MajidStructure(quiver, phi, mutant, 3)
    fired = verify_majid_axioms(T).violations + verify_translations(T).violations
    assert check in {v.check for v in fired}


def _reports_on(ctx, monkeypatch, name):
    """At cap 4, with the problem's scalars in `ctx`: the
    `verify_majid_axioms` JSON of the spec `name` and of its mutant with the
    first action entry doubled, which fails (2.1), and the JSON of the
    spec's crossed product."""
    monkeypatch.setattr(hopfquiver.problem, "field_context", lambda m: ctx)
    raw = json.loads((SPECS_DIR / f"{name}.json").read_text())
    raw["degree_cap"] = 4
    S = hopfquiver.problem.problem_from_dict(raw).structure()
    assert S.ctx is ctx
    side, key, value = S.action.entries()[0]
    mutant = S.action.with_entry(side, key, value.scale(ctx.scalar(2)))
    T = MajidStructure(S.quiver, S.phi, mutant, 4)
    reports = [verify_majid_axioms(X).to_json() for X in (S, T)]
    return reports + [crossed_product(S).to_json()], S


def test_kernels_fall_back_when_the_intern_table_is_full(monkeypatch):
    """On a context whose intern table is already full, the spec's scalars
    stay unkeyed and every product and sum goes the direct path; the
    reports of the valid structure, of a mutant that fails (2.1) and of the
    crossed product equal those on a context with room, byte for byte.  The
    second spec has two coset representatives and a nontrivial Theta."""
    for name, m in (("z2_two_slot_nontrivial_cocycle", 4), ("z4_two_blocks_standard_cocycle", 8)):
        full = FieldContext(m)
        k = 0
        while len(full._interned) < PRODUCT_MEMO_SIZE:
            full.intern(full.scalar(f"{k}/7919"))
            k += 1
        got, S = _reports_on(full, monkeypatch, name)
        want, _ = _reports_on(FieldContext(m), monkeypatch, name)
        assert json.dumps(got) == json.dumps(want), name
        assert got[0]["ok"] and not got[1]["ok"] and got[2]["iso_check"]["ok"]
        assert "quasi_associativity" in {v["check"] for v in got[1]["violations"]}
        assert len(full._interned) == PRODUCT_MEMO_SIZE
        assert any(
            c.key is None for x in S._mul_cache.values() for c in x.terms.values()
        )


def test_corrupted_action_detected_by_axioms():
    S = make_taft_structure(2)
    ctx = S.ctx
    # corrupt one entry: g.a_0 picks up a bogus factor 2
    bad_action = S.action.with_entry(
        "left", (1, 0), S.action.left_of(1, 0).scale(ctx.scalar(2))
    )
    rep_bim = verify_bimodule(S.group, S.phi, bad_action)
    if rep_bim.ok:
        bad = MajidStructure(S.quiver, S.phi, bad_action, S.degree_cap)
        rep = verify_majid_axioms(bad)
        assert not rep.ok
    else:
        assert not rep_bim.ok


def _random_elements(S, max_degree=2):
    from hypothesis import strategies as st

    basis = [p for p in S.basis_up_to(max_degree)]
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    term = st.tuples(st.sampled_from(basis), coeff)
    return st.lists(term, max_size=4).map(
        lambda entries: _combine(S, entries)
    )


def _combine(S, entries):
    x = Element.zero(S.ctx)
    for p, c in entries:
        x = x + Element.of_path(S.ctx, p, S.ctx.scalar(c))
    return x


def _assert_quasi_associativity_matches_oracle(S, cap):
    rep = verify_majid_axioms(S)
    got = [v.witness for v in rep.violations if v.check == "quasi_associativity"]
    witnesses, count = quasi_associativity_by_all_splits(S, cap)
    assert got == witnesses
    assert rep.counts["quasi_associativity"] == count > 0
    return got


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS_DIR.glob("*.json")))
def test_quasi_associativity_matches_all_splits_oracle(name):
    for cap in (3, 4):
        S = structure_at(SPECS_DIR / f"{name}.json", cap)
        assert _assert_quasi_associativity_matches_oracle(S, cap) == []


def test_quasi_associativity_matches_all_splits_oracle_on_doubled_entries():
    S = structure_at(SPECS_DIR / "z4_two_blocks_standard_cocycle.json", 3)
    two = S.ctx.scalar(2)
    flagged = 0
    for side, key, value in S.action.entries():
        T = MajidStructure(S.quiver, S.phi, S.action.with_entry(side, key, value.scale(two)), 3)
        flagged += bool(_assert_quasi_associativity_matches_oracle(T, 3))
    assert flagged > 0


_VANISHING_CHECKS = (
    "normalization_middle_unit",
    "antipode_functional_forward",
    "antipode_functional_inverse",
)


def _vanishing_part(rep):
    """The (2.4) and (2.6) violations, in report order, and their tallies."""
    return (
        [(v.check, v.witness) for v in rep.violations if v.check in _VANISHING_CHECKS],
        {name: rep.counts[name] for name in _VANISHING_CHECKS},
    )


def _assert_vanishing_axioms_match_oracle(S):
    got = _vanishing_part(verify_majid_axioms(S))
    assert got == _vanishing_part(vanishing_axioms_by_full_sweep(S))
    return got[0]


@pytest.mark.parametrize("cap", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS_DIR.glob("*.json")))
def test_vanishing_axioms_match_full_sweep_oracle(name, cap):
    S = structure_at(SPECS_DIR / f"{name}.json", cap)
    assert _assert_vanishing_axioms_match_oracle(S) == []


def test_vanishing_axioms_match_full_sweep_oracle_on_doubled_cocycle_entries():
    """Doubling each entry of the Z_2 sign cocycle in turn: the vertex-only
    (2.4) and (2.6) report what the full sweeps report, and between them the
    mutants fire (2.4) at every vertex pair and (2.6) at every vertex."""
    S = structure_at(SPECS_DIR / "z2_nontrivial_cocycle.json", 2)
    two = S.ctx.scalar(2)
    vertex = S.quiver.vertex_path
    fired = {}
    for a in range(2):
        for b in range(2):
            for c in range(2):
                phi = S.phi.with_entry(a, b, c, S.phi(a, b, c) * two)
                T = MajidStructure(S.quiver, phi, S.action, 2)
                fired[(a, b, c)] = _assert_vanishing_axioms_match_oracle(T)
    assert ("normalization_middle_unit", (vertex(1), vertex(1))) in fired[(1, 0, 1)]
    assert ("antipode_functional_inverse", (vertex(1),)) in fired[(1, 1, 1)]
    witnesses = {w for found in fired.values() for w in found}
    for u in range(2):
        assert ("antipode_functional_inverse", (vertex(u),)) in witnesses
        for v in range(2):
            assert ("normalization_middle_unit", (vertex(u), vertex(v))) in witnesses
    # beta(g) Phi(g, g^-1, g) = 1 by the definition of beta
    assert all(check != "antipode_functional_forward" for check, _ in witnesses)


def _assert_antipode_laws_match_oracle(S):
    """The (2.5) witnesses and tallies of `verify_majid_axioms` against the
    sum over every three-fold split; returns the alpha and beta witnesses."""
    rep = verify_majid_axioms(S)
    alpha, beta, count = antipode_laws_by_three_fold_splits(S)
    for check, witnesses in (("antipode_alpha_law", alpha), ("antipode_beta_law", beta)):
        assert [v.witness for v in rep.violations if v.check == check] == witnesses
        assert rep.counts[check] == count > 0
    return alpha, beta


@pytest.mark.parametrize("cap", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS_DIR.glob("*.json")))
def test_antipode_laws_match_three_fold_oracle(name, cap):
    S = structure_at(SPECS_DIR / f"{name}.json", cap)
    assert _assert_antipode_laws_match_oracle(S) == ([], [])


@pytest.mark.parametrize(
    "name", ["z4_two_blocks_standard_cocycle", "z2_nontrivial_cocycle", "z3_taft"]
)
def test_antipode_laws_match_three_fold_oracle_on_doubled_entries(name):
    """Doubling each action entry in turn: (2.5) over the splits of Delta
    reports what the sum over every three-fold split reports, and both laws
    fire on some mutant."""
    S = structure_at(SPECS_DIR / f"{name}.json", 3)
    two = S.ctx.scalar(2)
    alpha_fired = beta_fired = 0
    for side, key, value in S.action.entries():
        T = MajidStructure(S.quiver, S.phi, S.action.with_entry(side, key, value.scale(two)), 3)
        alpha, beta = _assert_antipode_laws_match_oracle(T)
        alpha_fired += len(alpha)
        beta_fired += len(beta)
    assert alpha_fired > 0 and beta_fired > 0


def test_multiplication_and_antipode_linear():
    from hypothesis import given, settings

    S = make_flagship_structure()
    elems = _random_elements(S)

    @settings(max_examples=30, deadline=None)
    @given(elems, elems, elems)
    def check(x, y, z):
        assert S.multiply(x + y, z) == S.multiply(x, z) + S.multiply(y, z)
        assert S.multiply(x, y + z) == S.multiply(x, y) + S.multiply(x, z)
        assert S.antipode(x + y) == S.antipode(x) + S.antipode(y)

    check()


def test_counit_multiplicative():
    S = make_flagship_structure()
    for p in S.basis_up_to(2):
        for q in S.basis_up_to(2):
            if len(p.arrows) + len(q.arrows) > S.degree_cap:
                continue
            prod = S.multiply_paths(p, q)
            assert counit(prod) == counit(
                Element.of_path(S.ctx, p)
            ) * counit(Element.of_path(S.ctx, q))
