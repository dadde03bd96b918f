"""Block decomposition, translation maps, crossed product, primitives.

theta is double-checked against a second, independently written transcription
of the eight-factor formula, and the crossed-product transport check must
reject the misread Theta of `oracles.theta_third_unswapped`.
"""

import itertools
from collections import Counter

import pytest

from hopfquiver import (
    Element,
    RamificationData,
    cyclic_group,
    field_context,
    hopf_quiver,
    trivial_cocycle,
)
from hopfquiver import structure
from hopfquiver.errors import IsoCheckFailed, NotSingleVertex
from hopfquiver.majid import MajidStructure
from hopfquiver.problem import load_problem
from hopfquiver.structure import (
    _conjugate,
    _transport_rhs,
    block_product_check,
    blocks,
    cocommutative_check,
    crossed_product,
    matrix_rank,
    primitives,
    theta,
    translate,
    verify_translations,
)

from conftest import (
    SPECS_DIR,
    make_loop_structure,
    make_s3_loops_structure,
    make_taft_structure,
    make_z4_blocks_structure,
)
from oracles import comultiply, theta_third_unswapped


# -- exact linear algebra -------------------------------------------------------


def test_matrix_rank():
    ctx = field_context(4)
    one, zero, i = ctx.one(), ctx.zero(), ctx.zeta
    assert matrix_rank([]) == 0
    assert matrix_rank([[one, i], [i, -one]]) == 1  # second row = i * first
    assert matrix_rank([[one, zero], [zero, one]]) == 2
    assert matrix_rank([[zero, one], [zero, i]]) == 1


# -- blocks ----------------------------------------------------------------------


def test_blocks_connected_single():
    S = make_taft_structure(3, cap=2)
    dec = blocks(S)
    assert len(dec.coset_reps) == 1
    assert dec.normal_subgroup == (0, 1, 2)


def test_blocks_z4_two_cosets():
    S = make_z4_blocks_structure(False)
    dec = blocks(S)
    assert dec.normal_subgroup == (0, 2)
    assert dec.coset_reps == (0, 1)
    assert dec.vertex_sets[0] == (0, 2)
    assert dec.vertex_sets[1] == (1, 3)
    assert dec.principal_rep == 0


def test_blocks_no_arrows():
    ctx = field_context(1)
    group = cyclic_group(3)
    quiver = hopf_quiver(group, RamificationData.from_dict({}))
    from hopfquiver.majid import BimoduleAction

    S = MajidStructure(quiver, trivial_cocycle(group, ctx), BimoduleAction(ctx, quiver, {}, {}), 2)
    dec = blocks(S)
    assert len(dec.coset_reps) == 3
    assert all(len(v) == 1 for v in dec.vertex_sets.values())


# -- translation ------------------------------------------------------------------


def test_translate_vertices():
    S = make_z4_blocks_structure(False)
    g = S.group
    for v in g.elements():
        assert translate(S, S.quiver.vertex_path(0), v) == S.vertex(v)
    # Tr_e is the identity on the principal block basis
    dec = blocks(S)
    for p in dec.blocks[0]:
        assert translate(S, p, 0) == Element.of_path(S.ctx, p)


def test_translate_arrow_lands_in_other_block():
    S = make_z4_blocks_structure(False)
    dec = blocks(S)
    arrow_e = next(p for p in dec.blocks[0] if len(p.arrows) == 1)
    image = translate(S, arrow_e, 1)
    assert image.is_homogeneous(1)
    assert all(dec.rep_of_vertex[p.source] == 1 for p in image.terms)
    # a single scalar multiple of a single arrow in the multiplicity-one case
    assert len(image.terms) == 1


def test_translations_verified():
    for nontrivial in (False, True):
        S = make_z4_blocks_structure(nontrivial)
        rep = verify_translations(S)
        assert rep.ok, rep.violations[:5]


def test_block_products():
    for nontrivial in (False, True):
        S = make_z4_blocks_structure(nontrivial)
        rep = block_product_check(S)
        assert rep.ok, rep.violations[:5]


# -- theta -----------------------------------------------------------------------


def oracle_theta(S, p, q, u, v):
    """Independent re-reading of the eight-factor display."""
    g = S.group
    phi = S.phi

    def m(*xs):
        out = xs[0]
        for x in xs[1:]:
            out = g.mul(out, x)
        return out

    sp, tp, sq, tq = p.source, p.target, q.source, q.target
    ui = g.inv(u)
    num = [
        phi(sp, u, m(sq, v)),
        phi(sq, ui, m(u, v)),
        phi(u, m(tq, ui), m(u, v)),
        phi(tp, tq, m(u, v)),
    ]
    den = [
        phi(tp, u, m(tq, v)),
        phi(tq, ui, m(u, v)),
        phi(u, m(sq, ui), m(u, v)),
        phi(sp, sq, m(u, v)),
    ]
    total = S.ctx.one()
    for x in num:
        total = total * x
    for x in den:
        total = total / x
    return total


def test_theta_trivial_cocycle_is_one():
    S = make_z4_blocks_structure(False)
    dec = blocks(S)
    for p, q in itertools.product(dec.blocks[0], repeat=2):
        for u, v in itertools.product(dec.coset_reps, repeat=2):
            assert theta(S, p, q, u, v).is_one()


def test_theta_identity_arguments():
    S = make_z4_blocks_structure(True)
    e = S.quiver.vertex_path(0)
    assert theta(S, e, e, 0, 0).is_one()
    assert theta(S, e, e, 0, 1).is_one()


def test_theta_against_independent_transcription():
    S = make_z4_blocks_structure(True)
    dec = blocks(S)
    seen_nontrivial = False
    for p, q in itertools.product(dec.blocks[0], repeat=2):
        for u, v in itertools.product(dec.coset_reps, repeat=2):
            val = theta(S, p, q, u, v)
            assert val == oracle_theta(S, p, q, u, v)
            assert not val.is_zero()
            if not val.is_one():
                seen_nontrivial = True
    assert seen_nontrivial


# -- crossed product ---------------------------------------------------------------


def test_crossed_product_connected_degenerates():
    S = make_taft_structure(3, cap=2)
    cp = crossed_product(S)
    assert cp.coset_reps == (0,)
    assert cp.sigma == {(0, 0): 0}
    assert cp.iso_report.ok


def test_crossed_product_sigma_normalized():
    S = make_z4_blocks_structure(True)
    cp = crossed_product(S)
    for (u, v), n in cp.sigma.items():
        if u == 0 or v == 0:
            assert n == 0
        assert n in set(cp.decomposition.normal_subgroup)
    # the nontrivial entry: g * g = g^2 is the sigma value at (1, 1)
    assert cp.sigma[(1, 1)] == 2


def test_crossed_product_transport():
    for nontrivial in (False, True):
        S = make_z4_blocks_structure(nontrivial)
        cp = crossed_product(S)
        assert cp.iso_report.ok, cp.iso_report.violations[:5]
        assert cp.to_json()["reading"] == "literal"


def test_crossed_product_rejects_unswapped_theta(monkeypatch):
    """The transport check separates the readings of the Theta display: with
    the third factor left unswapped it fails, and the witness is raised."""
    S = load_problem(SPECS_DIR / "z4_two_blocks_standard_cocycle.json").structure()
    assert crossed_product(S).iso_report.ok
    monkeypatch.setattr(structure, "theta", theta_third_unswapped)
    with pytest.raises(IsoCheckFailed) as info:
        crossed_product(S)
    p, u, q, v = info.value.witness
    assert theta_third_unswapped(S, p, q, u, v) != theta(S, p, q, u, v)


def test_nonabelian_blocks_and_crossed_product():
    """S_3 loops: N = {e}, six singleton-coset blocks, nonabelian transversal
    arithmetic through translations and the transport check."""
    S = make_s3_loops_structure(cap=2)
    dec = blocks(S)
    assert dec.normal_subgroup == (S.group.identity,)
    assert len(dec.coset_reps) == 6
    assert verify_translations(S).ok
    assert block_product_check(S).ok
    cp = crossed_product(S)
    assert cp.iso_report.ok
    # with N trivial, sigma is identically the identity element
    assert all(n == S.group.identity for n in cp.sigma.values())


def test_crossed_product_product_entries():
    S = make_z4_blocks_structure(False)
    cp = crossed_product(S)
    dec = cp.decomposition
    e = S.quiver.vertex_path(0)
    g = S.group
    assert dec.rep_of_vertex[g.mul(1, 1)] == 0
    assert theta(S, e, e, 1, 1).is_one()
    core = _conjugate(S, 1, e)
    assert core == S.vertex(g.mul(1, g.mul(e.source, g.inv(1))))
    # (e (x) 1)(e (x) 1) = Theta e (1 |> e) (x) sigma(1, 1) 1-bar, read in H
    rhs = _transport_rhs(S, e, core, g.mul(1, 1), theta(S, e, e, 1, 1))
    assert rhs == S.multiply(core, S.vertex(g.mul(1, 1)))


# -- primitives and cocommutativity -------------------------------------------------


def test_primitives_single_loop():
    S = make_loop_structure(1)
    lie = primitives(S)
    assert lie.report.ok, lie.report.violations[:5]
    assert lie.loop_arrows == (0,)
    assert all(b.is_zero() for b in lie.brackets.values())


def test_primitives_two_loops():
    S = make_loop_structure(2)
    lie = primitives(S)
    assert lie.report.ok, lie.report.violations[:5]
    assert lie.loop_arrows == (0, 1)
    # the shuffle product commutes, so all brackets vanish
    assert all(b.is_zero() for b in lie.brackets.values())
    # associativity of primitive products was checked exhaustively
    assert lie.report.counts["primitive_associativity"] == 8
    assert lie.report.counts["jacobi"] == 8


def test_primitives_requires_single_vertex():
    S = make_taft_structure(2)
    with pytest.raises(NotSingleVertex):
        primitives(S)


def test_non_loop_arrow_is_not_primitive():
    """Delta(a) = t (x) a + a (x) s differs from a (x) 1 + 1 (x) a when the
    endpoints differ, so no non-loop arrow can be primitive."""
    S = make_taft_structure(2)
    ctx = S.ctx
    e = S.quiver.vertex_path(S.group.identity)
    for a in S.quiver.arrows:
        p = S.quiver.arrow_path(a.index)
        primitive_form = {(p, e): ctx.one(), (e, p): ctx.one()}
        assert comultiply(ctx, S.quiver, p) != primitive_form


def test_shuffle_product_of_loops():
    S = make_loop_structure(2)
    x, y = S.arrow(0), S.arrow(1)
    prod = S.multiply(x, y)
    # x y = (path traversing x then y) + (path traversing y then x)
    p_xy = S.quiver.path(0, [0, 1])
    p_yx = S.quiver.path(0, [1, 0])
    assert prod == Element(S.ctx, {p_xy: S.ctx.one(), p_yx: S.ctx.one()})
    assert S.multiply(x, y) == S.multiply(y, x)
    # degree 5: the C(5, 2) shuffles of the arrow words of p and q, counted
    # with multiplicity
    S = make_loop_structure(2, cap=5)
    p = S.quiver.path(0, [0, 1])
    q = S.quiver.path(0, [1, 0, 0])
    words = Counter()
    for slots in itertools.combinations(range(5), 2):
        of_p, of_q = iter(p.arrows), iter(q.arrows)
        words[tuple(next(of_p) if i in slots else next(of_q) for i in range(5))] += 1
    expected = {S.quiver.path(0, w): S.ctx.scalar(c) for w, c in words.items()}
    assert S.multiply_paths(p, q) == Element(S.ctx, expected)


def test_non_loop_arrow_breaks_cocommutativity():
    for S in (make_taft_structure(2), make_z4_blocks_structure(False)):
        ok, witness = cocommutative_check(S)
        assert not ok
        assert witness is not None
        assert len(witness.arrows) == 1  # the witness is an arrow
        arrow = S.quiver.arrow(witness.arrows[0])
        assert arrow.source != arrow.target


def test_single_loop_quiver_cocommutative():
    S = make_loop_structure(1)
    ok, witness = cocommutative_check(S)
    assert ok and witness is None


def test_vertices_only_cocommutative():
    ctx = field_context(1)
    group = cyclic_group(4)
    quiver = hopf_quiver(group, RamificationData.from_dict({}))
    from hopfquiver.majid import BimoduleAction

    S = MajidStructure(quiver, trivial_cocycle(group, ctx), BimoduleAction(ctx, quiver, {}, {}), 3)
    ok, witness = cocommutative_check(S)
    assert ok and witness is None
