"""Path coalgebra: comultiplication splittings, counit, tensor powers.

The iterated comultiplication (the k-fold `path_splits`) is cross-checked
against the oracle in `oracles.py`, which expands Delta of each component and
interleaves directly, and against the leftmost iteration of `comultiply`.
"""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfquiver import (
    Element,
    RamificationData,
    counit,
    cyclic_group,
    field_context,
    hopf_quiver,
    paths_up_to,
    symmetric_group,
)
from hopfquiver.pathcoalg import comultiplicative, element_from_json, path_splits
from hopfquiver.problem import load_problem

from conftest import SPECS_DIR
from oracles import comultiply, oracle_tensor_comultiply, rightmost_iteration


def z2_quiver():
    g = cyclic_group(2)
    return hopf_quiver(g, RamificationData.from_class_reps(g, [(1, 1)]))


def test_comultiply_vertex():
    ctx = field_context(1)
    q = z2_quiver()
    v = q.vertex_path(1)
    assert comultiply(ctx, q, v) == {(v, v): ctx.one()}


def test_comultiply_arrow():
    ctx = field_context(1)
    q = z2_quiver()
    a = q.arrow_path(0)
    t, s = q.vertex_path(1), q.vertex_path(0)
    expected = {(t, a): ctx.one(), (a, s): ctx.one()}
    assert comultiply(ctx, q, a) == expected


def test_comultiply_length_two():
    ctx = field_context(1)
    q = z2_quiver()
    p = q.path(0, [0, 1])  # e -> g -> e
    t, s = q.vertex_path(0), q.vertex_path(0)
    a01 = q.arrow_path(0)
    a10 = q.arrow_path(1)
    expected = {
        (t, p): ctx.one(),
        (a10, a01): ctx.one(),
        (p, s): ctx.one(),
    }
    assert comultiply(ctx, q, p) == expected


def test_counit():
    ctx = field_context(1)
    q = z2_quiver()
    g0, g1 = q.vertex_path(0), q.vertex_path(1)
    a = q.arrow_path(0)
    x = Element(
        ctx,
        {
            g0: ctx.scalar(3),
            g1: ctx.scalar(-2),
            a: ctx.scalar(5),
        },
    )
    assert counit(x) == ctx.one()
    assert counit(Element.of_path(ctx, a)).is_zero()
    assert counit(Element.of_path(ctx, g0)).is_one()


def splits_tensor(ctx, quiver, p, k):
    """The k-fold splittings of p as a {tuple: Scalar} tensor, checking each
    appears once."""
    splits = path_splits(quiver, p, k)
    assert len(set(splits)) == len(splits)
    return {t: ctx.one() for t in splits}


def test_iterated_comultiply_steps_zero_identity():
    ctx = field_context(1)
    q = z2_quiver()
    p = q.path(0, [0, 1])
    assert path_splits(q, p, 1) == [(p,)]
    assert splits_tensor(ctx, q, p, 1) == {(p,): ctx.one()}


def test_iterated_comultiply_grouplikes():
    ctx = field_context(1)
    q = z2_quiver()
    g = q.vertex_path(1)
    assert splits_tensor(ctx, q, g, 4) == {(g, g, g, g): ctx.one()}


def test_iterated_comultiply_arrow_pair_against_oracle():
    ctx = field_context(1)
    q = z2_quiver()
    p = q.path(0, [0, 1])  # the arrow pair a1 a0
    got = splits_tensor(ctx, q, p, 3)
    delta = {(p,): ctx.one()}
    assert got == rightmost_iteration(q, delta, 1, 2)
    assert len(got) == 6
    # the two-fold splits are Delta itself, and the oracle's one step
    assert splits_tensor(ctx, q, p, 2) == oracle_tensor_comultiply(ctx, q, delta)
    assert splits_tensor(ctx, q, p, 2) == comultiply(ctx, q, p)


def test_iterated_comultiply_two_steps_against_oracle():
    ctx = field_context(1)
    q = z2_quiver()
    p = q.path(0, [0, 1, 0])
    # every arity up to 5 against the oracle iterated on the rightmost leg
    for k in range(1, 6):
        expected = rightmost_iteration(q, {(p,): ctx.one()}, 1, k - 1)
        assert splits_tensor(ctx, q, p, k) == expected


def test_graded_component_partition():
    ctx = field_context(1)
    q = z2_quiver()
    x = Element(
        ctx,
        {
            q.vertex_path(0): ctx.one(),
            q.arrow_path(0): ctx.scalar(2),
            q.path(0, [0, 1]): ctx.scalar(-1),
        },
    )
    components = [
        Element(ctx, {p: c for p, c in x.terms.items() if len(p.arrows) == n})
        for n in range(4)
    ]
    assert components[0] == Element.of_path(ctx, q.vertex_path(0))
    assert components[1] == Element.of_path(ctx, q.arrow_path(0), 2)
    assert components[3].is_zero()
    assert all(c.is_homogeneous(n) for n, c in enumerate(components))
    total = Element.zero(ctx)
    for c in components:
        total = total + c
    assert total == x


def _suite_quivers():
    out = []
    for n in (2, 3, 4):
        g = cyclic_group(n)
        out.append(hopf_quiver(g, RamificationData.from_class_reps(g, [(1, 1)])))
    s3 = symmetric_group(3)
    cls = next(i for i, c in enumerate(s3.classes) if len(c) == 3)
    out.append(hopf_quiver(s3, RamificationData.from_dict({cls: 1})))
    return out


def test_coalgebra_laws_exhaustive():
    """Coassociativity, counit laws, grading, term counts for paths <= 5."""
    ctx = field_context(1)
    for quiver in _suite_quivers():
        for degree_list in paths_up_to(quiver, 5):
            for p in degree_list:
                delta = comultiply(ctx, quiver, p)
                n = len(p.arrows)
                # n+1 terms, all coefficients 1
                assert len(delta) == n + 1
                assert all(c.is_one() for c in delta.values())
                # grading: leg lengths sum to the path length
                for (l, r) in delta:
                    assert len(l.arrows) + len(r.arrows) == n
                # coassociativity: the three-fold splits are both the
                # leftmost- and the rightmost-leg iteration
                threefold = splits_tensor(ctx, quiver, p, 3)
                left_terms = {}
                for (l, r), c in delta.items():
                    for (ll, lr), cc in comultiply(ctx, quiver, l).items():
                        key = (ll, lr, r)
                        left_terms[key] = left_terms.get(key, ctx.zero()) + c * cc
                assert threefold == left_terms
                assert threefold == rightmost_iteration(quiver, {(p,): ctx.one()}, 1, 2)
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


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.fractions(min_value=-3, max_value=3, max_denominator=4)), max_size=4))
def test_counit_linearity(entries):
    ctx = field_context(1)
    q = z2_quiver()
    x = Element.zero(ctx)
    expected = ctx.zero()
    for v, c in entries:
        coeff = ctx.scalar(c)
        x = x + Element.of_path(ctx, q.vertex_path(v), coeff)
        expected = expected + coeff
    assert counit(x) == expected


def test_element_json_roundtrip():
    ctx = field_context(4)
    q = z2_quiver()
    x = Element(
        ctx,
        {
            q.path(0, [0, 1]): ctx.zeta,
            q.vertex_path(1): ctx.scalar("1/3"),
        },
    )
    assert element_from_json(ctx, q, x.to_json()) == x


@pytest.mark.parametrize("spec", ["z4_two_blocks_standard_cocycle", "one_vertex_2_loop"])
def test_tensor_of_pairs_is_comultiplication(spec):
    """Summing x (x) y over the splits (p1, p2) of p rebuilds Delta(p), with
    the coefficient carried on the first leg, so `comultiplicative` holds on
    them and fails on Delta of p with another coefficient.  The reversed
    pairs (p2, p1) rebuild Delta(p) only when the set of splits is closed
    under swapping (a vertex, or a power of one loop), and some path of each
    spec is not."""
    problem = load_problem(SPECS_DIR / f"{spec}.json")
    ctx, quiver = problem.ctx, problem.quiver
    c = ctx.scalar(3) + ctx.zeta
    delta = partial(path_splits, quiver)
    rejected = 0
    for degree in paths_up_to(quiver, problem.degree_cap):
        for p in degree:
            x = Element.of_path(ctx, p, c)
            pairs = path_splits(quiver, p)
            splits = [(Element.of_path(ctx, p1, c), Element.of_path(ctx, p2)) for p1, p2 in pairs]
            assert comultiplicative(delta, x, splits)
            assert not comultiplicative(delta, Element.of_path(ctx, p), splits)
            symmetric = {(p2, p1) for p1, p2 in pairs} == set(pairs)
            assert comultiplicative(delta, x, ((z, y) for y, z in splits)) == symmetric
            rejected += not symmetric
    assert rejected > 0
