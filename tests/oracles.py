"""Independent formulas that the tests check `src` against.

They are the literal definitions, which `src` computes by shorter routes:
the componentwise comultiplication of a tensor of paths, its iteration on
the rightmost block, and the graded product M_n = M_1^(x n) o Delta_2^(n-1)
read off that iteration.
"""

from hopfquiver import Element, TensorElement
from hopfquiver.pathcoalg import path_splits


def _split_each(quiver, tup):
    """The terms of Delta on a tensor of paths: Delta on each component, legs
    interleaved (all left parts, then all right parts)."""
    stack = [((), ())]
    for p in tup:
        stack = [(ls + (l,), rs + (r,)) for ls, rs in stack for l, r in path_splits(quiver, p)]
    return [ls + rs for ls, rs in stack]


def oracle_tensor_comultiply(ctx, quiver, tensor):
    """Independent one-step expansion: Delta on each component, interleaved."""
    out = {}
    for tup, coeff in tensor.terms.items():
        for key in _split_each(quiver, tup):
            out[key] = out.get(key, ctx.zero()) + coeff
    return TensorElement(ctx, 2 * tensor.arity, out)


def _expand_rightmost(quiver, terms, block, steps):
    """The terms of `rightmost_iteration`, before equal tuples are merged."""
    for _ in range(steps):
        terms = [
            (tup[:-block] + key, c)
            for tup, c in terms
            for key in _split_each(quiver, tup[-block:])
        ]
    return terms


def rightmost_iteration(ctx, quiver, tensor, block, steps):
    """Apply the comultiplication of the arity-`block` tensor coalgebra
    `steps` times, always to the rightmost `block` legs."""
    out = {}
    for key, c in _expand_rightmost(quiver, tensor.terms.items(), block, steps):
        out[key] = out[key] + c if key in out else c
    return TensorElement(ctx, tensor.arity + block * steps, out)


def m1_pair(S, x, y):
    """M_1 on one leg (x, y) of paths; None when it vanishes."""
    if len(x.arrows) == 0 and len(y.arrows) == 1:
        v = S.action.left_of(x.source, y.arrows[0])
    elif len(x.arrows) == 1 and len(y.arrows) == 0:
        v = S.action.right_of(x.arrows[0], y.source)
    else:
        return None
    return None if v.is_zero() else v


def product_by_expansion(S, p, q):
    """The graded product of two basis paths by the full iterated coproduct:
    Delta_2^(n-1)(p (x) q), then M_1 on each leg (a tuple with a zero leg is
    dropped), then the legs glued into paths."""
    n = len(p.arrows) + len(q.arrows)
    if n == 0:
        return S.vertex(S.group.mul(p.source, q.source))
    # M_1 and the gluing are linear, so equal tuples need not be merged first
    expanded = _expand_rightmost(S.quiver, [((p, q), S.ctx.one())], 2, n - 1)
    acc = {}
    for tup, c in expanded:
        legs = [m1_pair(S, tup[2 * i], tup[2 * i + 1]) for i in range(n)]
        if any(leg is None for leg in legs):
            continue
        for path, coeff in S._assemble(legs).items():
            acc[path] = acc[path] + c * coeff if path in acc else c * coeff
    return Element(S.ctx, acc)
