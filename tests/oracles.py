"""Independent formulas that the tests check `src` against.

They are the literal definitions, which `src` computes by shorter routes:
Delta of one path as a tensor, the k-fold splits Delta^(k-1), the
componentwise comultiplication of a tensor of paths, its iteration on the
rightmost block, and the graded product M_n = M_1^(x n) o Delta_2^(n-1)
read off that iteration, and by Rosso's recursion over the full table of
partial products; quasi-associativity (2.1) summed over every split
triple; the Majid-bimodule unit and quasi-associativity laws in their ratio
form on the action tables, which `src` evaluates as (2.2) and (2.1) in
degree 1; the normalization (2.4) on every basis pair and the antipode
functionals (2.6) on every basis path, which `src` evaluates on vertices
only; the antipode laws (2.5) over every three-fold split, which `src`
sums over the splits of Delta; and Q(zeta_m)
arithmetic on tuples of Fraction coordinates, which `src` does on integer
numerators over one denominator; and the 3-cocycle sweep with every product
computed on scalars, which `src` computes once per pair of distinct values.

`theta_third_unswapped` is a negative oracle: a misreading of the Theta
display that the crossed-product transport check must reject.
"""

import functools
import itertools
from fractions import Fraction

from hopfquiver import Element, Path, cyclotomic_polynomial
from hopfquiver.errors import ZeroCocycleValue
from hopfquiver.report import VerificationReport
from hopfquiver.pathcoalg import counit, path_splits


@functools.lru_cache(maxsize=1 << 16)
def _splits(quiver, p):
    return path_splits(quiver, p)


def iterated_splits(quiver, p, k):
    """All splittings of p into k consecutive parts, latest part first: the
    terms of Delta^(k-1)(p).  k = 2 gives the (later, earlier) pairs of Delta."""
    junctions = quiver.junctions(p)
    arrows = p.arrows
    # (parts cut off so far, number of earliest arrows not yet cut)
    partial = [((), len(arrows))]
    for _ in range(k - 1):
        partial = [
            (parts + (Path(junctions[i], arrows[i:end], junctions[end]),), i)
            for parts, end in partial
            for i in range(end + 1)
        ]
    return [parts + (Path(p.source, arrows[:end], junctions[end]),) for parts, end in partial]


def _split_each(quiver, tup):
    """The terms of Delta on a tensor of paths: Delta on each component, legs
    interleaved (all left parts, then all right parts)."""
    stack = [((), ())]
    for p in tup:
        stack = [(ls + (l,), rs + (r,)) for ls, rs in stack for l, r in _splits(quiver, p)]
    return [ls + rs for ls, rs in stack]


def comultiply(ctx, quiver, p):
    """Delta of a single path: its n+1 splits, all with coefficient 1.

    Here and below a tensor is a `{tuple of paths: Scalar}` dict; every
    coefficient is a positive count, so no zero terms arise."""
    one = ctx.one()
    return {pair: one for pair in path_splits(quiver, p)}


def oracle_tensor_comultiply(ctx, quiver, tensor):
    """Independent one-step expansion: Delta on each component, interleaved."""
    out = {}
    for tup, coeff in tensor.items():
        for key in _split_each(quiver, tup):
            out[key] = out.get(key, ctx.zero()) + coeff
    return out


def _expand_rightmost(quiver, terms, block, steps):
    """The terms of `rightmost_iteration`, before equal tuples are merged."""
    for _ in range(steps):
        terms = [
            (tup[:-block] + key, c)
            for tup, c in terms
            for key in _split_each(quiver, tup[-block:])
        ]
    return terms


def rightmost_iteration(quiver, tensor, block, steps):
    """Apply the comultiplication of the arity-`block` tensor coalgebra
    `steps` times, always to the rightmost `block` legs."""
    out = {}
    for key, c in _expand_rightmost(quiver, tensor.items(), block, steps):
        out[key] = out[key] + c if key in out else c
    return out


def m1_pair(S, x, y):
    """M_1 on one leg (x, y) of paths; None when it vanishes."""
    if len(x.arrows) == 0 and len(y.arrows) == 1:
        v = S.action.left_of(x.source, y.arrows[0])
    elif len(x.arrows) == 1 and len(y.arrows) == 0:
        v = S.action.right_of(x.arrows[0], y.source)
    else:
        return None
    return None if v.is_zero() else v


def glue_legs(ctx, legs):
    """The paths assembled from degree-1 tensor legs, latest leg first: every
    choice of one term per leg whose arrows compose, coefficients multiplied."""
    acc = {}
    for choice in itertools.product(*(leg.terms.items() for leg in legs)):
        parts = [path for path, _ in reversed(choice)]  # first traversed first
        if any(a.target != b.source for a, b in zip(parts, parts[1:])):
            continue
        path = Path(parts[0].source, sum((x.arrows for x in parts), ()), parts[-1].target)
        c = ctx.one()
        for _, coeff in choice:
            c = c * coeff
        acc[path] = acc[path] + c if path in acc else c
    return acc


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
        legs = []
        for i in range(n):
            leg = m1_pair(S, tup[2 * i], tup[2 * i + 1])
            if leg is None:
                break
            legs.append(leg)
        if len(legs) < n:
            continue
        for path, coeff in glue_legs(S.ctx, legs).items():
            acc[path] = acc[path] + c * coeff if path in acc else c * coeff
    return Element(S.ctx, acc)


def _glue_leg(partial, leg):
    """Glue the degree-1 `leg` after each partial path it starts where that
    path ends; `None` is the empty partial path, which takes every term."""
    if partial is None:
        return dict(leg.terms)
    out = {}
    for path, c in partial.items():
        for ap, c2 in leg.terms.items():
            if ap.source == path.target:
                glued = Path(path.source, path.arrows + ap.arrows, ap.target)
                out[glued] = out[glued] + c * c2 if glued in out else c * c2
    return out


def product_by_state_table(S, p, q):
    """The graded product of two basis paths by Rosso's recursion over the
    full (a+1)(b+1) table of states G(i, j), with G(0, 0) the empty partial
    path: the route `src` took before it read G(i-1, b) and G(a, j-1) from
    its product memo.  Scalars are multiplied and added directly."""
    n = len(p.arrows) + len(q.arrows)
    if n == 0:
        return S.vertex(S.group.mul(p.source, q.source))
    jp, jq = S.quiver.junctions(p), S.quiver.junctions(q)
    a, b = len(p.arrows), len(q.arrows)
    G = [[None] * (b + 1) for _ in range(a + 1)]
    for i in range(a + 1):
        for j in range(b + 1):
            if i == j == 0:
                continue
            g = _glue_leg(G[i - 1][j], S.action.right_of(p.arrows[i - 1], jq[j])) if i else {}
            if j:
                for path, c in _glue_leg(G[i][j - 1], S.action.left_of(jp[i], q.arrows[j - 1])).items():
                    g[path] = g[path] + c if path in g else c
            G[i][j] = g
    return Element(S.ctx, G[a][b])


def quasi_associativity_by_all_splits(S, cap):
    """(2.1) summed over every split of each path of each basis triple of
    total degree <= cap, the reassociator being Phi on vertex triples and zero
    elsewhere.  Returns the violating triples, in basis order, and the number
    of triples checked."""
    ctx = S.ctx
    basis = S.basis_up_to(cap)
    splits = {p: path_splits(S.quiver, p) for p in basis}
    witnesses, count = [], 0
    for p in basis:
        for q in basis:
            for r in basis:
                if len(p.arrows) + len(q.arrows) + len(r.arrows) > cap:
                    continue
                count += 1
                lhs = Element.zero(ctx)
                rhs = Element.zero(ctx)
                for p1, p2 in splits[p]:
                    for q1, q2 in splits[q]:
                        for r1, r2 in splits[r]:
                            if p2.is_vertex() and q2.is_vertex() and r2.is_vertex():
                                coeff = S.phi(p2.source, q2.source, r2.source)
                                lhs = lhs + S.multiply(
                                    Element.of_path(ctx, p1), S.multiply_paths(q1, r1)
                                ).scale(coeff)
                            if p1.is_vertex() and q1.is_vertex() and r1.is_vertex():
                                coeff = S.phi(p1.source, q1.source, r1.source)
                                rhs = rhs + S.multiply(
                                    S.multiply_paths(p2, q2), Element.of_path(ctx, r2)
                                ).scale(coeff)
                if lhs != rhs:
                    witnesses.append((p, q, r))
    return witnesses, count


def _act(image_of, x):
    """The linear extension to the degree-1 element x of the map that sends
    an arrow index to the element `image_of(index)`."""
    out = Element.zero(x.ctx)
    for p, c in x.terms.items():
        out = out + image_of(p.arrows[0]).scale(c)
    return out


def bimodule_laws_by_action_tables(group, phi, action):
    """The unit and quasi-associativity laws of a Majid bimodule in their
    ratio form, read off the action tables: per arrow m with target g and
    source h,

        e.m = m = m.e for the identity e,
        e.(f.m) = [Phi(e,f,g)/Phi(e,f,h)] (ef).m,
        (m.e).f = [Phi(h,e,f)/Phi(g,e,f)] m.(ef),
        (e.m).f = [Phi(e,h,f)/Phi(e,g,f)] e.(m.f).

    `src` evaluates these as (2.2) and (2.1) in degree 1 through the graded
    product.  Returns the report of those five checks, with the check names,
    witnesses and tallies of `verify_bimodule`."""
    quiver = action.quiver
    report = VerificationReport()
    arrows = quiver.arrows

    def left(g, x):
        return _act(lambda a: action.left_of(g, a), x)

    def right(x, g):
        return _act(lambda a: action.right_of(a, g), x)

    for a in arrows:
        m = Element.of_path(action.ctx, quiver.arrow_path(a.index))
        if left(group.identity, m) != m:
            report.add("bimodule_unit_left", (a.index,))
        if right(m, group.identity) != m:
            report.add("bimodule_unit_right", (a.index,))
    report.tally("bimodule_unit_left", len(arrows))
    report.tally("bimodule_unit_right", len(arrows))

    for a in arrows:
        g, h = a.target, a.source
        m = Element.of_path(action.ctx, quiver.arrow_path(a.index))
        for e in group.elements():
            for f in group.elements():
                ratio = phi(e, f, g) / phi(e, f, h)
                if left(e, left(f, m)) != left(group.mul(e, f), m).scale(ratio):
                    report.add("bimodule_left_assoc", (e, f, a.index))
                ratio = phi(h, e, f) / phi(g, e, f)
                if right(right(m, e), f) != right(m, group.mul(e, f)).scale(ratio):
                    report.add("bimodule_right_assoc", (a.index, e, f))
                ratio = phi(e, h, f) / phi(e, g, f)
                if right(left(e, m), f) != left(e, right(m, f)).scale(ratio):
                    report.add("bimodule_middle_assoc", (e, a.index, f))
    n2a = group.order * group.order * len(arrows)
    report.tally("bimodule_left_assoc", n2a)
    report.tally("bimodule_right_assoc", n2a)
    report.tally("bimodule_middle_assoc", n2a)
    return report


def vanishing_axioms_by_full_sweep(S):
    """(2.4) on every pair of basis paths and (2.6) on every five-fold split
    of every basis path, both sides evaluated with the extended reassociator
    and functionals.  Returns a report with the same check names, witness
    order and tallies as `verify_majid_axioms`."""
    ctx = S.ctx
    basis = S.basis_up_to()
    element = {p: Element.of_path(ctx, p) for p in basis}
    eps = {p: counit(x) for p, x in element.items()}
    report = VerificationReport()

    middle = S.vertex(S.group.identity)
    for p, xe in element.items():
        for q, ye in element.items():
            if S.reassociator(xe, middle, ye) != eps[p] * eps[q]:
                report.add("normalization_middle_unit", (p, q))
    report.tally("normalization_middle_unit", len(basis) ** 2)

    for p in basis:
        total_fwd = ctx.zero()
        total_inv = ctx.zero()
        for t1, t2, t3, t4, t5 in iterated_splits(S.quiver, p, 5):
            bv = S.beta_of_path(t2)
            if t4.is_vertex() and not bv.is_zero():
                total_fwd = total_fwd + bv * S.reassociator(
                    element[t1], S.antipode_path(t3), element[t5]
                )
            bv2 = S.beta_of_path(t4)
            if t2.is_vertex() and not bv2.is_zero():
                total_inv = total_inv + bv2 * S.reassociator_inverse(
                    S.antipode_path(t1), element[t3], S.antipode_path(t5)
                )
        if total_fwd != eps[p]:
            report.add("antipode_functional_forward", (p,))
        if total_inv != eps[p]:
            report.add("antipode_functional_inverse", (p,))
    report.tally("antipode_functional_forward", len(basis))
    report.tally("antipode_functional_inverse", len(basis))
    return report


def antipode_laws_by_three_fold_splits(S):
    """(2.5) summed over every three-fold split (t1, t2, t3) of each basis
    path, alpha being the counit and beta the functional of `S`.  Returns
    the violating paths of the alpha law and of the beta law, in basis
    order, and the number of paths checked."""
    ctx = S.ctx
    basis = S.basis_up_to()
    element = {p: Element.of_path(ctx, p) for p in basis}
    eps = {p: counit(x) for p, x in element.items()}
    unit = S.unit()
    alpha_witnesses, beta_witnesses = [], []
    for p in basis:
        lhs_a = Element.zero(ctx)
        lhs_b = Element.zero(ctx)
        for t1, t2, t3 in iterated_splits(S.quiver, p, 3):
            # alpha is the counit: 1 on vertices, 0 on longer paths
            if t2.is_vertex():
                lhs_a = lhs_a + S.multiply(S.antipode_path(t1), element[t3])
            bv = S.beta_of_path(t2)
            if not bv.is_zero():
                lhs_b = lhs_b + S.multiply(element[t1], S.antipode_path(t3)).scale(bv)
        if lhs_a != unit.scale(eps[p]):
            alpha_witnesses.append((p,))
        if lhs_b != unit.scale(S.beta(element[p])):
            beta_witnesses.append((p,))
    return alpha_witnesses, beta_witnesses, len(basis)


def theta_third_unswapped(S, p, q, u, v):
    """Theta with t(q)u^-1 in the third factor of both numerator and
    denominator, where the formula swaps it to s(q)u^-1 in the denominator."""
    g, phi = S.group, S.phi
    ui, uv = g.inv(u), g.mul(u, v)
    third = g.mul(q.target, ui)
    num = (phi(p.source, u, g.mul(q.source, v)) * phi(q.source, ui, uv)
           * phi(u, third, uv) * phi(p.target, q.target, uv))
    den = (phi(p.target, u, g.mul(q.target, v)) * phi(q.target, ui, uv)
           * phi(u, third, uv) * phi(p.source, q.source, uv))
    return num / den


# -- Q(zeta_m) on Fraction coordinates ------------------------------------


def _reduce(modulus, degree, coeffs):
    """Reduce an ascending coefficient list modulo the (monic) modulus."""
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, degree - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(degree):
                if modulus[j]:
                    coeffs[i - degree + j] -= c * modulus[j]
        coeffs.pop()
    while len(coeffs) < degree:
        coeffs.append(Fraction(0))
    return tuple(coeffs)


def _poly_degree(p):
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_quotient(a, b):
    da, db = _poly_degree(a), _poly_degree(b)
    if da < db:
        return [Fraction(0)]
    rem = list(a)
    quot = [Fraction(0)] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c = rem[i + db] / b[db]
        quot[i] = c
        for j in range(db + 1):
            rem[i + j] -= c * b[j]
    return quot


class FractionScalar:
    """An element of Q(zeta_m) as phi(m) Fraction coordinates in the power
    basis, reduced modulo the m-th cyclotomic polynomial."""

    def __init__(self, m, coords):
        self.m = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = len(self.modulus) - 1
        self.coeffs = _reduce(self.modulus, self.degree, [Fraction(c) for c in coords])

    def _new(self, coords):
        return FractionScalar(self.m, coords)

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        return self.m == other.m and self.coeffs == other.coeffs

    def __add__(self, other):
        return self._new([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return self._new([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._new([-a for a in self.coeffs])

    def __mul__(self, other):
        return self._new(_poly_mul(list(self.coeffs), list(other.coeffs)))

    def inverse(self):
        """Extended Euclid in Q[x] against the (irreducible) modulus."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        a = list(self.coeffs)
        b = [Fraction(c) for c in self.modulus]
        s0, s1 = [Fraction(1)], [Fraction(0)]
        while _poly_degree(b) >= 0:
            q = _poly_quotient(a, b)
            a, b = b, _poly_sub(a, _poly_mul(q, b))
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        lead = a[_poly_degree(a)]
        return self._new([c / lead for c in s0])

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self._new([1])
        for _ in range(n):
            result = result * self
        return result

    def format(self):
        """Readable polynomial form in z (the primitive m-th root)."""
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            mono = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
            if k == 0:
                body = str(c)
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 or k == 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts) if parts else "0"

    def to_json(self):
        """"p/q" when rational, else the coordinate array."""
        if not any(self.coeffs[1:]):
            return str(self.coeffs[0])
        return [str(c) for c in self.coeffs]


def cocycle_report_by_scalars(group, cocycle):
    """The 3-cocycle sweep on Scalar values: every product of every
    quadruple that is not skipped is computed with `Scalar.__mul__` and the
    two sides compared as scalars.  `verify_cocycle` must give the same
    report; it computes each product of two distinct values once."""
    report = VerificationReport()
    n = group.order
    e = group.identity
    values = cocycle.values
    # precomputed is-one flags let the quadruple sweep skip instances whose
    # five entries are all 1 (the identity is trivially true there)
    ones = []
    for a in range(n):
        plane = []
        for b in range(n):
            row = []
            for c in range(n):
                v = values[a][b][c]
                if v.is_zero():
                    raise ZeroCocycleValue((a, b, c))
                is_one = v.is_one()
                row.append(is_one)
                if (a == e or b == e or c == e) and not is_one:
                    report.add("normalization", (a, b, c), f"value {v.format()} != 1")
            plane.append(row)
        ones.append(plane)
    report.tally("normalization", n * n * n)
    mult = group.mult
    for a in range(n):
        va = values[a]
        oa = ones[a]
        for b in range(n):
            ab = mult[a][b]
            vab = values[ab]
            oab = ones[ab]
            va_b = va[b]
            oa_b = oa[b]
            vb = values[b]
            ob = ones[b]
            for c in range(n):
                bc = mult[b][c]
                mc = mult[c]
                va_bc = va[bc]
                oa_bc = oa[bc]
                vab_c = vab[c]
                oab_c = oab[c]
                vb_c = vb[c]
                ob_c = ob[c]
                o5 = oa_b[c]
                v5 = va_b[c]
                for d in range(n):
                    cd = mc[d]
                    if o5 and oa_b[cd] and oab_c[d] and ob_c[d] and oa_bc[d]:
                        continue
                    lhs = va_b[cd] * vab_c[d]
                    rhs = vb_c[d] * va_bc[d] * v5
                    if lhs != rhs:
                        report.add(
                            "cocycle_identity",
                            (a, b, c, d),
                            f"lhs {lhs.format()} != rhs {rhs.format()}",
                        )
    report.tally("cocycle_identity", n ** 4)
    return report
