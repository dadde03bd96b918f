"""Majid bimodules over (kG, Phi) and the graded Majid algebra they induce
on a Hopf quiver's path coalgebra.

Construction summary.  Degree-0 multiplication is the group algebra; degree-1
multiplication is the pair of quasi-actions (zero on arrow (x) arrow); the
degree-n component is M_n = M_1^(x n) o Delta_2^(n-1), with Delta_2 the
comultiplication of the tensor-square coalgebra.  It is computed as the
quantum shuffle product (Rosso; Cibils-Rosso for Hopf quivers):

    M_n(p (x) q) = sum over the shuffles of the arrows of p and of q of
                   l_1 (x) ... (x) l_n,

with the legs read from the latest arrow.  A leg that takes an arrow a of p
is a . v, for v the vertex of q reached at that point of the shuffle; a leg
that takes an arrow b of q is u . b, for u the vertex of p there.  The two
formulas agree: Delta_2^(n-1) splits p and q each into n consecutive parts,
and M_1 vanishes on a leg whose two parts hold 0 or 2 arrows together, so
only the splittings with exactly one arrow per leg survive.  These are the
shuffles, and each appears once with coefficient 1.

The sum is evaluated by Rosso's recursion rather than shuffle by shuffle.
Write p = p_a ... p_1 and q = q_b ... q_1 (p_1 traversed first), u_i and v_j
for the vertices after the earliest i arrows of p and j arrows of q, and
G(i, j) for the sum of the glued partial paths over the shuffles of
p_1 .. p_i with q_1 .. q_j.  The leg that reaches the state (i, j) depends
only on (i, j), so by distributivity

    G(i, j) = G(i-1, j) glued with p_i . v_j
            + G(i, j-1) glued with u_i . q_j,

G(1, 0) and G(0, 1) being those first legs, and p q = G(a, b): (a+1)(b+1)
states in place of C(a+b, a) shuffles.

The arity-n arrow tensors are identified with paths through the cotensor
identification: the first tensor leg is the *last* traversed arrow,
and a tuple (b_1, ..., b_n) assembles to a path iff s(b_i) = t(b_(i+1)).
Non-composable tuples are dropped; with valid bimodule data their total
coefficient is zero anyway, and with invalid data the coalgebra-morphism
check exposes the defect rather than hiding it.

The quasi-antipode acts on vertices by group inversion, on arrows by

    S_1(a) = -[Phi(s,s,s^-1) / Phi(t,s,s^-1)] * (t^-1 . a) . s^-1,

and on a length-n path by expanding S_1 of each arrow and summing composable
concatenations in reversed order (the map comes from the coopposite
coalgebra, hence the reversal).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Mapping

from .cyclotomic import FieldContext, Scalar
from .errors import ActionNotDegree1, DegreeCapExceeded, SpecError
from .groups import Cocycle3, FiniteGroup
from .pathcoalg import Element, _nonzero, add_scaled, comultiplicative, counit, path_splits
from .quiver import HopfQuiver, Path
from .report import VerificationReport


class BimoduleAction:
    """Left and right quasi-actions of the group on the arrow space.

    `left[(g, arrow)]` and `right[(arrow, g)]` are degree-1 elements;
    missing entries are zero, and a value that leaves the arrow space raises
    ActionNotDegree1.  Whether the data is a genuine Majid bimodule is
    decided by `verify_bimodule`.
    """

    __slots__ = ("ctx", "quiver", "left", "right")

    def __init__(
        self,
        ctx: FieldContext,
        quiver: HopfQuiver,
        left: Mapping[tuple[int, int], Element],
        right: Mapping[tuple[int, int], Element],
    ):
        self.ctx = ctx
        self.quiver = quiver
        self.left = {k: v for k, v in left.items() if not v.is_zero()}
        self.right = {k: v for k, v in right.items() if not v.is_zero()}
        for side, table in (("left", self.left), ("right", self.right)):
            for key, v in table.items():
                if not v.is_homogeneous(1):
                    raise ActionNotDegree1((side,) + key)

    def left_of(self, g: int, arrow: int) -> Element:
        return self.left.get((g, arrow), Element.zero(self.ctx))

    def right_of(self, arrow: int, g: int) -> Element:
        return self.right.get((arrow, g), Element.zero(self.ctx))

    def act_left(self, g: int, x: Element) -> Element:
        """Linear extension of g . (arrow); x must be degree-1."""
        acc: dict[Path, Scalar] = {}
        for p, c in x.terms.items():
            add_scaled(acc, self.left_of(g, p.arrows[0]), c)
        return Element(self.ctx, acc)

    def act_right(self, x: Element, g: int) -> Element:
        acc: dict[Path, Scalar] = {}
        for p, c in x.terms.items():
            add_scaled(acc, self.right_of(p.arrows[0], g), c)
        return Element(self.ctx, acc)

    def entries(self) -> list[tuple[str, tuple[int, int], Element]]:
        """All nonzero entries, deterministically ordered."""
        out = [("left", k, v) for k, v in sorted(self.left.items())]
        out += [("right", k, v) for k, v in sorted(self.right.items())]
        return out

    def with_entry(self, side: str, key: tuple[int, int], value: Element) -> "BimoduleAction":
        """Copy with one table entry replaced (for mutation experiments)."""
        left = dict(self.left)
        right = dict(self.right)
        (left if side == "left" else right)[key] = value
        return BimoduleAction(self.ctx, self.quiver, left, right)

    def to_json(self):
        return {
            "left": [
                {"g": g, "arrow": a, "value": v.to_json()}
                for (g, a), v in sorted(self.left.items())
            ],
            "right": [
                {"arrow": a, "g": g, "value": v.to_json()}
                for (a, g), v in sorted(self.right.items())
            ],
        }


def action_from_json(ctx: FieldContext, quiver: HopfQuiver, data: Mapping) -> BimoduleAction:
    from .pathcoalg import element_from_json

    def value_of(item) -> Element:
        raw = item["value"]
        # accept either full element JSON or a bare list of arrow terms
        terms = []
        for t in raw:
            if "arrows" in t or "source" in t:
                terms.append(t)
            else:
                idx = t["arrow"]
                if not quiver.has_arrow(idx):
                    raise ValueError(f"no arrow {idx!r}")
                terms.append(
                    {"source": quiver.arrow(idx).source, "arrows": [idx], "coeff": t["coeff"]}
                )
        return element_from_json(ctx, quiver, terms)

    left, right = {}, {}
    for side, table in (("left", left), ("right", right)):
        for item in data.get(side, []):
            g, a = item["g"], item["arrow"]
            # `type(x) is int` rejects bool, which JSON true/false parse to
            if type(g) is not int or not 0 <= g < quiver.group.order:
                raise SpecError(f"action.{side}: g={g!r} is not a group element")
            if not quiver.has_arrow(a):
                raise SpecError(f"action.{side}: arrow={a!r} is not an arrow of the quiver")
            table[(g, a) if side == "left" else (a, g)] = value_of(item)
    return BimoduleAction(ctx, quiver, left, right)


def verify_bimodule(group: FiniteGroup, phi: Cocycle3, action: BimoduleAction) -> VerificationReport:
    """Exhaustively check the Majid-bimodule axioms of the action tables.

    Per arrow m spanning the isotypic component with target g and source h:

    * unit: identity acts as the identity map on both sides;
    * left quasi-associativity   e.(f.m) = [Phi(e,f,g)/Phi(e,f,h)] (ef).m;
    * right quasi-associativity  (m.e).f = [Phi(h,e,f)/Phi(g,e,f)] m.(ef);
    * middle compatibility       (e.m).f = [Phi(e,h,f)/Phi(e,g,f)] e.(m.f);
    * bicomodule targets: f.m lands in the (fg, fh) component, m.f in (gf, hf).
    """
    quiver = action.quiver
    report = VerificationReport()
    e0 = group.identity
    arrows = quiver.arrows

    for a in arrows:
        m = Element.of_path(action.ctx, quiver.arrow_path(a.index))
        if action.act_left(e0, m) != m:
            report.add("bimodule_unit_left", (a.index,))
        if action.act_right(m, e0) != m:
            report.add("bimodule_unit_right", (a.index,))
    report.tally("bimodule_unit_left", len(arrows))
    report.tally("bimodule_unit_right", len(arrows))

    for a in arrows:
        g, h = a.target, a.source
        for f in group.elements():
            lv = action.left_of(f, a.index)
            for p in lv.terms:
                arr = quiver.arrow(p.arrows[0])
                if arr.target != group.mul(f, g) or arr.source != group.mul(f, h):
                    report.add(
                        "bicomodule_left", (f, a.index),
                        f"term a{p.arrows[0]} outside component ({group.mul(f, g)},{group.mul(f, h)})",
                    )
            rv = action.right_of(a.index, f)
            for p in rv.terms:
                arr = quiver.arrow(p.arrows[0])
                if arr.target != group.mul(g, f) or arr.source != group.mul(h, f):
                    report.add(
                        "bicomodule_right", (a.index, f),
                        f"term a{p.arrows[0]} outside component ({group.mul(g, f)},{group.mul(h, f)})",
                    )
    report.tally("bicomodule_left", len(arrows) * group.order)
    report.tally("bicomodule_right", len(arrows) * group.order)

    for a in arrows:
        g, h = a.target, a.source
        m = Element.of_path(action.ctx, quiver.arrow_path(a.index))
        for e in group.elements():
            for f in group.elements():
                ratio = phi(e, f, g) / phi(e, f, h)
                lhs = action.act_left(e, action.act_left(f, m))
                rhs = action.act_left(group.mul(e, f), m).scale(ratio)
                if lhs != rhs:
                    report.add("bimodule_left_assoc", (e, f, a.index))

                ratio = phi(h, e, f) / phi(g, e, f)
                lhs = action.act_right(action.act_right(m, e), f)
                rhs = action.act_right(m, group.mul(e, f)).scale(ratio)
                if lhs != rhs:
                    report.add("bimodule_right_assoc", (a.index, e, f))

                ratio = phi(e, h, f) / phi(e, g, f)
                lhs = action.act_right(action.act_left(e, m), f)
                rhs = action.act_left(e, action.act_right(m, f)).scale(ratio)
                if lhs != rhs:
                    report.add("bimodule_middle_assoc", (e, a.index, f))
    n2a = group.order * group.order * len(arrows)
    report.tally("bimodule_left_assoc", n2a)
    report.tally("bimodule_right_assoc", n2a)
    report.tally("bimodule_middle_assoc", n2a)
    return report


class MajidStructure:
    """The graded Majid algebra on kQ built from (quiver, Phi, action),
    truncated at the degree cap.

    Products, antipodes and the comultiplication (`splits`) of basis paths
    are memoized, each filled on first use; the caches behave as pure memos,
    so shared concurrent reads stay consistent.
    """

    def __init__(
        self,
        quiver: HopfQuiver,
        phi: Cocycle3,
        action: BimoduleAction,
        degree_cap: int,
    ):
        if degree_cap < 0:
            raise ValueError("degree cap must be >= 0")
        if phi.group is not quiver.group and phi.group.mult != quiver.group.mult:
            raise ValueError("cocycle and quiver use different groups")
        if action.quiver is not quiver:
            raise ValueError("action tables belong to a different quiver")
        self.quiver = quiver
        self.group = quiver.group
        self.phi = phi
        self.action = action
        self.degree_cap = degree_cap
        self.ctx = phi.ctx
        g = self.group
        self._beta = {
            v: phi(v, g.inv(v), v).inverse() for v in g.elements()
        }
        from .quiver import paths_up_to

        self._basis = paths_up_to(quiver, degree_cap)
        self._mul_cache: dict[tuple[Path, Path], Element] = {}
        self._antipode_cache: dict[Path, Element] = {}
        self._s1_cache: dict[int, Element] = {}
        self._splits_cache: dict[Path, list[tuple[Path, Path]]] = {}

    # -- bases ---------------------------------------------------------------

    def basis_up_to(self, cap: int | None = None) -> list[Path]:
        cap = self.degree_cap if cap is None else min(cap, self.degree_cap)
        out: list[Path] = []
        for d in range(cap + 1):
            out.extend(self._basis[d])
        return out

    def unit(self) -> Element:
        return Element.of_path(self.ctx, self.quiver.vertex_path(self.group.identity))

    def vertex(self, v: int) -> Element:
        return Element.of_path(self.ctx, self.quiver.vertex_path(v))

    def arrow(self, index: int) -> Element:
        return Element.of_path(self.ctx, self.quiver.arrow_path(index))

    def splits(self, p: Path) -> list[tuple[Path, Path]]:
        """Delta(p) as its (later, earlier) splits: `path_splits`, memoized."""
        out = self._splits_cache.get(p)
        if out is None:
            out = self._splits_cache[p] = path_splits(self.quiver, p)
        return out

    # -- the functionals ------------------------------------------------------

    def beta_of_path(self, p: Path) -> Scalar:
        return self._beta[p.source] if p.is_vertex() else self.ctx.zero()

    def beta(self, x: Element) -> Scalar:
        total = self.ctx.zero()
        for p, c in x.terms.items():
            if p.is_vertex():
                total = total + c * self._beta[p.source]
        return total

    def reassociator(self, x: Element, y: Element, z: Element) -> Scalar:
        """Trilinear extension of Phi; zero off the degree-(0,0,0) part."""
        return self._trilinear(self.phi, x, y, z)

    def reassociator_inverse(self, x: Element, y: Element, z: Element) -> Scalar:
        """Convolution inverse of the extended reassociator (pointwise on
        vertex triples, zero elsewhere)."""
        return self._trilinear(lambda a, b, c: self.phi(a, b, c).inverse(), x, y, z)

    def _trilinear(self, f, x: Element, y: Element, z: Element) -> Scalar:
        """Trilinear extension of f on vertex triples, zero elsewhere."""
        total = self.ctx.zero()
        for p, a in x.terms.items():
            if not p.is_vertex():
                continue
            for q, b in y.terms.items():
                if not q.is_vertex():
                    continue
                for r, c in z.terms.items():
                    if r.is_vertex():
                        total = total + a * b * c * f(p.source, q.source, r.source)
        return total

    # -- multiplication -------------------------------------------------------

    def multiply_paths(self, p: Path, q: Path) -> Element:
        key = (p, q)
        cached = self._mul_cache.get(key)
        if cached is not None:
            return cached
        n = len(p.arrows) + len(q.arrows)
        if n > self.degree_cap:
            raise DegreeCapExceeded(n, self.degree_cap)
        if n == 0:
            out = self.vertex(self.group.mul(p.source, q.source))
        else:
            jp, jq = self.quiver.junctions(p), self.quiver.junctions(q)
            right_of, left_of = self.action.right_of, self.action.left_of
            a, b = len(p.arrows), len(q.arrows)
            # G[i][j] as in the module docstring; G(0, 0) is the empty partial path
            G = [[None] * (b + 1) for _ in range(a + 1)]
            for i in range(a + 1):
                for j in range(b + 1):
                    if i == j == 0:
                        continue
                    g = _glue(G[i - 1][j], right_of(p.arrows[i - 1], jq[j])) if i else {}
                    if j:
                        for path, c in _glue(G[i][j - 1], left_of(jp[i], q.arrows[j - 1])).items():
                            g[path] = g[path] + c if path in g else c
                    G[i][j] = g
            out = Element(self.ctx, G[a][b])
        self._mul_cache[key] = out
        return out

    def multiply(self, x: Element, y: Element) -> Element:
        """Bilinear extension of the graded multiplication."""
        acc: dict[Path, Scalar] = {}
        for p, a in x.terms.items():
            for q, b in y.terms.items():
                add_scaled(acc, self.multiply_paths(p, q), a * b)
        return Element(self.ctx, acc)

    # -- quasi-antipode --------------------------------------------------------

    def antipode_arrow(self, index: int) -> Element:
        cached = self._s1_cache.get(index)
        if cached is not None:
            return cached
        a = self.quiver.arrow(index)
        g = self.group
        s, t = a.source, a.target
        s_inv, t_inv = g.inv(s), g.inv(t)
        prefactor = -(self.phi(s, s, s_inv) / self.phi(t, s, s_inv))
        core = self.action.act_right(
            self.action.act_left(t_inv, self.arrow(index)), s_inv
        )
        out = core.scale(prefactor)
        self._s1_cache[index] = out
        return out

    def antipode_path(self, p: Path) -> Element:
        cached = self._antipode_cache.get(p)
        if cached is not None:
            return cached
        if p.is_vertex():
            out = self.vertex(self.group.inv(p.source))
        else:
            # the legs S_1(a_1) (x) ... (x) S_1(a_n) glue in reversed order,
            # S_1(a_n) traversed first (coopposite source coalgebra)
            partial = None
            for idx in reversed(p.arrows):
                partial = _glue(partial, self.antipode_arrow(idx))
            out = Element(self.ctx, partial)
        self._antipode_cache[p] = out
        return out

    def antipode(self, x: Element) -> Element:
        if x.max_degree() > self.degree_cap:
            raise DegreeCapExceeded(x.max_degree(), self.degree_cap)
        acc: dict[Path, Scalar] = {}
        for p, c in x.terms.items():
            add_scaled(acc, self.antipode_path(p), c)
        return Element(self.ctx, acc)


def _glue(partial: dict[Path, Scalar] | None, leg: Element) -> dict[Path, Scalar]:
    """Glue the degree-1 `leg` after each partial path it starts where that
    path ends; `None` is the empty partial path, which takes every term."""
    if partial is None:
        return dict(leg.terms)
    out: dict[Path, Scalar] = {}
    for path, c in partial.items():
        for ap, c2 in leg.terms.items():
            if ap.source == path.target:
                np = Path(path.source, path.arrows + ap.arrows, ap.target)
                add = c.times(c2)
                out[np] = out[np] + add if np in out else add
    return out


# ---------------------------------------------------------------------------
# the full axiom verifier


def pairs_up_to(paths: list[Path], cap: int):
    """The pairs (p, q) of `paths` of total degree <= cap, in the order of a
    double loop over `paths`.  `paths` ascends in degree, so the candidates
    for q are a prefix of it."""
    degrees = [len(p.arrows) for p in paths]
    for p in paths:
        for q in paths[:bisect_right(degrees, cap - len(p.arrows))]:
            yield p, q


def verify_majid_axioms(structure: MajidStructure,
                        cocycle_report: VerificationReport | None = None) -> VerificationReport:
    """Check every Majid-algebra axiom on basis paths of total degree up to
    the structure's degree cap.

    Both sides of each axiom are evaluated literally with the extended
    reassociator and functionals, on every instance where a side can be
    nonzero.  The reassociator, its inverse, the counit and beta vanish off
    vertices, so three checks skip the instances where both sides are 0 by
    degree alone, whatever the data: (2.1) sums over the one split of each
    path that gives the reassociator vertex legs, (2.4) runs over the vertex
    pairs and (2.6) over the vertex paths.  Each tally still counts every
    instance the axiom covers: the triples of total degree <= cap for (2.1),
    `len(basis) ** 2` pairs for (2.4) and `len(basis)` paths for (2.6).
    The sweeps over every instance are kept as test oracles.

    The degree truncation means this is verification up to the cap, not a
    proof for the full infinite-dimensional algebra.  A caller that has run
    `verify_cocycle` on the structure's Phi passes that `cocycle_report` for (2.3).
    """
    S = structure
    ctx = S.ctx
    quiver = S.quiver
    group = S.group
    report = VerificationReport()
    basis = S.basis_up_to()
    element = {p: Element.of_path(ctx, p) for p in basis}
    eps = {p: counit(x) for p, x in element.items()}
    vertices = S.basis_up_to(0)
    unit = S.unit()
    one = ctx.one()
    e = group.identity

    # (2.1) quasi-associativity with the trivially extended reassociator.
    # Phi vanishes on a split triple unless its three reassociator legs are
    # vertices, and each path has exactly one split with a vertex right part,
    # (p, s(p)), for the lhs and one with a vertex left part, (t(p), p), for
    # the rhs: the sum is that one term on each side.  The triples (p, q, r)
    # of total degree <= cap run in basis order, r over the basis prefix
    # `prefix[d]` of the paths of degree <= d.
    cap = S.degree_cap
    prefix = [S.basis_up_to(d) for d in range(cap + 1)]
    count = 0
    for p, q in pairs_up_to(basis, cap):
        rs = prefix[cap - len(p.arrows) - len(q.arrows)]
        count += len(rs)
        pq = S.multiply_paths(p, q).terms
        phi_lhs = S.phi.values[p.source][q.source]
        phi_rhs = S.phi.values[p.target][q.target]
        for r in rs:
            lhs: dict[Path, Scalar] = {}
            coeff = phi_lhs[r.source]
            for t, c in S.multiply_paths(q, r).terms.items():
                add_scaled(lhs, S.multiply_paths(p, t), coeff.times(c))
            rhs: dict[Path, Scalar] = {}
            coeff = phi_rhs[r.target]
            for t, c in pq.items():
                add_scaled(rhs, S.multiply_paths(t, r), coeff.times(c))
            if _nonzero(lhs) != _nonzero(rhs):
                report.add("quasi_associativity", (p, q, r))
    report.tally("quasi_associativity", count)

    # (2.2) unit law
    for p in basis:
        x = element[p]
        if S.multiply(unit, x) != x or S.multiply(x, unit) != x:
            report.add("unit_law", (p,))
    report.tally("unit_law", len(basis))

    # multiplication is a coalgebra morphism
    count = 0
    for p, q in pairs_up_to(basis, cap):
        count += 1
        prod = S.multiply_paths(p, q)
        if not comultiplicative(S.splits, prod, (
            (S.multiply_paths(p1, q1), S.multiply_paths(p2, q2))
            for p1, p2 in S.splits(p)
            for q1, q2 in S.splits(q)
        )):
            report.add("multiplication_comultiplicative", (p, q))
        if counit(prod) != eps[p] * eps[q]:
            report.add("multiplication_counital", (p, q))
    report.tally("multiplication_comultiplicative", count)
    report.tally("multiplication_counital", count)

    # (2.3) cocycle identity on group-likes (the reassociator restriction)
    from .groups import verify_cocycle

    if cocycle_report is None:
        cocycle_report = verify_cocycle(group, S.phi)
    report.merge(cocycle_report, prefix="reassociator_")

    # (2.4) normalization against the counit; off the vertex pairs the
    # reassociator and eps(p) eps(q) are both 0
    middle = S.vertex(e)
    for p in vertices:
        for q in vertices:
            if S.reassociator(element[p], middle, element[q]) != eps[p] * eps[q]:
                report.add("normalization_middle_unit", (p, q))
    report.tally("normalization_middle_unit", len(basis) ** 2)

    # (2.5) the two antipode laws, evaluated on three-fold splittings
    for p in basis:
        lhs_a: dict[Path, Scalar] = {}
        lhs_b: dict[Path, Scalar] = {}
        for t1, t2, t3 in path_splits(quiver, p, 3):
            # alpha is the counit: 1 on vertices, 0 on longer paths
            if t2.is_vertex():
                add_scaled(lhs_a, S.multiply(S.antipode_path(t1), element[t3]), one)
            bv = S.beta_of_path(t2)
            if not bv.is_zero():
                add_scaled(lhs_b, S.multiply(element[t1], S.antipode_path(t3)), bv)
        if Element(ctx, lhs_a) != unit.scale(eps[p]):
            report.add("antipode_alpha_law", (p,))
        if Element(ctx, lhs_b) != unit.scale(S.beta(element[p])):
            report.add("antipode_beta_law", (p,))
    report.tally("antipode_alpha_law", len(basis))
    report.tally("antipode_beta_law", len(basis))

    # (2.6) the functional identities on five-fold splittings.  The antipode
    # keeps the degree, so a term is nonzero only when all five parts are
    # vertices; a longer path has a longer part in every split, and both
    # sides are 0 on it
    for p in vertices:
        total_fwd = ctx.zero()
        total_inv = ctx.zero()
        for t1, t2, t3, t4, t5 in path_splits(quiver, p, 5):
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

    # S is a coalgebra antimorphism
    for p in basis:
        sp = S.antipode_path(p)
        if not comultiplicative(
            S.splits, sp, ((S.antipode_path(p2), S.antipode_path(p1)) for p1, p2 in S.splits(p))
        ):
            report.add("antipode_antimorphism", (p,))
        if counit(sp) != eps[p]:
            report.add("antipode_counital", (p,))
    report.tally("antipode_antimorphism", len(basis))
    report.tally("antipode_counital", len(basis))

    return report
