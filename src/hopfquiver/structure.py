"""Block decomposition, translation maps, the twisted crossed product, and
primitive-element extraction for graded Majid algebras on Hopf quivers.

The connected components of Q(G, R) are the cosets of the normal subgroup N
generated by the ramified classes; right translation by a vertex maps the
principal block onto any other block, and the whole algebra is recovered from
the principal block as a crossed product with the coset space, twisted by a
2-cocycle sigma into N and a scalar Theta made of eight reassociator values.

The product of the crossed product is the one formula

    (p (x) u)(q (x) v) = Theta(p, q, u, v) p (u |> q) (x) sigma(u, v) uv-bar,

with u |> q = u (q u^-1) and Theta the eight-factor ratio of `theta`.
`crossed_product` evaluates it on every basis pair up to the cap and checks
that p (x) u -> p u transports it to the product of H; the first pair that
fails is raised as the witness of `IsoCheckFailed`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import Scalar
from .errors import DegreeCapExceeded, IsoCheckFailed, NotSingleVertex
from .groups import subgroup_generated
from .majid import MajidStructure, _associates, pairs_up_to
from .pathcoalg import Element, _add_scaled, comultiplicative
from .quiver import Path, connected_components
from .report import VerificationReport

# ---------------------------------------------------------------------------
# exact linear algebra (small dense systems over the cyclotomic field)


def matrix_rank(rows: list[list[Scalar]]) -> int:
    """Rank by fraction-free-ish Gaussian elimination (exact division)."""
    if not rows:
        return 0
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = None
        for r in range(rank, len(rows)):
            if not rows[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            c = rows[r][col]
            if not c.is_zero():
                factor = c / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# blocks


@dataclass
class BlockDecomposition:
    normal_subgroup: tuple[int, ...]
    coset_reps: tuple[int, ...]            # identity first, then by min element
    rep_of_vertex: tuple[int, ...]         # vertex -> its coset representative
    blocks: dict[int, list[Path]]          # rep -> basis paths (degree <= cap)
    vertex_sets: dict[int, tuple[int, ...]]

    @property
    def principal_rep(self) -> int:
        return self.coset_reps[0]

    def to_json(self):
        return {
            "normal_subgroup": list(self.normal_subgroup),
            "coset_reps": list(self.coset_reps),
            "blocks": {
                str(rep): {
                    "vertices": list(self.vertex_sets[rep]),
                    "basis_counts": _degree_counts(self.blocks[rep]),
                }
                for rep in self.coset_reps
            },
        }


def _degree_counts(paths: list[Path]) -> dict[str, int]:
    out: dict[str, int] = {}
    for p in paths:
        key = str(len(p.arrows))
        out[key] = out.get(key, 0) + 1
    return out


def blocks(structure: MajidStructure) -> BlockDecomposition:
    """Decompose the basis into blocks indexed by cosets of N = <ramified classes>."""
    group = structure.group
    quiver = structure.quiver
    support = quiver.ram.support_elements(group)
    subgroup, index = subgroup_generated(group, support)
    comps = connected_components(quiver)
    if len(comps.components) != index:
        raise AssertionError(
            f"component count {len(comps.components)} != index [G:N] = {index}"
        )
    reps = []
    for comp in comps.components:
        if group.identity in comp:
            reps.append(group.identity)
        else:
            reps.append(min(comp))
    # identity's coset first, the rest by representative
    reps.sort(key=lambda r: (r != group.identity, r))
    rep_of_vertex = [None] * group.order
    vertex_sets = {}
    for rep in reps:
        comp = comps.component_vertices(rep)
        vertex_sets[rep] = comp
        for v in comp:
            rep_of_vertex[v] = rep
    block_paths: dict[int, list[Path]] = {rep: [] for rep in reps}
    for p in structure.basis_up_to():
        block_paths[rep_of_vertex[p.source]].append(p)
    assert set(subgroup) == set(vertex_sets[group.identity]), "principal block vertices must be N"
    return BlockDecomposition(
        subgroup, tuple(reps), tuple(rep_of_vertex), block_paths, vertex_sets
    )


def translate(structure: MajidStructure, p: Path, g: int) -> Element:
    """Right translation Tr_g: p -> p * g (multiplication by the vertex g),
    read from the product memo."""
    return structure.multiply_paths(p, structure.quiver.vertex_path(g))


def verify_translations(structure: MajidStructure) -> VerificationReport:
    """Check that every Tr_g is a degree-preserving coalgebra bijection from
    the principal block onto the block of g, for basis paths up to the cap."""
    S = structure
    dec = blocks(S)
    group = S.group
    report = VerificationReport()
    principal = dec.blocks[dec.principal_rep]
    by_degree: dict[int, list[Path]] = {}
    for p in principal:
        by_degree.setdefault(len(p.arrows), []).append(p)

    for g in group.elements():
        target_rep = dec.rep_of_vertex[g]
        target_paths = {
            d: [p for p in dec.blocks[target_rep] if len(p.arrows) == d]
            for d in by_degree
        }
        for d, sources in sorted(by_degree.items()):
            cols = {p: i for i, p in enumerate(target_paths[d])}
            ok_support = True
            matrix = []
            for p in sources:
                img = translate(S, p, g)
                if not img.is_homogeneous(d):
                    report.add("translation_graded", (g, p), "image not homogeneous")
                row = [S.ctx.zero()] * len(cols)
                for q, c in img.terms.items():
                    if q not in cols:
                        report.add(
                            "translation_block", (g, p), f"image leaves block {target_rep}"
                        )
                        ok_support = False
                    else:
                        row[cols[q]] = c
                matrix.append(row)
            report.tally("translation_graded", len(sources))
            report.tally("translation_block", len(sources))
            if ok_support:
                if len(sources) != len(cols) or matrix_rank(matrix) != len(sources):
                    report.add(
                        "translation_bijective", (g, d),
                        f"rank deficiency on degree-{d} basis",
                    )
            report.tally("translation_bijective", 1)
            # coalgebra morphism: Delta(p g) = sum p1 g (x) p2 g
            for p in sources:
                if not comultiplicative(S.splits, translate(S, p, g), (
                    (translate(S, p1, g), translate(S, p2, g)) for p1, p2 in S.splits(p)
                )):
                    report.add("translation_comultiplicative", (g, p))
            report.tally("translation_comultiplicative", len(sources))
    return report


def block_product_check(structure: MajidStructure) -> VerificationReport:
    """Products respect blocks (H_(g) H_(h) inside H_(gh)) and the antipode
    sends the block of g into the block of g^-1."""
    S = structure
    dec = blocks(S)
    group = S.group
    report = VerificationReport()
    basis = S.basis_up_to()
    count = 0
    for p, q in pairs_up_to(basis, S.degree_cap):
        count += 1
        expected = dec.rep_of_vertex[group.mul(p.source, q.source)]
        for r in S.multiply_paths(p, q).terms:
            if dec.rep_of_vertex[r.source] != expected:
                report.add("block_product", (p, q), f"term escapes block {expected}")
                break
    report.tally("block_product", count)
    for p in basis:
        expected = dec.rep_of_vertex[group.inv(p.source)]
        for r in S.antipode_path(p).terms:
            if dec.rep_of_vertex[r.source] != expected:
                report.add("block_antipode", (p,), f"term escapes block {expected}")
                break
    report.tally("block_antipode", len(basis))
    return report


# ---------------------------------------------------------------------------
# the crossed product


def theta(structure: MajidStructure, p: Path, q: Path, u: int, v: int) -> Scalar:
    """The eight-factor reassociator ratio Theta(p, q, u, v).

    With s/t the source/target vertices of the principal-block paths p and q,
    it is

        Phi(s(p), u, s(q)v) Phi(s(q), u^-1, uv) Phi(u, t(q)u^-1, uv) Phi(t(p), t(q), uv)
        -----------------------------------------------------------------------------
        Phi(t(p), u, t(q)v) Phi(t(q), u^-1, uv) Phi(u, s(q)u^-1, uv) Phi(s(p), s(q), uv)

    i.e. numerator and denominator differ by swapping s and t everywhere,
    including inside the conjugated argument of the third factor.
    """
    g = structure.group
    phi = structure.phi
    sp, tp = p.source, p.target
    sq, tq = q.source, q.target
    uinv = g.inv(u)
    uv = g.mul(u, v)
    num = (
        phi(sp, u, g.mul(sq, v))
        * phi(sq, uinv, uv)
        * phi(u, g.mul(tq, uinv), uv)
        * phi(tp, tq, uv)
    )
    den = (
        phi(tp, u, g.mul(tq, v))
        * phi(tq, uinv, uv)
        * phi(u, g.mul(sq, uinv), uv)
        * phi(sp, sq, uv)
    )
    return num / den


@dataclass
class CrossedProduct:
    """The crossed product of the principal block with the coset space.

    `sigma` is the 2-cocycle u,v -> u v (uv-bar)^-1 into N attached to the
    minimal-index transversal.
    """

    structure: MajidStructure
    decomposition: BlockDecomposition
    coset_reps: tuple[int, ...]
    sigma: dict[tuple[int, int], int]
    iso_report: VerificationReport

    def to_json(self):
        g = self.structure.group
        sig = {
            f"{u},{v}": n for (u, v), n in sorted(self.sigma.items())
        }
        samples = []
        principal = [
            p for p in self.decomposition.blocks[self.decomposition.principal_rep]
            if len(p.arrows) <= 2
        ]
        for p in principal[:4]:
            for q in principal[:4]:
                for u in self.coset_reps:
                    for v in self.coset_reps:
                        if len(samples) >= 20:
                            break
                        samples.append(
                            {
                                "p": p.to_json(),
                                "q": q.to_json(),
                                "u": u,
                                "v": v,
                                "theta": theta(self.structure, p, q, u, v).to_json(),
                            }
                        )
        return {
            "normal_subgroup": list(self.decomposition.normal_subgroup),
            "coset_reps": list(self.coset_reps),
            "sigma": sig,
            # the name of the one formula; kept so the report layout is stable
            "reading": "literal",
            "theta_samples": samples,
            "iso_check": self.iso_report.to_json(),
            "group_order": g.order,
        }


def _conjugate(structure: MajidStructure, u: int, q: Path) -> Element:
    """u |> q = u (q u^-1), both products via the graded multiplication."""
    S = structure
    return S.multiply(S.vertex(u), translate(S, q, S.group.inv(u)))


def _transport_rhs(structure: MajidStructure, p: Path, u_q: Element, uv: int,
                   factor: Scalar) -> Element:
    """Image in H of (p (x) u)(q (x) v) under p (x) u -> p u, given u_q = u |> q
    and factor = Theta(p, q, u, v); the second slot sigma(u, v) uv-bar is the
    single group element uv, so the image is factor (p u_q) uv, summed term
    by term over the product memo."""
    S = structure
    w = S.quiver.vertex_path(uv)
    acc: dict[Path, Scalar] = {}
    for t, c in u_q.terms.items():
        c = factor.times(c)
        for s, c2 in S.multiply_paths(p, t).terms.items():
            _add_scaled(acc, S.multiply_paths(s, w).terms, c.times(c2))
    return Element(S.ctx, acc)


def crossed_product(structure: MajidStructure) -> CrossedProduct:
    """Build the crossed product and verify the multiplicative transport of
    the isomorphism p u -> p (x) u on all basis pairs of total degree up to
    the cap.

    Each translation p u is read from the product memo, and each conjugate
    u |> q and each Theta value (which reads only the end vertices of p and
    q) is computed once per call.
    Raises IsoCheckFailed with the first pair that does not transport (which
    would indicate an implementation defect, not a failure of the theory).
    """
    S = structure
    dec = blocks(S)
    g = S.group
    reps = dec.coset_reps
    sigma = {}
    for u in reps:
        for v in reps:
            uv = g.mul(u, v)
            wbar = dec.rep_of_vertex[uv]
            sigma[(u, v)] = g.mul(uv, g.inv(wbar))
    assert all(n in set(dec.normal_subgroup) for n in sigma.values())

    pairs = [
        (p, u, q, v)
        for p, q in pairs_up_to(dec.blocks[dec.principal_rep], S.degree_cap)
        for u in reps
        for v in reps
    ]
    conjugated: dict[tuple[int, Path], Element] = {}
    thetas: dict[tuple[int, ...], Scalar] = {}
    for p, u, q, v in pairs:
        if (u, q) not in conjugated:
            conjugated[(u, q)] = _conjugate(S, u, q)
        ends = (p.source, p.target, q.source, q.target, u, v)
        if ends not in thetas:
            thetas[ends] = theta(S, p, q, u, v)
        lhs = S.multiply(translate(S, p, u), translate(S, q, v))
        if lhs != _transport_rhs(S, p, conjugated[(u, q)], g.mul(u, v), thetas[ends]):
            raise IsoCheckFailed((p, u, q, v))
    report = VerificationReport()
    report.tally("crossed_product_transport", len(pairs))
    return CrossedProduct(S, dec, reps, sigma, report)


# ---------------------------------------------------------------------------
# primitives and the Lie bracket (one-vertex quivers)


@dataclass
class LieData:
    """Degree-1 primitives of a one-vertex structure and their commutators."""

    loop_arrows: tuple[int, ...]
    brackets: dict[tuple[int, int], Element]
    report: VerificationReport

    def to_json(self):
        return {
            "loops": list(self.loop_arrows),
            "brackets": {
                f"{i},{j}": el.to_json() for (i, j), el in sorted(self.brackets.items())
            },
            "report": self.report.to_json(),
        }


def primitives(structure: MajidStructure) -> LieData:
    """Extract the degree-1 primitives (the loops), their commutators, and
    check primitivity, associativity on primitives, antisymmetry and Jacobi.

    Associativity and Jacobi multiply three primitives, so the structure
    must be capped at degree 3 or more; below that DegreeCapExceeded is
    raised before any check runs.
    """
    S = structure
    if S.quiver.num_vertices != 1:
        raise NotSingleVertex(S.quiver.num_vertices)
    if S.degree_cap < 3:
        raise DegreeCapExceeded(3, S.degree_cap)
    quiver = S.quiver
    report = VerificationReport()
    loops = tuple(a.index for a in quiver.arrows)
    unit = S.unit()

    for idx in loops:
        x = S.arrow(idx)
        if not comultiplicative(S.splits, x, [(x, unit), (unit, x)]):
            report.add("primitive", (quiver.arrow_path(idx),))
    report.tally("primitive", len(loops))

    def bracket(x: Element, y: Element) -> Element:
        return S.multiply(x, y) - S.multiply(y, x)

    elems = {i: S.arrow(i) for i in loops}
    brackets = {(i, j): bracket(elems[i], elems[j]) for i in loops for j in loops}

    for i in loops:
        for j in loops:
            if brackets[(i, j)] != -brackets[(j, i)]:
                report.add("bracket_antisymmetry", (i, j))
    report.tally("bracket_antisymmetry", len(loops) ** 2)

    # (2.1) on the loop triples; one vertex makes both Phi factors Phi(v, v, v)
    ap = quiver.arrow_path
    count = 0
    for i in loops:
        for j in loops:
            for k in loops:
                count += 1
                if _associates(S, ap(i), ap(j), [ap(k)]):
                    report.add("primitive_associativity", (i, j, k))
    report.tally("primitive_associativity", count)

    count = 0
    for i in loops:
        for j in loops:
            for k in loops:
                count += 1
                x, y, z = elems[i], elems[j], elems[k]
                jac = (
                    bracket(x, bracket(y, z))
                    + bracket(y, bracket(z, x))
                    + bracket(z, bracket(x, y))
                )
                if not jac.is_zero():
                    report.add("jacobi", (i, j, k))
    report.tally("jacobi", count)

    # bracket closure inside the degree-filtered span: commutators of the
    # degree-1 primitives must stay expressible over the recorded brackets
    span_paths = set()
    for b in brackets.values():
        span_paths.update(b.terms)
    for (i, j), b in brackets.items():
        if any(p not in span_paths for p in b.terms):
            report.add("bracket_closure", (i, j))
    report.tally("bracket_closure", len(brackets))

    return LieData(loops, brackets, report)


def cocommutative_check(structure: MajidStructure) -> tuple[bool, Path | None]:
    """Is Delta = Delta^op on all basis paths up to the cap?  Scans degrees
    in ascending order and returns the first witness path on failure."""
    S = structure
    ctx = S.ctx
    for p in S.basis_up_to():
        if not comultiplicative(S.splits, Element.of_path(ctx, p), (
            (Element.of_path(ctx, p2), Element.of_path(ctx, p1))
            for p1, p2 in S.splits(p)
        )):
            return False, p
    return True, None
