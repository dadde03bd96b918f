"""The path coalgebra of a quiver: sparse path elements, counit,
comultiplication, and the one coalgebra-map check `comultiplicative`.

Comultiplication splits a path at every junction,

    Delta(a_n ... a_1) = p (x) s(a_1)
                         + sum_i  a_n ... a_(i+1) (x) a_i ... a_1
                         + t(a_n) (x) p ,

so the first tensor leg always carries the *later* portion of the path.  By
coassociativity the iterated comultiplication Delta^(k-1)(p) is the sum of the
splittings of p into k consecutive parts, latest part first, each with
coefficient 1; `path_splits(quiver, p, k)` lists them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .cyclotomic import FieldContext, Scalar
from .quiver import HopfQuiver, Path


class Element:
    """A finitely supported scalar combination of paths (no zero terms)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldContext, terms: Mapping[Path, Scalar] | None = None):
        self.ctx = ctx
        clean: dict[Path, Scalar] = {}
        if terms:
            for p, c in terms.items():
                if not c.is_zero():
                    clean[p] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(ctx: FieldContext) -> "Element":
        return Element(ctx)

    @staticmethod
    def of_path(ctx: FieldContext, path: Path, coeff: Scalar | int | None = None) -> "Element":
        c = ctx.one() if coeff is None else ctx.scalar(coeff)
        return Element(ctx, {path: c})

    # -- structure queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Path]:
        return sorted(self.terms, key=Path.sort_key)

    def max_degree(self) -> int:
        return max((len(p.arrows) for p in self.terms), default=0)

    def is_homogeneous(self, degree: int) -> bool:
        return all(len(p.arrows) == degree for p in self.terms)

    # -- linear algebra -----------------------------------------------------

    def _require_same_field(self, other: "Element"):
        if other.ctx.order != self.ctx.order:
            raise ValueError("cannot mix elements over different field contexts")

    def __add__(self, other: "Element") -> "Element":
        self._require_same_field(other)
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out[p] + c if p in out else c
        return Element(self.ctx, out)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.ctx, {p: -c for p, c in self.terms.items()})

    def scale(self, scalar: Scalar) -> "Element":
        return Element(self.ctx, {p: scalar * c for p, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.ctx.order == self.ctx.order
            and other.terms == self.terms
        )

    def __repr__(self):
        return f"Element({self.format()})"

    def format(self, quiver: HopfQuiver | None = None) -> str:
        if not self.terms:
            return "0"
        parts = []
        for p in self.support():
            c = self.terms[p]
            name = quiver.format_path(p) if quiver else _plain_path_name(p)
            cf = c.format()
            parts.append(name if cf == "1" else f"({cf})*{name}")
        return " + ".join(parts)

    def to_json(self):
        return [
            {"source": p.source, "arrows": list(p.arrows), "coeff": self.terms[p].to_json()}
            for p in self.support()
        ]


def add_scaled(acc: dict[Path, Scalar], x: Element, c: Scalar) -> None:
    """Add c * x into the coefficient dict `acc` in place; a unit c adds x's
    coefficients as they are.  `acc` may hold zero coefficients; the
    `Element` built from it at the end drops them."""
    if c.is_one():
        for p, xc in x.terms.items():
            acc[p] = acc[p] + xc if p in acc else xc
        return
    for p, xc in x.terms.items():
        t = c.times(xc)
        acc[p] = acc[p] + t if p in acc else t


def _plain_path_name(p: Path) -> str:
    if p.is_vertex():
        return f"g{p.source}"
    return "".join(f"a{i}" for i in reversed(p.arrows))


def element_from_json(ctx: FieldContext, quiver: HopfQuiver, data: Iterable[dict]) -> Element:
    terms: dict[Path, Scalar] = {}
    for item in data:
        p = quiver.path(item["source"], item.get("arrows", []))
        c = ctx.scalar(item["coeff"])
        terms[p] = terms[p] + c if p in terms else c
    return Element(ctx, terms)


# ---------------------------------------------------------------------------
# the coalgebra structure maps


def path_splits(quiver: HopfQuiver, p: Path, k: int = 2) -> list[tuple[Path, ...]]:
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


def comultiplicative(
    splits: Callable[[Path], list[tuple[Path, Path]]],
    x: Element,
    pairs: Iterable[tuple[Element, Element]],
) -> bool:
    """Is Delta(x) the sum of y (x) z over the (y, z) in `pairs`?

    The one coalgebra-map check: f is a coalgebra map when this holds for
    x = f(p) and the pairs (f(p1), f(p2)) over the splits of each basis
    path p, and an anti-map with the pairs (f(p2), f(p1)).  `splits(p)`
    is Delta of a path as its (later, earlier) pairs, `path_splits` for the
    quiver or a memo of it such as `MajidStructure.splits`.  Both sides are
    `{(Path, Path): Scalar}` dicts, compared with zero terms dropped."""
    lhs: dict[tuple[Path, Path], Scalar] = {}
    for p, c in x.terms.items():
        for pair in splits(p):
            lhs[pair] = lhs[pair] + c if pair in lhs else c
    rhs: dict[tuple[Path, Path], Scalar] = {}
    for y, z in pairs:
        for yp, yc in y.terms.items():
            unit = yc.is_one()
            for zp, zc in z.terms.items():
                key = (yp, zp)
                c = zc if unit else yc.times(zc)
                rhs[key] = rhs[key] + c if key in rhs else c
    return _nonzero(lhs) == _nonzero(rhs)


def _nonzero(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if not c.is_zero()}


def counit(x: Element) -> Scalar:
    """Sum of the coefficients of the length-0 paths."""
    total = x.ctx.zero()
    for p, c in x.terms.items():
        if p.is_vertex():
            total = total + c
    return total
