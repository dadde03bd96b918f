"""The path coalgebra of a quiver: sparse path elements, counit,
comultiplication, and the one coalgebra-map check `comultiplicative`.

Comultiplication splits a path at every junction,

    Delta(a_n ... a_1) = p (x) s(a_1)
                         + sum_i  a_n ... a_(i+1) (x) a_i ... a_1
                         + t(a_n) (x) p ,

so the first tensor leg always carries the *later* portion of the path;
`path_splits(quiver, p)` lists these n+1 (later, earlier) pairs.
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
        return Element(self.ctx, {p: scalar.times(c) for p, c in self.terms.items()})

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


def _add_scaled(acc: dict[Path, Scalar], terms: Mapping[Path, Scalar], c: Scalar) -> None:
    """Add c * terms, for a nonzero c, into the coefficient dict `acc` in
    place: the one accumulation kernel of the product sums.  A coefficient
    that cancels is deleted, so `acc` holds no zero coefficient when it held
    none.

    Each product and sum is read from c's context memos by the operands'
    keys, a unit factor giving the other one, and a unit c adds into an
    empty `acc` by `dict.update`; a miss, or an unkeyed operand once the
    intern table is full, goes to `Scalar.times` and `Scalar.plus`."""
    ctx = c.ctx
    one, zero, products, sums = ctx._one, ctx._zero, ctx._products, ctx._sums
    unit = c is one or c.is_one()
    if unit and not acc:
        acc.update(terms)
        return
    ck = c.key
    for p, v in terms.items():
        if not unit:
            if v is one:
                v = c
            else:
                w = products.get((ck, v.key))
                v = c.times(v) if w is None else w
        old = acc.get(p)
        if old is None:
            acc[p] = v
            continue
        s = sums.get((old.key, v.key))
        if s is None:
            s = old.plus(v)
            if s.is_zero():
                s = zero
        if s is zero:
            del acc[p]
        else:
            acc[p] = s


def _accumulate(acc: dict, key, c: Scalar) -> None:
    """acc[key] += c for a nonzero c, deleting the entry when it cancels; the
    one-term step of the coalgebra-map check's right side and the glue."""
    if key in acc:
        c = acc[key].plus(c)
        if c.is_zero():
            del acc[key]
            return
    acc[key] = c


def _plain_path_name(p: Path) -> str:
    if p.is_vertex():
        return f"g{p.source}"
    return "".join(f"a{i}" for i in reversed(p.arrows))


# ---------------------------------------------------------------------------
# the coalgebra structure maps


def path_splits(quiver: HopfQuiver, p: Path) -> list[tuple[Path, Path]]:
    """Delta(p) as its (later, earlier) pairs, the earlier part holding the
    first i arrows, i = 0 .. n."""
    junctions = quiver.junctions(p)
    arrows, n = p.arrows, len(p.arrows)
    return [
        (Path(junctions[i], arrows[i:], junctions[n]), Path(p.source, arrows[:i], junctions[i]))
        for i in range(n + 1)
    ]


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
    `{(Path, Path): Scalar}` dicts that hold no zero coefficient, compared
    directly.  Delta(x) sums nothing: a split concatenates back to its path,
    so the splits of distinct paths are distinct pairs."""
    lhs = {pair: c for p, c in x.terms.items() for pair in splits(p)}
    rhs: dict[tuple[Path, Path], Scalar] = {}
    for y, z in pairs:
        for yp, yc in y.terms.items():
            unit = yc.is_one()
            for zp, zc in z.terms.items():
                _accumulate(rhs, (yp, zp), zc if unit else yc.times(zc))
    return lhs == rhs


def counit(x: Element) -> Scalar:
    """Sum of the coefficients of the length-0 paths."""
    total = x.ctx.zero()
    for p, c in x.terms.items():
        if p.is_vertex():
            total = total + c
    return total
