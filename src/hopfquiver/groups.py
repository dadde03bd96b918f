"""Finite groups as multiplication tables, plus normalized 3-cocycles.

Elements are bare indices 0..n-1.  All constructors in this module place the
identity at index 0; `build_group` itself only requires that a two-sided
identity exists somewhere.  Conjugacy classes are listed sorted by their
minimal element, and each class is sorted, so every derived enumeration is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .cyclotomic import FieldContext, Scalar
from .errors import (
    MalformedCocycleTable,
    NoIdentity,
    NoInverse,
    NotAssociative,
    RootNotInField,
    ZeroCocycleValue,
)
from .report import VerificationReport


class FiniteGroup:
    """A finite group given by its full multiplication table."""

    __slots__ = ("mult", "order", "identity", "inverse", "classes", "class_of")

    def __init__(self, mult, identity, inverse, classes, class_of):
        self.mult = mult
        self.order = len(mult)
        self.identity = identity
        self.inverse = inverse
        self.classes = classes
        self.class_of = class_of

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, classes={len(self.classes)})"


def build_group(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Validate a multiplication table and derive identity/inverses/classes.

    Raises NotAssociative, NoIdentity or NoInverse with the witnessing data.
    """
    n = len(table)
    mult = tuple(tuple(row) for row in table)
    for a, row in enumerate(mult):
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise ValueError(f"row {a} of the multiplication table is not a map into 0..{n - 1}")
    for a in range(n):
        ra = mult[a]
        for b in range(n):
            rab = mult[ra[b]]
            rb = mult[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    raise NotAssociative((a, b, c))
    identity = None
    for e in range(n):
        if all(mult[e][x] == x and mult[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity()
    inverse = [None] * n
    for a in range(n):
        for b in range(n):
            if mult[a][b] == identity and mult[b][a] == identity:
                inverse[a] = b
                break
        if inverse[a] is None:
            raise NoInverse(a)
    # conjugation orbits, deterministically ordered
    class_of = [None] * n
    classes = []
    for x in range(n):
        if class_of[x] is not None:
            continue
        orbit = sorted({mult[mult[g][x]][inverse[g]] for g in range(n)})
        idx = len(classes)
        classes.append(tuple(orbit))
        for y in orbit:
            class_of[y] = idx
    return FiniteGroup(mult, identity, tuple(inverse), tuple(classes), tuple(class_of))


# ---------------------------------------------------------------------------
# constructors for the usual small groups (identity always at index 0)


def cyclic_group(n: int) -> FiniteGroup:
    return build_group([[(i + j) % n for j in range(n)] for i in range(n)])


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element i+n*f is rotation i, flip f."""
    if n < 1:
        raise ValueError("dihedral parameter must be >= 1")

    def mul(a, b):
        i, f = a % n, a // n
        j, g = b % n, b // n
        if f == 0:
            return (i + j) % n + n * g
        return (i - j) % n + n * (1 - g)

    order = 2 * n
    return build_group([[mul(a, b) for b in range(order)] for a in range(order)])


def _perm_group(perms: list[tuple[int, ...]]) -> FiniteGroup:
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(len(q)))] for q in perms]
        for p in perms
    ]
    return build_group(table)


def symmetric_group(n: int) -> FiniteGroup:
    return _perm_group([tuple(p) for p in permutations(range(n))])


def alternating_group(n: int) -> FiniteGroup:
    evens = []
    for p in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]
        )
        if inversions % 2 == 0:
            evens.append(tuple(p))
    return _perm_group(evens)


def quaternion_group() -> FiniteGroup:
    return dicyclic_group(2)


def dicyclic_group(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n: a^(2n)=1, b^2=a^n, b a b^-1 = a^-1."""
    if n < 1:
        raise ValueError("dicyclic parameter must be >= 1")
    m = 2 * n

    def mul(x, y):
        i, f = x % m, x // m
        j, g = y % m, y // m
        if f == 0:
            return (i + j) % m + m * g
        if g == 0:
            return (i - j) % m + m
        return (i - j + n) % m

    order = 4 * n
    return build_group([[mul(a, b) for b in range(order)] for a in range(order)])


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with pairs ordered lexicographically."""
    nh = h.order

    def enc(a, b):
        return a * nh + b

    table = [
        [
            enc(g.mul(a1, a2), h.mul(b1, b2))
            for a2 in g.elements()
            for b2 in h.elements()
        ]
        for a1 in g.elements()
        for b1 in h.elements()
    ]
    return build_group(table)


def small_groups(max_order: int = 12) -> list[tuple[str, FiniteGroup]]:
    """One representative per isomorphism class of groups of order <= 12."""
    z = cyclic_group

    def prod(*gs):
        out = gs[0]
        for g in gs[1:]:
            out = direct_product(out, g)
        return out

    catalog = [
        ("Z1", z(1)),
        ("Z2", z(2)),
        ("Z3", z(3)),
        ("Z4", z(4)),
        ("Z2xZ2", prod(z(2), z(2))),
        ("Z5", z(5)),
        ("Z6", z(6)),
        ("S3", symmetric_group(3)),
        ("Z7", z(7)),
        ("Z8", z(8)),
        ("Z4xZ2", prod(z(4), z(2))),
        ("Z2xZ2xZ2", prod(z(2), z(2), z(2))),
        ("D4", dihedral_group(4)),
        ("Q8", quaternion_group()),
        ("Z9", z(9)),
        ("Z3xZ3", prod(z(3), z(3))),
        ("Z10", z(10)),
        ("D5", dihedral_group(5)),
        ("Z11", z(11)),
        ("Z12", z(12)),
        ("Z6xZ2", prod(z(6), z(2))),
        ("D6", dihedral_group(6)),
        ("A4", alternating_group(4)),
        ("Dic3", dicyclic_group(3)),
    ]
    return [(name, g) for name, g in catalog if g.order <= max_order]


# ---------------------------------------------------------------------------
# normalized 3-cocycles


@dataclass(frozen=True)
class Cocycle3:
    """A table Phi: G^3 -> k*, intended to be a normalized 3-cocycle.

    Validity is established by `verify_cocycle`, never assumed.
    """

    group: FiniteGroup
    ctx: FieldContext
    values: tuple  # nested n x n x n tuple of Scalar

    def __call__(self, a: int, b: int, c: int) -> Scalar:
        return self.values[a][b][c]

    def with_entry(self, a: int, b: int, c: int, value: Scalar) -> "Cocycle3":
        """Copy with one table entry replaced (for mutation experiments)."""
        values = [[list(row) for row in plane] for plane in self.values]
        values[a][b][c] = value
        return Cocycle3(
            self.group,
            self.ctx,
            tuple(tuple(tuple(row) for row in plane) for plane in values),
        )


def _entry_key(raw):
    """The parse-memo key of one table entry: its type and value, and for a
    coordinate list the type and value of each coordinate.  The type is part
    of the key because 1 == True and hash(1) == hash(True), so a key of the
    value alone would read `true` as an earlier `1`."""
    if isinstance(raw, (list, tuple)):
        return type(raw), tuple((type(x), x) for x in raw)
    return type(raw), raw


def _checked_rows(table, index: tuple, n: int, what: str):
    if not isinstance(table, (list, tuple)) or len(table) != n:
        raise MalformedCocycleTable(index, f"is not a list of {n} {what}")
    return table


def cocycle_from_table(group: FiniteGroup, ctx: FieldContext, values) -> Cocycle3:
    """Wrap a dense n x n x n value table, rejecting zero entries.

    A plane, row or entry that is not of that shape, or an entry that is not
    a scalar, raises MalformedCocycleTable at its index.  Equal entries (by
    `_entry_key`) are parsed once and share one Scalar.
    """
    n = group.order
    parsed = {}
    out = []
    for a, plane in enumerate(_checked_rows(values, (), n, "planes")):
        out_plane = []
        for b, row in enumerate(_checked_rows(plane, (a,), n, "rows")):
            out_row = []
            for c, raw in enumerate(_checked_rows(row, (a, b), n, "values")):
                try:
                    key = _entry_key(raw)
                    v = parsed.get(key)
                    if v is None:
                        v = parsed[key] = ctx.scalar(raw)
                except (TypeError, ValueError, ArithmeticError) as exc:
                    raise MalformedCocycleTable((a, b, c), f"is not a scalar: {exc}") from exc
                if v.is_zero():
                    raise ZeroCocycleValue((a, b, c))
                out_row.append(v)
            out_plane.append(tuple(out_row))
        out.append(tuple(out_plane))
    return Cocycle3(group, ctx, tuple(out))


def trivial_cocycle(group: FiniteGroup, ctx: FieldContext) -> Cocycle3:
    one = ctx.one()
    n = group.order
    row = (one,) * n
    plane = (row,) * n
    return Cocycle3(group, ctx, (plane,) * n)


def standard_cyclic_cocycle(n: int, zeta: Scalar) -> Cocycle3:
    """The standard 3-cocycle on Z_n attached to an n-th root of unity zeta:

        omega(g^a, g^b, g^c) = zeta^(a * floor((b + c) / n)).

    Raises RootNotInField unless zeta^n = 1.
    """
    if (zeta ** n) != zeta.ctx.one():
        raise RootNotInField(f"given scalar is not an {n}-th root of unity")
    group = cyclic_group(n)
    ctx = zeta.ctx
    # floor((b+c)/n) is 0 or 1 for 0 <= b,c < n, so the exponent is 0 or a
    powers = [zeta ** k for k in range(n)]
    values = tuple(
        tuple(
            tuple(powers[a if b + c >= n else 0] for c in range(n))
            for b in range(n)
        )
        for a in range(n)
    )
    return Cocycle3(group, ctx, values)


class _ValueIndex(dict):
    """Distinct scalars numbered 0, 1, ... in the order first seen.

    A scalar's index is keyed by (order, num, den), the fields that
    `Scalar.__eq__` compares, so two indices are equal exactly when their
    scalars are.  As a dict it maps an index pair (i, j) to the index of
    scalars[i] * scalars[j]: on the first lookup the product is computed
    with `Scalar.__mul__` and interned, later lookups reuse it.
    """

    def __init__(self):
        super().__init__()
        self.scalars = []
        self._index = {}

    def intern(self, v: Scalar) -> int:
        key = (v.ctx.order, v.num, v.den)
        i = self._index.get(key)
        if i is None:
            i = self._index[key] = len(self.scalars)
            self.scalars.append(v)
        return i

    def __missing__(self, pair):
        i, j = pair
        k = self[pair] = self.intern(self.scalars[i] * self.scalars[j])
        return k


def verify_cocycle(group: FiniteGroup, cocycle: Cocycle3) -> VerificationReport:
    """Exhaustively check normalization and the 3-cocycle identity.

    Every violated normalization triple and every violated quadruple
        Phi(a,b,cd) Phi(ab,c,d) = Phi(b,c,d) Phi(a,bc,d) Phi(a,b,c)
    is listed; an empty report means the table is a valid normalized cocycle.

    Table entries get the index of their value in a `_ValueIndex`, 1 being
    index 0, and quadruples whose five entries are all 1 are skipped.  The
    quadruples of one `a` are checked on indices while the interned values
    are few, s * s <= n^3 for s of them: each product of two indices is then
    computed once and interned, and a quadruple compares its two sides as
    two ints.  The gain rests on that: a standard Z_n table holds n values
    and one with a doubled entry about 2n with their products, but a table
    times a generic coboundary holds nearly n^3.  Past the bound the
    quadruples are checked by `Scalar` products, as many as the identity
    has, so the product memo never holds more than about 4 n^3 entries; an
    entry met after the bound is passed is not interned, its index is 0 if
    it is 1 and -1 otherwise.
    """
    report = VerificationReport()
    n = group.order
    e = group.identity
    values = cocycle.values
    interned = _ValueIndex()
    interned.intern(cocycle.ctx.one())
    bound = n ** 3
    ids = []
    for a in range(n):
        plane = []
        for b in range(n):
            row = []
            for c in range(n):
                v = values[a][b][c]
                if v.is_zero():
                    raise ZeroCocycleValue((a, b, c))
                if len(interned.scalars) ** 2 <= bound:
                    row.append(interned.intern(v))
                else:
                    row.append(0 if v.is_one() else -1)
                if (a == e or b == e or c == e) and not v.is_one():
                    report.add("normalization", (a, b, c), f"value {v.format()} != 1")
            plane.append(row)
        ids.append(plane)
    report.tally("normalization", n * n * n)
    for a in range(n):
        if len(interned.scalars) ** 2 <= bound:
            _identity_by_indices(report, group.mult, ids, interned, a)
        else:
            _identity_by_scalars(report, group.mult, ids, values, a)
    report.tally("cocycle_identity", n ** 4)
    return report


def _identity_by_indices(report, mult, ids, interned, a):
    """The 3-cocycle identity at the quadruples (a, b, c, d), on value indices."""
    n = len(ids)
    scalars = interned.scalars
    ia = ids[a]
    for b in range(n):
        iab = ids[mult[a][b]]
        ia_b = ia[b]
        ib = ids[b]
        for c in range(n):
            bc = mult[b][c]
            mc = mult[c]
            ia_bc = ia[bc]
            iab_c = iab[c]
            ib_c = ib[c]
            i5 = ia_b[c]
            for d in range(n):
                cd = mc[d]
                if not (i5 or ia_b[cd] or iab_c[d] or ib_c[d] or ia_bc[d]):
                    continue
                lhs = interned[ia_b[cd], iab_c[d]]
                rhs = interned[interned[ib_c[d], ia_bc[d]], i5]
                if lhs != rhs:
                    report.add(
                        "cocycle_identity",
                        (a, b, c, d),
                        f"lhs {scalars[lhs].format()} != rhs {scalars[rhs].format()}",
                    )


def _identity_by_scalars(report, mult, ids, values, a):
    """The 3-cocycle identity at the quadruples (a, b, c, d), on scalars."""
    n = len(ids)
    va = values[a]
    ia = ids[a]
    for b in range(n):
        ab = mult[a][b]
        vab = values[ab]
        iab = ids[ab]
        va_b = va[b]
        ia_b = ia[b]
        vb = values[b]
        ib = ids[b]
        for c in range(n):
            bc = mult[b][c]
            mc = mult[c]
            va_bc = va[bc]
            ia_bc = ia[bc]
            vab_c = vab[c]
            iab_c = iab[c]
            vb_c = vb[c]
            ib_c = ib[c]
            v5 = va_b[c]
            i5 = ia_b[c]
            for d in range(n):
                cd = mc[d]
                if not (i5 or ia_b[cd] or iab_c[d] or ib_c[d] or ia_bc[d]):
                    continue
                lhs = va_b[cd] * vab_c[d]
                rhs = vb_c[d] * va_bc[d] * v5
                if lhs != rhs:
                    report.add(
                        "cocycle_identity",
                        (a, b, c, d),
                        f"lhs {lhs.format()} != rhs {rhs.format()}",
                    )


# ---------------------------------------------------------------------------
# subgroups and ramification data


def subgroup_generated(group: FiniteGroup, generators) -> tuple[tuple[int, ...], int]:
    """Closure of a generating set; returns (sorted elements, index [G:H])."""
    elems = {group.identity}
    frontier = [group.identity]
    gens = sorted(set(generators))
    while frontier:
        x = frontier.pop()
        for s in gens:
            for y in (group.mul(x, s), group.mul(x, group.inv(s))):
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
    sub = tuple(sorted(elems))
    return sub, group.order // len(sub)


@dataclass(frozen=True)
class RamificationData:
    """Arrow multiplicities, one per conjugacy class (class index -> R_C >= 0)."""

    multiplicities: tuple[tuple[int, int], ...]  # sorted (class_index, mult), mult > 0

    @staticmethod
    def from_dict(multiplicities: dict[int, int]) -> "RamificationData":
        items = []
        for cls, mult in sorted(multiplicities.items()):
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} for class {cls}")
            if mult > 0:
                items.append((cls, mult))
        return RamificationData(tuple(items))

    @staticmethod
    def from_class_reps(group: FiniteGroup, reps: Sequence[tuple[int, int]]) -> "RamificationData":
        acc: dict[int, int] = {}
        for rep, mult in reps:
            cls = group.class_of[rep]
            acc[cls] = acc.get(cls, 0) + mult
        return RamificationData.from_dict(acc)

    def mult_of_class(self, cls: int) -> int:
        for c, m in self.multiplicities:
            if c == cls:
                return m
        return 0

    def support_elements(self, group: FiniteGroup) -> tuple[int, ...]:
        """All class elements c with R_class(c) > 0, ascending."""
        out = []
        for cls, _ in self.multiplicities:
            out.extend(group.classes[cls])
        return tuple(sorted(out))

    def is_zero(self) -> bool:
        return not self.multiplicities

    def to_json(self, group: FiniteGroup):
        return [
            {"class_rep": group.classes[cls][0], "mult": m}
            for cls, m in self.multiplicities
        ]
