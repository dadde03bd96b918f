"""Exact arithmetic in the cyclotomic rationals Q(zeta_m).

A scalar is a vector of phi(m) rationals, the coordinates in the power basis
1, z, ..., z^(phi(m)-1) of the m-th cyclotomic field, kept fully reduced
modulo the m-th cyclotomic polynomial.  It is stored as integer numerators
over one common positive denominator (the layout of Cohen, *A Course in
Computational Algebraic Number Theory*, 4.2, and of FLINT's nf_elem), in
canonical form: gcd(den, *num) == 1, so zero is (0, ..., 0)/1.  Equality is
therefore literal comparison and every test in the library is exact.  m = 1
and m = 2 degenerate to the plain rationals (with z = 1 and z = -1).

Products are integer convolutions reduced by the integer monic modulus, so
products of long chains of cocycle values never overflow or lose precision.
Inverses are integer too, through the field norm (Cohen, 4.3): with c the
product of the Galois conjugates sigma_k(x), sigma_k: z -> z^k, over the
units k != 1 mod m, N(x) = x * c is a rational integer and x^-1 = c / N(x).

Most scalars in practice are exactly 1, and canonical form gives 1 a single
representation (1, 0, ..., 0)/1: `is_one` is a tuple comparison, and a unit
factor or the inverse of 1 returns an operand unchanged (exact and canonical).

The path-algebra kernels multiply structure constants (action entries,
cocycle values, product coefficients) drawn from a few hundred distinct
values, so they multiply through `Scalar.times`, which looks the product up
in a memo on the `FieldContext`, keyed by both operands' numerators and
denominators and cleared once it holds PRODUCT_MEMO_SIZE entries.  `*` stays
a direct product: the callers of `*` (the 3-cocycle check on a table with
nearly one value per entry, inverses, powers) rarely repeat an operand pair,
and a memo there would only add a lookup and hold the products.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence, Union

from .errors import FieldDivisionError

RationalLike = Union[int, str, Fraction]

# the most products one context memoizes for `Scalar.times` before it starts over
PRODUCT_MEMO_SIZE = 4096


def _exact_poly_div(num: list[int], den: Sequence[int]) -> list[int]:
    """Divide integer polynomials (ascending coefficients, den monic)."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + dd]
        quot[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num[:dd]):
        raise ArithmeticError("polynomial division was not exact")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending, monic."""
    if m < 1:
        raise ValueError("cyclotomic order must be >= 1")
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_poly_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _parse_rational(v: RationalLike) -> tuple[int, int]:
    """(p, q) with q > 0 and gcd(p, q) == 1."""
    if isinstance(v, bool):
        raise ValueError(f"{v!r} is not a rational number")
    if isinstance(v, int):
        return v, 1
    if isinstance(v, str):
        try:
            v = Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {v!r}") from None
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    raise TypeError(f"cannot interpret {v!r} as a rational number")


class FieldContext:
    """Shared context for scalars of one cyclotomic order m."""

    __slots__ = ("order", "degree", "modulus", "_tail", "_conjugators", "_one", "_products")

    def __init__(self, m: int):
        if not isinstance(m, int) or m < 1:
            raise ValueError("field order must be a positive integer")
        self.order = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = len(self.modulus) - 1
        # z^degree = -sum(modulus[j] z^j): the nonzero terms used to reduce
        self._tail = tuple((j, c) for j, c in enumerate(self.modulus[:-1]) if c)
        # for each unit k != 1 mod m, where sigma_k moves z^j: to z^(jk mod m)
        self._conjugators = tuple(
            tuple(j * k % m for j in range(self.degree))
            for k in range(2, m)
            if gcd(k, m) == 1
        )
        self._one = Scalar(self, (1,) + (0,) * (self.degree - 1), 1)
        # (a.num, a.den, b.num, b.den) -> a * b, for `Scalar.times`
        self._products: dict[tuple, Scalar] = {}

    def __eq__(self, other):
        return isinstance(other, FieldContext) and other.order == self.order

    def __hash__(self):
        return hash(("FieldContext", self.order))

    def __repr__(self):
        return f"FieldContext(m={self.order})"

    def zero(self) -> "Scalar":
        return Scalar(self, (0,) * self.degree, 1)

    def one(self) -> "Scalar":
        return self._one

    @property
    def zeta(self) -> "Scalar":
        """The distinguished primitive m-th root of unity (= 1 when m = 1)."""
        return self.root_of_unity(1)

    def root_of_unity(self, k: int) -> "Scalar":
        """zeta^k, reduced."""
        k %= self.order
        coeffs = [0] * max(k + 1, self.degree)
        coeffs[k] = 1
        return Scalar(self, self._reduce(coeffs), 1)

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, "p/q" string, or coordinate list."""
        if isinstance(value, Scalar):
            if value.ctx != self:
                raise ValueError("scalar belongs to a different field context")
            return value
        if isinstance(value, (int, str, Fraction)):
            p, q = _parse_rational(value)
            return Scalar(self, (p,) + (0,) * (self.degree - 1), q)
        if isinstance(value, (list, tuple)):
            coords = [_parse_rational(v) for v in value]
            # each p/q is reduced, so the lcm of the q is the least common
            # denominator and (p * den/q) over it is already canonical
            den = lcm(*(q for _, q in coords))
            num = [p * (den // q) for p, q in coords]
            if len(num) > self.degree:
                return _canonical(self, self._reduce(num), den)
            num += [0] * (self.degree - len(num))
            return Scalar(self, tuple(num), den)
        raise TypeError(f"cannot interpret {value!r} as a scalar")

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """The reduced product of two numerator tuples."""
        bs = [(j, y) for j, y in enumerate(b) if y]
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in bs:
                    prod[i + j] += x * y
        return self._reduce(prod)

    def _reduce(self, coeffs: list[int]) -> tuple[int, ...]:
        """Reduce an ascending integer coefficient list, at least `degree`
        long, modulo the (monic) modulus; consumes the list."""
        d = self.degree
        tail = self._tail
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs.pop()
            if c:
                base = i - d
                for j, t in tail:
                    coeffs[base + j] -= c * t
        return tuple(coeffs)


@lru_cache(maxsize=None)
def field_context(m: int) -> FieldContext:
    """Return the (cached) arithmetic context for Q(zeta_m)."""
    return FieldContext(m)


def _canonical(ctx: FieldContext, num: tuple[int, ...], den: int) -> "Scalar":
    """The scalar num/den (den > 0), divided through by gcd(den, *num)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
    return Scalar(ctx, num, den)


class Scalar:
    """An element of Q(zeta_m): integer power-basis numerators `num` over
    one positive denominator `den`, with gcd(den, *num) == 1.

    Immutable; all operations are pure, so scalars can be shared freely.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: FieldContext, num: tuple[int, ...], den: int):
        self.ctx = ctx
        self.num = num
        self.den = den

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num == self.ctx._one.num

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return (
                self.ctx.order == other.ctx.order
                and self.den == other.den
                and self.num == other.num
            )
        if isinstance(other, (int, Fraction)):
            return self == self.ctx.scalar(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.order, self.num, self.den))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.ctx.order != self.ctx.order:
                raise ValueError("cannot mix scalars of different cyclotomic orders")
            return other
        return self.ctx.scalar(other)

    def __add__(self, other):
        if type(other) is not Scalar or other.ctx is not self.ctx:
            other = self._coerce(other)
        da, db = self.den, other.den
        if da == db:
            return _canonical(self.ctx, tuple(a + b for a, b in zip(self.num, other.num)), da)
        num = tuple(a * db + b * da for a, b in zip(self.num, other.num))
        return _canonical(self.ctx, num, da * db)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        da, db = self.den, other.den
        if da == db:
            return _canonical(self.ctx, tuple(a - b for a, b in zip(self.num, other.num)), da)
        num = tuple(a * db - b * da for a, b in zip(self.num, other.num))
        return _canonical(self.ctx, num, da * db)

    def __neg__(self):
        return Scalar(self.ctx, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        """The product; a unit factor (tested after `_coerce`) returns the other."""
        ctx = self.ctx
        if type(other) is not Scalar or other.ctx is not ctx:
            other = self._coerce(other)
        if self.den == 1 and self.num == ctx._one.num:
            return other
        if other.den == 1 and other.num == ctx._one.num:
            return self
        return _canonical(ctx, ctx._mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def times(self, other: "Scalar") -> "Scalar":
        """`self * other`, memoized on the field context (see the module
        docstring).  A unit factor returns the other before any key is built;
        an operand of another context object goes to `*`, which checks the
        order."""
        ctx = self.ctx
        if type(other) is not Scalar or other.ctx is not ctx:
            return self * other
        one = ctx._one.num
        if self.den == 1 and self.num == one:
            return other
        if other.den == 1 and other.num == one:
            return self
        key = (self.num, self.den, other.num, other.den)
        memo = ctx._products
        out = memo.get(key)
        if out is None:
            if len(memo) >= PRODUCT_MEMO_SIZE:
                memo.clear()
            out = memo[key] = _canonical(ctx, ctx._mul(self.num, other.num), self.den * other.den)
        return out

    def inverse(self) -> "Scalar":
        """Multiplicative inverse through the field norm: with c the product
        of the conjugates sigma_k(num) over the units k != 1 mod m, the norm
        N = num * c is a rational integer and (num/den)^-1 = den * c / N.
        The unit is returned unchanged, so division by 1 is free."""
        if self.is_zero():
            raise FieldDivisionError("inverse of zero")
        ctx = self.ctx
        num = self.num
        c = ctx._one.num
        if self.den == 1 and num == c:
            return self
        for targets in ctx._conjugators:
            moved = [0] * ctx.order
            for t, a in zip(targets, num):
                moved[t] = a
            c = ctx._mul(c, ctx._reduce(moved))
        norm = ctx._mul(num, c)
        if any(norm[1:]):
            raise ArithmeticError("the norm is not rational")
        # N < 0 only for m = 1, 2: for m >= 3 the field is CM, so the
        # embeddings pair off into complex conjugates and N is positive
        scale = self.den if norm[0] > 0 else -self.den
        return _canonical(ctx, tuple(scale * a for a in c), abs(norm[0]))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- rendering ----------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self.format()!r}, m={self.ctx.order})"

    def format(self) -> str:
        """Readable polynomial form in z (the primitive m-th root)."""
        parts = []
        for k, c in enumerate(self._coordinates()):
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
        """Canonical JSON form: "p/q" when rational, else coordinate array."""
        coords = self._coordinates()
        if not any(coords[1:]):
            return str(coords[0])
        return [str(c) for c in coords]

    def _coordinates(self) -> list[Fraction]:
        """The power-basis coordinates as rationals."""
        return [Fraction(c, self.den) for c in self.num]
