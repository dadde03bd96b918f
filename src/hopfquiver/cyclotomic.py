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
representation (1, 0, ..., 0)/1: `is_one` is an identity or tuple test, and a unit
factor or the inverse of 1 returns an operand unchanged (exact and canonical).

The path-algebra kernels add and multiply structure constants (action
entries, cocycle values, product coefficients) drawn from a few hundred
distinct values, so a `FieldContext` interns scalars as paths are interned:
`intern`, `times` and `plus` return the one object with a small int `key`
the context holds for a value, and `times`/`plus` look it up in a memo keyed
by the operands' keys, so `is_zero`, `is_one` and `==` on keyed scalars of
one context are identity tests.  Keys are unique in the process, so a memo
of one context never matches a scalar of another, and a reader of the memos
(`pathcoalg._add_scaled`) may look any two scalars up by key.  The table
holds at most PRODUCT_MEMO_SIZE values and is never cleared: past that, new
values stay unkeyed and are computed directly.  A memo is cleared when it
holds PAIR_MEMO_SIZE operand pairs.  `*` and `+` stay direct: the 3-cocycle
check on a table with nearly one value per entry, inverses and powers
rarely repeat an operand pair and would fill the table.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, lcm
from typing import Sequence, Union

from .errors import FieldDivisionError

RationalLike = Union[int, str, Fraction]

# the most values a context interns
PRODUCT_MEMO_SIZE = 4096

# the most operand pairs a product (sum) memo holds before it starts over: a
# few hundred values make tens of thousands of pairs at the deep caps
PAIR_MEMO_SIZE = 65536

# the most digits a coefficient string may hold, and the largest exponent it may
# carry: `Fraction("1e20000000")` would expand 10^20000000 in full
MAX_COEFF_DIGITS = 1000

_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*$")

# a string of at most this many characters has at most 5 digits and an
# exponent of at most 999 ("1e999"), inside the bound
_SHORT = 5

# the keys of interned scalars, shared by every context
_KEYS = count()


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
    """(p, q) with q > 0 and gcd(p, q) == 1; a string is refused past
    MAX_COEFF_DIGITS digits or exponent.  A string is read by `int` and,
    when `int` refuses it, by `Fraction`: the two agree on every integer
    string, signs, surrounding whitespace, underscores and Unicode digits
    included, and `int` is several times faster."""
    if isinstance(v, bool):
        raise ValueError(f"{v!r} is not a rational number")
    if isinstance(v, int):
        return v, 1
    if isinstance(v, str):
        if len(v) > _SHORT:
            _check_size(v)
        try:
            return int(v), 1
        except ValueError:
            pass
        try:
            v = Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {v!r}") from None
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    raise TypeError(f"cannot interpret {v!r} as a rational number")


def _check_size(v: str) -> None:
    """Refuse a coefficient string past MAX_COEFF_DIGITS digits or exponent."""
    digits = sum(map(str.isdigit, v))
    if digits > MAX_COEFF_DIGITS:
        raise ValueError(f"a coefficient of {digits} digits is past the bound of {MAX_COEFF_DIGITS}")
    exponent = _EXPONENT.search(v)
    if exponent and abs(int(exponent.group(1))) > MAX_COEFF_DIGITS:
        raise ValueError(f"the exponent of {v!r} is past the bound of {MAX_COEFF_DIGITS}")


class FieldContext:
    """Shared context for scalars of one cyclotomic order m."""

    __slots__ = ("order", "degree", "modulus", "_tail", "_conjugators", "_interned",
                 "_one", "_zero", "_products", "_sums")

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
        self._interned: dict[tuple, Scalar] = {}  # (num, den) -> the keyed scalar
        self._one = self.intern(Scalar(self, (1,) + (0,) * (self.degree - 1), 1))
        self._zero = self.intern(Scalar(self, (0,) * self.degree, 1))
        self._products: dict[tuple[int, int], Scalar] = {}  # (a.key, b.key) -> a * b
        self._sums: dict[tuple[int, int], Scalar] = {}  # (a.key, b.key) -> a + b

    def __eq__(self, other):
        return isinstance(other, FieldContext) and other.order == self.order

    def __hash__(self):
        return hash(("FieldContext", self.order))

    def __repr__(self):
        return f"FieldContext(m={self.order})"

    def zero(self) -> "Scalar":
        return self._zero

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

    def intern(self, s: "Scalar") -> "Scalar":
        """The keyed scalar equal to s (a scalar of this order), or s when the
        table is full and lacks it; threads that miss on one value get one object."""
        if s.ctx.order != self.order:
            raise ValueError("cannot mix scalars of different cyclotomic orders")
        out = self._interned.get((s.num, s.den))
        if out is None and len(self._interned) < PRODUCT_MEMO_SIZE:
            out = Scalar(self, s.num, s.den, next(_KEYS))
            out = self._interned.setdefault((s.num, s.den), out)
        return s if out is None else out

    def _memoized(self, memo: dict, op, a: "Scalar", b: "Scalar") -> "Scalar":
        """op(a, b) on a miss of `times` or `plus`, on the interned operands."""
        a, b = self.intern(a), self.intern(b)
        if a.key is None or b.key is None:
            return self.intern(op(a, b))
        out = memo.get((a.key, b.key))
        if out is None:
            if len(memo) >= PAIR_MEMO_SIZE:
                memo.clear()
            out = memo[a.key, b.key] = self.intern(op(a, b))
        return out

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
    one positive denominator `den`, with gcd(den, *num) == 1.  `key` is set
    on the context's interned object of the value and None on any other.

    Immutable; all operations are pure, so scalars can be shared freely.
    """

    __slots__ = ("ctx", "num", "den", "key")

    def __init__(self, ctx: FieldContext, num: tuple[int, ...], den: int, key: int | None = None):
        self.ctx = ctx
        self.num = num
        self.den = den
        self.key = key

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self is self.ctx._zero or (self.key is None and not any(self.num))

    def is_one(self) -> bool:
        one = self.ctx._one
        return self is one or (self.key is None and self.den == 1 and self.num == one.num)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, Scalar):
            if self.key is not None and other.key is not None and self.ctx is other.ctx:
                return self is other
            return (
                self.ctx.order == other.ctx.order
                and self.den == other.den
                and self.num == other.num
            )
        if isinstance(other, (int, Fraction)):
            return self == self.ctx.scalar(other)
        return NotImplemented

    def __hash__(self):
        # by value, so a keyed and an unkeyed scalar of one value agree
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
        """`self * other` through the context's product memo; a unit factor returns
        the other, and an operand of another context object goes to `*`."""
        ctx = self.ctx
        if type(other) is not Scalar or other.ctx is not ctx:
            return self * other
        one = ctx._one
        if self is one:
            return other
        if other is one:
            return self
        out = ctx._products.get((self.key, other.key))
        return out if out is not None else ctx._memoized(ctx._products, Scalar.__mul__, self, other)

    def plus(self, other: "Scalar") -> "Scalar":
        """`self + other` through the context's sum memo, like `times`."""
        ctx = self.ctx
        if type(other) is not Scalar or other.ctx is not ctx:
            return self + other
        out = ctx._sums.get((self.key, other.key))
        return out if out is not None else ctx._memoized(ctx._sums, Scalar.__add__, self, other)

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
