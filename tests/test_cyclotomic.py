"""Field arithmetic: exactness, primitivity, an independent polynomial
oracle for multiplication in Q(zeta_3), and a differential check of the
integer-numerator scalars against Fraction-coordinate arithmetic."""

import random
import sys
import threading
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfquiver import FieldContext, cyclotomic_polynomial, field_context
from hopfquiver import cyclotomic
from hopfquiver.cyclotomic import MAX_COEFF_DIGITS, PAIR_MEMO_SIZE, PRODUCT_MEMO_SIZE
from hopfquiver.errors import FieldDivisionError

from oracles import FractionScalar


# -- independent oracle: schoolbook polynomial arithmetic mod an integer poly

def poly_mul_mod(a, b, modulus):
    """Multiply coefficient lists and reduce mod a monic integer polynomial."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    deg = len(modulus) - 1
    while len(out) > deg:
        top = out.pop()
        if top:
            for j in range(deg):
                out[len(out) - deg + j] -= top * modulus[j]
    out += [Fraction(0)] * (deg - len(out))
    return out


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_degenerate_orders():
    ctx1 = field_context(1)
    assert ctx1.degree == 1
    assert ctx1.zeta.is_one()
    ctx2 = field_context(2)
    assert ctx2.degree == 1
    assert ctx2.zeta == ctx2.scalar(-1)
    assert (ctx2.zeta * ctx2.zeta).is_one()


def test_q_zeta3_reduction():
    ctx = field_context(3)
    z = ctx.zeta
    assert ctx.degree == 2
    # z^2 + z + 1 = 0 and z^3 = 1
    assert (z * z + z + ctx.one()).is_zero()
    assert (z ** 3).is_one()


def test_product_against_poly_oracle():
    # (1 + z)(1 + z^2) in Q(zeta_3), checked against schoolbook reduction
    ctx = field_context(3)
    z = ctx.zeta
    lhs = (ctx.one() + z) * (ctx.one() + z * z)
    expected = poly_mul_mod([1, 1], [1, 0, 1], cyclotomic_polynomial(3))
    assert [Fraction(c, lhs.den) for c in lhs.num] == expected
    assert lhs.is_one()


def test_inverse_of_roots_of_unity():
    for m in range(1, 13):
        ctx = field_context(m)
        z = ctx.zeta
        assert z.inverse() == z ** (m - 1)
        assert (z.inverse() * z).is_one()
    assert field_context(1).one().inverse().is_one()


def test_inverse_of_zero_raises():
    with pytest.raises(FieldDivisionError):
        field_context(3).zero().inverse()


def test_primitivity_up_to_12():
    for m in range(1, 13):
        z = field_context(m).zeta
        assert (z ** m).is_one()
        for j in range(1, m):
            assert not (z ** j).is_one(), (m, j)


def test_nth_root_lookup():
    # a primitive n-th root of unity for n | m is zeta_m^(m/n), as the
    # cyclic_standard cocycle kind looks it up
    ctx = field_context(8)
    i = ctx.root_of_unity(8 // 4)
    assert (i ** 4).is_one() and not (i ** 2).is_one()


def test_json_roundtrip():
    ctx = field_context(4)
    vals = [ctx.scalar("3/7"), ctx.zeta, ctx.scalar(-2) + ctx.zeta, ctx.zero()]
    for v in vals:
        assert ctx.scalar(v.to_json()) == v
    assert ctx.scalar("3/7").to_json() == "3/7"
    assert ctx.zeta.to_json() == ["0", "1"]


def test_coefficient_strings_are_bounded():
    """A coefficient string may hold MAX_COEFF_DIGITS digits and an exponent
    of that size; one digit or one power of ten more is refused before
    `Fraction` expands it."""
    ctx = field_context(4)
    n = MAX_COEFF_DIGITS
    assert ctx.scalar(f"1e{n}") == ctx.scalar(10 ** n)
    assert ctx.scalar(f"1E-{n}") == ctx.scalar(Fraction(1, 10 ** n))
    assert ctx.scalar("7" * n).num[0] == int("7" * n)
    assert ctx.scalar(["1", f"2e+{n}"]).num == (1, 2 * 10 ** n)
    for raw in (f"1e{n + 1}", f"1e-{n + 1}", "1e20000000", "1E-2000000", "1e1_0000",
                "7" * (n + 1), "1" * n + "/3", [1, "1e2000000"]):
        with pytest.raises(ValueError, match=f"past the bound of {n}"):
            ctx.scalar(raw)


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def scalars(m):
    ctx = field_context(m)
    return st.lists(
        small_rationals, min_size=ctx.degree, max_size=ctx.degree
    ).map(lambda coords: ctx.scalar(coords))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda m: st.tuples(scalars(m), scalars(m), scalars(m))))
def test_field_laws(abc):
    a, b, c = abc
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert (a.inverse() * a).is_one()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12).flatmap(scalars))
def test_sub_neg_pow(a):
    ctx = a.ctx
    assert a - a == ctx.zero()
    assert -(-a) == a
    assert a ** 0 == ctx.one()
    assert a ** 2 == a * a


# -- differential check against Fraction-coordinate arithmetic -------------

ORDERS = list(range(1, 13)) + [15, 16, 20]


def coordinate_lists(m):
    """Coordinate lists up to two longer than phi(m) (so `scalar` reduces
    them): either over one shared denominator, or mixed zeros, integers and
    fractions of either sign, or the unit [1]."""
    deg = len(cyclotomic_polynomial(m)) - 1
    shared = st.integers(1, 12).flatmap(
        lambda q: st.lists(
            st.integers(-24, 24).map(lambda p: Fraction(p, q)),
            min_size=1, max_size=deg + 2,
        )
    )
    mixed = st.lists(
        st.one_of(
            st.just(Fraction(0)),
            st.integers(-30, 30).map(Fraction),
            st.fractions(min_value=-8, max_value=8, max_denominator=9),
        ),
        min_size=1, max_size=deg + 2,
    )
    return st.one_of(shared, mixed, st.just([Fraction(1)]))


def assert_matches(s, oracle):
    """Same element, same rendering, and `s` in canonical form."""
    assert s.den > 0
    assert gcd(s.den, *s.num) == 1
    if not any(s.num):
        assert s.den == 1
    assert len(s.num) == s.ctx.degree
    assert tuple(Fraction(c, s.den) for c in s.num) == oracle.coeffs
    assert s.format() == oracle.format()
    assert s.to_json() == oracle.to_json()
    assert s.is_zero() == oracle.is_zero()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ORDERS).flatmap(
        lambda m: st.tuples(st.just(m), coordinate_lists(m), coordinate_lists(m))
    )
)
def test_scalar_matches_fraction_oracle(case):
    m, xs, ys = case
    ctx = field_context(m)
    a, b = ctx.scalar(xs), ctx.scalar(ys)
    A, B = FractionScalar(m, xs), FractionScalar(m, ys)
    assert ctx.scalar([str(x) for x in xs]) == a
    assert_matches(a, A)
    assert_matches(b, B)
    assert_matches(a + b, A + B)
    assert_matches(a - b, A - B)
    assert_matches(b - a, B - A)
    assert_matches(-a, -A)
    assert_matches(a * b, A * B)
    # `times` on a fresh context: the first call misses the memo, the repeat
    # hits it (and returns the memoized object unless a factor is 1)
    fresh = FieldContext(m)
    fa, fb = fresh.scalar(xs), fresh.scalar(ys)
    miss = fa.times(fb)
    hit = fa.times(fb)
    assert miss == hit == a * b
    assert_matches(miss, A * B)
    assert_matches(hit, A * B)
    assert hit is miss or fa.is_one() or fb.is_one()
    assert_matches(a.times(b), A * B)
    total = fa.plus(fb)
    assert total is fa.plus(fb)
    assert_matches(total, A + B)
    assert_matches(a.plus(b), A + B)
    assert_matches(a ** 3, A ** 3)
    assert (a == b) == (A == B)
    if not a.is_zero():
        assert_matches(a.inverse(), A.inverse())
        assert_matches(b / a, B * A.inverse())
        assert_matches(a ** -2, A ** -2)


def test_times_memo_stays_bounded():
    """16 * 17 = 272 values, whose 73,984 ordered pairs are more than the
    product memo holds (PAIR_MEMO_SIZE pairs) and whose products are more
    than the intern table holds (PRODUCT_MEMO_SIZE values; commuting
    factors give 272 * 273 / 2 of them).  Every product equals `*`, before
    and after the memo is cleared.  The product memo never grows past its
    bound and reaches it, so it is cleared.  The intern table fills to its
    bound and no further, and the products of new values after that are
    unkeyed."""
    ctx = FieldContext(5)
    values = [ctx.scalar([i, j, 1, 0]) for i in range(1, 17) for j in range(1, 18)]
    assert len(values) ** 2 > PAIR_MEMO_SIZE > PRODUCT_MEMO_SIZE
    largest = 0
    unkeyed = 0
    for a in values:
        for b in values:
            out = a.times(b)
            assert out == a * b
            unkeyed += out.key is None
            largest = max(largest, len(ctx._products))
    assert largest == PAIR_MEMO_SIZE
    assert len(ctx._products) == len(values) ** 2 - PAIR_MEMO_SIZE
    assert len(ctx._interned) == PRODUCT_MEMO_SIZE
    assert unkeyed > 0


def test_pair_memos_clear_at_their_own_bound(monkeypatch):
    """With the pair bound set below the intern bound, both pair memos are
    cleared at the pair bound while the intern table grows past it: the
    two bounds are separate.  Every product and sum equals `*` and `+`."""
    monkeypatch.setattr(cyclotomic, "PAIR_MEMO_SIZE", 100)
    ctx = FieldContext(5)
    values = [ctx.scalar([i, j, 1, 0]) for i in range(1, 5) for j in range(1, 5)]
    largest = {"products": 0, "sums": 0}
    for _ in range(2):
        for a in values:
            for b in values:
                assert a.times(b) == a * b
                assert a.plus(b) == a + b
                largest["products"] = max(largest["products"], len(ctx._products))
                largest["sums"] = max(largest["sums"], len(ctx._sums))
    assert largest == {"products": 100, "sums": 100}
    assert len(ctx._interned) > 100


def test_times_mixed_contexts():
    """Q(zeta_3) and Q(i) both have degree 2, so their numerator tuples can
    collide: after a product is memoized in Q(zeta_3), `times` with a Q(i)
    operand of the same numerators raises like `*`.  An operand from a
    second FieldContext(3) object still gives the right product."""
    z3 = field_context(3)
    a, b = z3.scalar([2, 1]), z3.scalar([1, 3])
    product = a * b
    assert a.times(b) == product
    c = field_context(4).scalar([1, 3])
    assert (c.num, c.den) == (b.num, b.den)
    with pytest.raises(ValueError) as by_mul:
        a * c
    with pytest.raises(ValueError) as by_times:
        a.times(c)
    assert str(by_times.value) == str(by_mul.value)
    other = FieldContext(3).scalar([1, 3])
    assert a.times(other) == product
    assert other.times(a) == product


def _seeded_grid(ctx, seed):
    """Roots of unity and their negatives, 0, 1, 1/3 and three dense values
    with coordinates fixed by `seed`."""
    rng = random.Random(seed)
    dense = [
        ctx.scalar([
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
            for _ in range(ctx.degree)
        ])
        for _ in range(3)
    ]
    roots = [ctx.root_of_unity(k) for k in range(ctx.order)]
    return roots + [-z for z in roots] + [ctx.zero(), ctx.one(), ctx.scalar("1/3")] + dense


@pytest.mark.parametrize("m", ORDERS)
def test_plus_times_match_direct_on_seeded_grid(m):
    """On a fresh context, `plus` and `times` equal `+` and `*` on every
    pair of the grid, and return the interned object of the value (the
    same object when repeated), except that a factor that is the context's
    1 returns the other; a sum that cancels is the zero object."""
    ctx = FieldContext(m)
    one = ctx.one()
    grid = _seeded_grid(ctx, m)
    for _ in range(2):
        for a in grid:
            for b in grid:
                total, product = a.plus(b), a.times(b)
                assert total == a + b and product == a * b
                assert total is ctx.intern(a + b) and total.key is not None
                if a is not one and b is not one:
                    assert product is ctx.intern(a * b) and product.key is not None
    for a in grid:
        assert a.plus(-a) is ctx.zero()


def test_interned_and_unkeyed_scalars_agree():
    """An interned scalar and an unkeyed one of the same value are equal
    both ways and hash alike; keyed scalars of two FieldContext(3) objects
    compare by value, and Q(i) does not intern a Q(zeta_3) scalar."""
    ctx = FieldContext(3)
    for raw in ([2, 1], "5/7", 1, 0):
        loose = ctx.scalar(raw)
        keyed = ctx.intern(ctx.scalar(raw))
        assert loose.key is None and keyed.key is not None
        assert loose == keyed and keyed == loose
        assert hash(loose) == hash(keyed)
        assert len({loose, keyed}) == 1
    other = FieldContext(3)
    a = ctx.intern(ctx.scalar([2, 1]))
    b = other.intern(other.scalar([2, 1]))
    c = other.intern(other.scalar([1, 2]))
    assert a is not b and a.key is not None and b.key is not None
    assert a == b and b == a and hash(a) == hash(b)
    assert a != c and c != a
    assert a.plus(b) == a + b and a.times(c) == a * c
    with pytest.raises(ValueError):
        field_context(4).intern(a)


def test_interning_from_threads_keeps_one_object_per_value():
    """4 threads intern the same 200 values, each from its own unkeyed
    copies, with a short switch interval: every thread gets the same object
    for a value, and the table holds one entry per value."""
    ctx = FieldContext(7)
    raws = [[k, 1, 0, k % 3, 0, 1] for k in range(200)]
    results = [None] * 4

    def worker(i):
        results[i] = [ctx.intern(ctx.scalar(r)) for r in raws]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results[1:]:
        assert all(x is y for x, y in zip(got, results[0]))
    assert len({id(x) for x in results[0]}) == len(raws)
    assert len(ctx._interned) == len(raws) + 2  # and 0 and 1


# -- the inverse through the field norm against extended Euclid ------------


def _coords(x):
    return [Fraction(c, x.den) for c in x.num]


@pytest.mark.parametrize("m", range(1, 31))
def test_inverse_by_norm(m):
    ctx = field_context(m)
    for k in range(m):
        z = ctx.root_of_unity(k)
        assert z.inverse() == ctx.root_of_unity(m - k), k
        assert (-z).inverse() == -ctx.root_of_unity(m - k), k
    rng = random.Random(m)
    dense = [
        ctx.scalar([
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
            for _ in range(ctx.degree)
        ])
        for _ in range(3)
    ]
    for x in [2 * ctx.root_of_unity(k) for k in range(m)] + dense:
        inv = x.inverse()
        assert (x * inv).is_one()
        assert_matches(inv, FractionScalar(m, _coords(x)).inverse())
    if m <= 2:
        # the plain rationals: the norm of a negative number is negative
        for v in ("-1", "-7", "-3/5", "-12/35"):
            inv = ctx.scalar(v).inverse()
            assert_matches(inv, FractionScalar(m, [Fraction(v)]).inverse())
            assert inv == ctx.scalar(1 / Fraction(v))


@pytest.mark.parametrize("m", ORDERS)
def test_unit_factor_matches_fraction_oracle(m):
    """A unit factor returns the other operand: 1*x, x*1, x/1 and 1^-1 agree
    with the oracle and stay canonical, for 1 built as one(), the int 1 and
    (m = 3) a coordinate list that reduces to 1.  1/3 has the numerators of 1
    over another denominator, so it must multiply, on either side, as 1/3."""
    ctx = field_context(m)
    rng = random.Random(m)
    dense = ctx.scalar([
        Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
        for _ in range(ctx.degree)
    ])
    third, THIRD = ctx.scalar("1/3"), FractionScalar(m, [Fraction(1, 3)])
    xs = [ctx.root_of_unity(k) for k in range(m)] + [dense, third]
    units = [ctx.one(), ctx.scalar(1)]
    if m == 3:
        xs.append(ctx.scalar([2, 1, 1]))
        units.append(ctx.scalar([2, 1, 1]))
    one = FractionScalar(m, [1])
    for u in units:
        assert u.is_one()
        assert_matches(u, one)
        assert_matches(u.inverse(), one)
        for x in xs:
            X = FractionScalar(m, _coords(x))
            assert_matches(u * x, X)
            assert_matches(x * u, X)
            assert_matches(x / u, X)
            assert_matches(x.inverse(), X.inverse())
            assert_matches(x * third, X * THIRD)
            assert_matches(third * x, X * THIRD)
            assert (x * u).is_one() == (X == one)
    assert not third.is_one()
    with pytest.raises(ValueError):
        ctx.one() * field_context(m + 1).one()
