from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fpurity import ResourceCapExceeded, ceil_mul, denominator_order, floor_mul
from fpurity.purity import CLASSIC, SHARP, STRONG, _exponent

# every reduced a/b with 1 <= a, b <= 12
GRID = sorted({Fraction(a, b) for a in range(1, 13) for b in range(1, 13)})


def assert_inequalities(p, e_max=5, d_max=5, n_max=4):
    """Assert the four inequalities that let the criteria compose across
    exponents, for every t in GRID, 1 <= e <= e_max, 1 <= d <= d_max and
    1 <= n <= n_max; return how many cases each one had.

    (a) ceil(t(p^d-1)) + p^d * ceil(t(p^e-1))          >= ceil(t(p^(d+e)-1))
    (b) (1 + p^e + ... + p^((n-1)e)) * ceil(t(p^e-1))  >= ceil(t(p^(ne)-1))
    (c) p^(e-d) * floor(t(p^d-1))                      <= ceil(t(p^e-1))   for d < e
    (d) ceil(t(p^(d+e)-1))                             >= p^d * ceil(t(p^e-1))
                                                          when t(p^e-1) is an integer
    """
    counts = Counter()
    for t in GRID:
        def sharp(e):
            return ceil_mul(t, p**e - 1)

        for e in range(1, e_max + 1):
            for d in range(1, d_max + 1):
                assert sharp(d) + p**d * sharp(e) >= sharp(d + e), ("a", p, t, e, d)
                counts["a"] += 1
            for n in range(1, n_max + 1):
                geometric = sum(p ** (k * e) for k in range(n))
                assert geometric * sharp(e) >= sharp(n * e), ("b", p, t, e, n)
                counts["b"] += 1
            for d in range(1, e):
                assert p ** (e - d) * floor_mul(t, p**d - 1) <= sharp(e), ("c", p, t, e, d)
                counts["c"] += 1
            if (t * (p**e - 1)).denominator == 1:
                for d in range(1, d_max + 1):
                    assert sharp(d + e) >= p**d * sharp(e), ("d", p, t, e, d)
                    counts["d"] += 1
    return counts


@pytest.mark.parametrize(
    "t,n,expected",
    [(Fraction(1, 2), 8, 4), (Fraction(2, 3), 4, 3), (Fraction(5, 6), 6, 5)],
)
def test_ceil_mul(t, n, expected):
    assert ceil_mul(t, n) == expected


@pytest.mark.parametrize(
    "t,n,expected",
    [(Fraction(1, 2), 7, 3), (Fraction(1), 5, 5), (Fraction(5, 6), 8, 6)],
)
def test_floor_mul(t, n, expected):
    assert floor_mul(t, n) == expected


rationals = st.fractions(min_value=Fraction(1, 50), max_value=10, max_denominator=50)


@given(t=rationals, n=st.integers(0, 10_000))
def test_ceil_floor_gap(t, n):
    gap = ceil_mul(t, n) - floor_mul(t, n)
    assert gap in (0, 1)
    assert (gap == 0) == ((t * n).denominator == 1)


@given(t=rationals, n=st.integers(0, 1000), m=st.integers(0, 1000))
def test_ceil_monotone_in_n(t, n, m):
    lo, hi = sorted((n, m))
    assert ceil_mul(t, lo) <= ceil_mul(t, hi)


@given(t=rationals, s=rationals, n=st.integers(0, 1000))
def test_ceil_monotone_in_t(t, s, n):
    lo, hi = sorted((t, s))
    assert ceil_mul(lo, n) <= ceil_mul(hi, n)


def test_threshold_exponent_ordering():
    for t in (Fraction(1, 2), Fraction(5, 6), Fraction(3)):
        for q in (2, 3, 9, 27):
            classic = _exponent(CLASSIC, t, q)
            sharp = _exponent(SHARP, t, q)
            strong = _exponent(STRONG, t, q)
            assert classic <= sharp <= strong


def test_single_case_composed_ceiling():
    # 1 + 3*1 = 4 >= ceil((1/2)*8) = 4
    t = Fraction(1, 2)
    lhs = ceil_mul(t, 3**1 - 1) + 3**1 * ceil_mul(t, 3**1 - 1)
    assert lhs == 4 >= ceil_mul(t, 3**2 - 1)


def test_single_case_integral_scaling():
    # t(p^e - 1) integral: ceil((1/2)*26) = 13 >= 9 * 1
    t = Fraction(1, 2)
    assert ceil_mul(t, 3**3 - 1) == 13 >= 3**2 * ceil_mul(t, 3**1 - 1)


def test_audit_small_range_clean():
    assert assert_inequalities(3) == {"a": 2275, "b": 1820, "c": 910, "d": 700}


@pytest.mark.parametrize(
    "t,prime,expected",
    [
        (Fraction(1, 2), 3, 1),
        (Fraction(1, 3), 3, None),
        (Fraction(5, 6), 7, 1),
        (Fraction(1, 13), 3, 3),
        (Fraction(2), 5, 1),
    ],
)
def test_denominator_order(t, prime, expected):
    assert denominator_order(t, prime) == expected


def test_denominator_order_cap_is_distinct_from_none():
    with pytest.raises(ResourceCapExceeded):
        denominator_order(Fraction(1, 7), 3, e_cap=3)  # true order is 6


@given(t=rationals)
def test_order_makes_product_integral(t):
    for prime in (2, 3, 5):
        try:
            e = denominator_order(t, prime, e_cap=200)
        except ResourceCapExceeded:
            continue
        if e is not None:
            exact = t * (prime**e - 1)
            assert exact.denominator == 1
            assert ceil_mul(t, prime**e - 1) == exact
