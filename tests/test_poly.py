import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from fpurity import (
    ExponentOverflowError,
    FrobeniusBox,
    ResourceCapExceeded,
    RingMismatchError,
    frobenius_image,
    parse_ring,
    poly_mul,
    poly_pow,
)
from fpurity import Ideal, ideals
from fpurity.poly import (
    EXP_LIMIT,
    _layout,
    _minimal_power,
    _packed_mul,
    _packed_pow,
    _width,
    grevlex_key,
    power_term_bound,
)

from conftest import p, tuple_pow


def polys(ring, max_terms=4, max_exp=5):
    n = ring.nvars
    return st.dictionaries(
        st.tuples(*([st.integers(0, max_exp)] * n)),
        st.integers(1, ring.p - 1),
        max_size=max_terms,
    ).map(ring.poly)


R3 = parse_ring("p=3; vars=x,y")


def test_difference_of_squares(r3xy):
    assert p("(x+y)*(x-y)", r3xy) == p("x^2 + 2*y^2", r3xy)


def test_mul_identity(r3xy):
    f = p("x^2 + 2*x*y + y^2", r3xy)
    assert poly_mul(f, r3xy.one()) == f


def test_freshman_dream_char2(r2xy):
    f = p("x+y", r2xy)
    assert poly_mul(f, f) == p("x^2 + y^2", r2xy)


def test_pow_zero_is_one(r3xy):
    assert poly_pow(p("x^2 - y", r3xy), 0) == r3xy.one()


def test_square_of_binomial(r3xyz):
    assert poly_pow(p("x^2 - y*z", r3xyz), 2) == p("x^4 + x^2*y*z + y^2*z^2", r3xyz)


def test_cube_is_frobenius(r3xy):
    assert poly_pow(p("x+y", r3xy), 3) == p("x^3 + y^3", r3xy)


def test_frobenius_examples(r3xy):
    assert frobenius_image(p("x+y", r3xy), 3) == p("x^3 + y^3", r3xy)
    assert frobenius_image(p("2*x", r3xy), 9) == p("2*x^9", r3xy)


def test_frobenius_rejects_non_power(r3xy):
    with pytest.raises(ValueError):
        frobenius_image(p("x", r3xy), 6)


@given(f=polys(R3))
def test_frobenius_agrees_with_pow(f):
    for q in (3, 9):
        assert frobenius_image(f, q) == poly_pow(f, q)


@given(f=polys(R3), g=polys(R3))
def test_frobenius_is_ring_map(f, g):
    q = 9
    assert frobenius_image(f * g, q) == frobenius_image(f, q) * frobenius_image(g, q)
    assert frobenius_image(f + g, q) == frobenius_image(f, q) + frobenius_image(g, q)


@given(f=polys(R3, max_terms=3, max_exp=3), a=st.integers(0, 4), b=st.integers(0, 4))
@settings(max_examples=50)
def test_pow_additivity(f, a, b):
    assert poly_pow(f, a + b) == poly_mul(poly_pow(f, a), poly_pow(f, b))


def brute_lead(f):
    return max(f.terms, key=grevlex_key)


@pytest.mark.parametrize("ring", [R3], ids=["grevlex"])
@given(data=st.data())
@settings(max_examples=40)
def test_cached_lead_is_the_largest_term(ring, data):
    f = data.draw(polys(ring).filter(lambda f: f.terms))
    fresh = ring.poly(f.terms)
    assert f.lead_monomial() == brute_lead(f)
    assert f.lead_coeff() == f.terms[brute_lead(f)]
    # derived from a value without a cached lead (fresh), then with one (f)
    for base in (fresh, f):
        g = -base
        assert g.lead_monomial() == brute_lead(g)
        assert g.lead_coeff() == g.terms[brute_lead(g)]


def test_term_count_bound(r3xy):
    f = p("x + y + 1", r3xy)
    g = p("x^2 + y^2", r3xy)
    assert len(poly_mul(f, g).terms) <= len(f.terms) * len(g.terms)


def test_ring_mismatch(r3xy, r2xy):
    with pytest.raises(RingMismatchError):
        poly_mul(p("x", r3xy), p("x", r2xy))


def test_exponent_overflow_checked(r3x):
    f = r3x.monomial((EXP_LIMIT // 2,))
    with pytest.raises(ExponentOverflowError):
        poly_mul(poly_mul(f, f), f)
    with pytest.raises(ExponentOverflowError):
        frobenius_image(f, 3)


def test_negative_pow_rejected(r3x):
    with pytest.raises(ValueError):
        poly_pow(p("x", r3x), -1)


# --- the Frobenius box S/m^[q] ----------------------------------------------------


def truncated(f, q):
    return f.ring.poly({m: c for m, c in f.terms.items() if all(e < q for e in m)})


@given(f=polys(R3, max_terms=3, max_exp=4), s=st.integers(0, 30), e=st.integers(0, 3))
@settings(max_examples=60)
def test_box_pow_is_truncated_pow(f, s, e):
    # includes constant terms and s spanning several base-3 digits
    box = FrobeniusBox(R3, 3**e)
    assert box.unpack(box.pow(box.pack(f), s)) == truncated(tuple_pow(f, s), 3**e)


@given(f=polys(R3, max_exp=9), g=polys(R3, max_exp=9), e=st.integers(0, 2))
@settings(max_examples=60)
def test_box_mul_is_truncated_mul(f, g, e):
    box = FrobeniusBox(R3, 3**e)
    assert box.unpack(box.mul(box.pack(f), box.pack(g))) == truncated(poly_mul(f, g), 3**e)


def _random_poly(rng, ring, terms):
    return ring.poly({
        tuple(rng.randrange(4) for _ in range(ring.nvars)): rng.randrange(1, ring.p)
        for _ in range(terms)
    })


@pytest.mark.parametrize("prime", [2, 3, 5, 7])
def test_packed_kernels_match_the_tuple_oracle(prime):
    # _packed_pow and _packed_mul, plain on a layout that holds the result
    # and truncated to the box S/m^[q], against tuple_pow and poly_mul
    rng = random.Random(f"packed-kernels:{prime}")
    exponents = sorted(
        {0, 1, 2, prime - 1, prime, prime**2, 2 * prime**2, prime**2 + 1, 200}
        | {k * prime**2 for k in range(1, 200 // prime**2 + 1)}
        | set(rng.sample(range(201), 6))
    )
    for n in (1, 2, 3):
        ring = parse_ring(f"p={prime}; vars=" + ",".join("xyz"[:n]))
        polys = [ring.zero(), ring.const(rng.randrange(1, prime))]
        polys += [_random_poly(rng, ring, terms) for terms in (1, 2, 3)]
        for f in polys:
            for s in exponents:
                want = tuple_pow(f, s)
                lay = _layout(ring, _width(s * max(map(sum, f.terms), default=0)))
                assert lay.unpack(_packed_pow(lay.pack(f), s, prime), ordered=False) == want, (f, s)
                for q in (1, prime, prime**2, prime**3):
                    box = FrobeniusBox(ring, q)
                    got = box.unpack(_packed_pow(box.pack(f), s, prime, box._lay, q))
                    assert got == truncated(want, q), (f, s, q)
            for g in polys:
                want = poly_mul(f, g)
                lay = _layout(ring, _width(6 * n))
                assert lay.unpack(_packed_mul(lay.pack(f), lay.pack(g), prime)) == want, (f, g)
                for q in (1, prime, prime**2):
                    box = FrobeniusBox(ring, q)
                    got = box.unpack(_packed_mul(box.pack(f), box.pack(g), prime, box._lay, q))
                    assert got == truncated(want, q), (f, g, q)


def test_poly_pow_refuses_an_overflowing_power_before_forming_it(r3xyz):
    start = time.perf_counter()
    with pytest.raises(ExponentOverflowError, match=rf"in \({2**63 + 2}, 0, 0\)$"):
        poly_pow(p("x^2 + y + z", r3xyz), 2**62 + 1)
    with pytest.raises(ExponentOverflowError, match=rf"in \({2**63}, 0, 0\)$"):
        poly_pow(p("x + y + z", r3xyz), 2**63)
    assert time.perf_counter() - start < 1
    # the largest power that fits is formed
    top = EXP_LIMIT // 2
    assert poly_pow(p("2*x^2", r3xyz), top) == r3xyz.monomial((2 * top, 0, 0), pow(2, top, 3))


def test_poly_pow_refuses_a_power_past_the_term_cap(r3xyz):
    # (x + y + z)^(2^62 + 1) over F_3 may have far more than MAX_BOX_TERMS
    # terms: refused before any product
    start = time.perf_counter()
    with pytest.raises(ResourceCapExceeded, match="^resource cap exceeded: max_box_terms"):
        poly_pow(p("x + y + z", r3xyz), 2**62 + 1)
    assert time.perf_counter() - start < 0.1


def test_power_term_bound_takes_the_smaller_bound():
    # power_term_bound(t, deg f, k, s, p): the base-p digits of s bound
    # (x + y + z)^(3^k - 1) over F_3 exactly; the dense bound caps
    # (1 + x + ... + x^9)^1000 at its 9,001 monomials
    ring = parse_ring("p=3; vars=x,y,z")
    f = p("x + y + z", ring)
    for k in range(1, 5):
        assert power_term_bound(3, 1, 3, 3**k - 1, 3) == 6**k == len(tuple_pow(f, 3**k - 1).terms)
    assert power_term_bound(10, 9, 1, 1000, 3) == 9001
    assert power_term_bound(1, 4, 2, 2**62, 3) == 1  # a monomial
    assert power_term_bound(0, 0, 0, 5, 3) == 1  # zero
    dense = p(" + ".join(f"x^{i}" for i in range(10)), ring)
    assert poly_pow(dense, 30) == tuple_pow(dense, 30)


def _tuple_monomial_power(gens, N, q=None):
    """The minimal generators of (gens)^N outside m^[q] (all of them without
    q), on exponent tuples: every product g_1^k_1 * ... * g_r^k_r with
    sum k_j = N, pruned pairwise."""
    n = len(gens[0])
    products = set()
    for combo in itertools.combinations_with_replacement(range(len(gens)), N):
        mono = tuple(sum(gens[j][i] for j in combo) for i in range(n))
        if q is None or all(e < q for e in mono):
            products.add(mono)
    return {
        m for m in products
        if not any(u != m and all(a <= b for a, b in zip(u, m)) for u in products)
    }


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_minimal_power_matches_the_tuple_oracle(prime):
    # the square-and-multiply that ideal_power and the escape test share,
    # plain on a layout that holds a^N and truncated in the box S/m^[q]
    rng = random.Random(f"minimal-power:{prime}")
    for trial in range(24):
        n = 2 if trial % 2 else 3
        ring = parse_ring(f"p={prime}; vars=" + ",".join("xyz"[:n]))
        a = Ideal(ring, [
            ring.monomial(tuple(rng.randrange(4) for _ in range(n)))
            for _ in range(rng.randrange(2, 4))
        ])
        gens = list(a.monomial_exponents())
        for N in sorted(rng.sample(range(41 if n == 2 else 13), 4)):
            lay = ideals._layout(ring, ideals._width(N * max(map(sum, gens)) + 1))
            got = _minimal_power(list(map(lay.field_key, gens)), N, lay)
            assert {lay.exponents(m) for m in got} == _tuple_monomial_power(gens, N), (a, N)
            if N >= 2:
                assert got == sorted(got)
            for q in (1, prime, prime**2, prime**3):
                box = FrobeniusBox(ring, q)
                base = [key for g in a.generators for key in box.pack(g)]
                got = _minimal_power(base, N, box._lay, q)
                want = _tuple_monomial_power(gens, N, q)
                assert set(box.unpack(dict.fromkeys(got, 1)).terms) == want, (a, N, q)


@pytest.mark.parametrize("prime", [2, 3, 5, 7])
def test_box_keys_are_layout_field_keys(prime):
    # a box key is the key of the ring's layout at the box's width, degree
    # field masked off, and the field-by-field packing the box once did
    rng = random.Random(f"box-keys:{prime}")
    for n in range(1, 6):
        ring = parse_ring(f"p={prime}; vars=" + ",".join("xyzwv"[:n]))
        for e in range(6):
            q = prime**e
            box = FrobeniusBox(ring, q)
            w = (q - 1).bit_length() + 1
            lay = ideals._layout(ring, w)
            for _ in range(15):
                mono = tuple(rng.randrange(q) for _ in range(n))
                (key,) = box.pack(ring.monomial(mono))
                assert key == lay.key(mono) & lay.nodeg == sum(x << (w * i) for i, x in enumerate(mono))
                assert box.unpack({key: 1}) == ring.monomial(mono)


def test_box_rejects_exponents_past_the_limit(r3x):
    FrobeniusBox(r3x, 3**39)
    with pytest.raises(ExponentOverflowError):
        FrobeniusBox(r3x, 3**40)
    with pytest.raises(ValueError):
        FrobeniusBox(r3x, 6)
