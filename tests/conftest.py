from __future__ import annotations

import pytest

from fpurity import frobenius_image, parse_poly, parse_ring, poly_mul
from fpurity.poly import grevlex_key


@pytest.fixture
def r3x():
    return parse_ring("p=3; vars=x")


@pytest.fixture
def r3xy():
    return parse_ring("p=3; vars=x,y")


@pytest.fixture
def r3xyz():
    return parse_ring("p=3; vars=x,y,z")


@pytest.fixture
def r2xy():
    return parse_ring("p=2; vars=x,y")


def p(text, ring):
    return parse_poly(text, ring)


def elim_key(m):
    """The elimination order on exponent tuples (t, x_1, ..., x_n) as an
    ascending sort key: t's exponent first, then grevlex on the rest. The
    packed kernels order the keys of ``_layout(..., elim=True)`` so."""
    return m[0], grevlex_key(m[1:])


def tuple_pow(f, s):
    """f^s on exponent tuples, independent of the packed kernels: s = s0 * p^k
    with p not dividing s0, f^s0 by square-and-multiply with ``poly_mul``,
    then the k-fold Frobenius (``frobenius_image``)."""
    if s == 0:
        return f.ring.one()
    q = 1
    while s % f.ring.p == 0:
        s, q = s // f.ring.p, q * f.ring.p
    base, acc = f, None
    while s:
        if s & 1:
            acc = base if acc is None else poly_mul(acc, base)
        s >>= 1
        if s:
            base = poly_mul(base, base)
    return frobenius_image(acc, q)
