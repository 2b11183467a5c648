"""Exact threshold-exponent arithmetic.

Every criterion in this package consults exponents of the form
ceil(t*(q-1)), ceil(t*q), or floor(t*(q-1)) for a rational t and q = p^e,
and runs over the exponents e = 1..e_max. The four inequalities that make
those criteria compose across exponents are audited exhaustively by the
test suite (``tests/test_ceilarith.py``): a bug in this arithmetic would
silently corrupt every verdict downstream.

All arithmetic is big-integer exact; nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional

from .errors import ResourceCapExceeded


def ceil_mul(t: Fraction, n: int) -> int:
    """Exact ceil(t*n) via integer division."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    num = t.numerator * n
    return -((-num) // t.denominator)


def floor_mul(t: Fraction, n: int) -> int:
    """Exact floor(t*n)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return (t.numerator * n) // t.denominator


def exponent_range(e_max: int) -> range:
    """The exponents e = 1..e_max that a run tries; e_max < 1 is refused."""
    if e_max < 1:
        raise ValueError(f"e_max must be at least 1, got {e_max}")
    return range(1, e_max + 1)


def denominator_order(t: Fraction, p: int, e_cap: int = 64) -> Optional[int]:
    """Least e >= 1 with t*(p^e - 1) an integer, or None if none exists.

    Such an e exists exactly when p does not divide the reduced
    denominator of t, and is then the multiplicative order of p modulo
    that denominator. If the order exists but exceeds e_cap, raises
    ResourceCapExceeded, which is deliberately distinct from None.
    """
    den = t.denominator
    if den == 1:
        return 1
    if gcd(den, p) != 1:
        return None
    residue = p % den
    acc = residue
    for e in range(1, e_cap + 1):
        if acc == 1 % den:
            return e
        acc = (acc * residue) % den
    raise ResourceCapExceeded(
        "denominator_order_e_cap",
        f"order of {p} mod {den} exceeds e_cap={e_cap} but exists",
    )

