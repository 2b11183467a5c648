"""The prime field F_p.

Elements are plain Python ints in ``[0, p)`` that callers reduce mod p
themselves; the field object checks the modulus and supplies inverses.
Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

_P_LIMIT = 2**31


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for p < 2^31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime p < 2^31."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not 2 <= self.p < _P_LIMIT:
            raise ValueError(f"modulus must be an integer in [2, 2^31), got {self.p!r}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("no inverse of 0 in a field")
        return pow(a, -1, self.p)
