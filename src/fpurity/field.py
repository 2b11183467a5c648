"""The prime field F_p.

Elements are plain Python ints in ``[0, p)`` that callers reduce mod p
themselves; the field object checks the modulus and supplies inverses.
Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

_P_LIMIT = 2**31
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the twelve prime bases 2, ..., 37:
    exact for every n below 3.18 * 10^23, so for every n < 2^64 (Sorenson
    and Webster 2017)."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for b in _BASES:
        powers = [pow(b, (n - 1) >> i, n) for i in range(s, 0, -1)]
        if powers[0] != 1 and n - 1 not in powers:
            return False
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
