"""Test ideals over a regular polynomial ambient.

The test ideal of (S, a^t) is computed as the stabilizing member of the
ascending chain

    K_e = (a^ceil(t * p^e)) ^ [1/p^e],       e = 1, 2, ..., e_cap

Each K_e is a bracket-root of an ideal power, so the whole computation
stays inside exact monomial-level arithmetic. ``ideals.power_root`` builds
an entry in one pass over the packed generator products of a^N, which is
never built as an ideal. The chain ascends, so once an entry is the unit
ideal every later one is too: an entry that is (1) is stored as (1), and
no power is formed after it. Stabilization is detected heuristically: three
consecutive equal entries starting no earlier than the least e with
t(p^e - 1) integral (when one exists). The heuristic is flagged in the
result rather than hidden, and a chain that fails to stabilize by the cap
raises loudly, naming the last two ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .ceilarith import ceil_mul, denominator_order, exponent_range
from .errors import ResourceCapExceeded
from .ideals import Ideal, ideal_contains, ideal_equals, power_root


@dataclass
class TestIdealResult:
    tau: Ideal
    stabilized_at: int
    e_floor: int
    chain: list[tuple[int, Ideal]]
    note: str = ""


def test_ideal(a: Ideal, t: Fraction, e_cap: int = 12) -> TestIdealResult:
    """Compute the test ideal of (S, a^t) over the regular ambient ring.

    Returns the first chain entry K_e with K_e = K_(e+1) = K_(e+2) and e
    at least the floor, the least e with t(p^e - 1) integral, or 1 when
    there is none. The chain's ascent is verified entry by entry, so
    K_e = K_(e+2) already gives all three equal; an ascent violation
    raises AssertionError because it can only mean a bug here. A computed
    entry equal to (1) is stored as ``Ideal.unit``, and every later entry
    is that unit ideal without a power or a check. An e_cap below 1 is
    refused with ValueError, a floor past it with ResourceCapExceeded.
    """
    if a.is_zero():
        raise ValueError("test ideal of the zero ideal is not defined")
    if t <= 0:
        raise ValueError(f"exponent must be positive, got {t}")
    ring = a.ring
    exponents = exponent_range(e_cap)
    e_floor = denominator_order(t, ring.p, e_cap) or 1
    unit = Ideal.unit(ring)
    chain: list[tuple[int, Ideal]] = []
    previous: Optional[Ideal] = None
    for e in exponents:
        if previous is unit:
            # the chain ascends, so every entry after a unit one is (1)
            entry = unit
        else:
            q = ring.p**e
            entry = power_root(a, ceil_mul(t, q), q)
            if entry.is_unit():  # caches the basis the ascent check reduces against
                entry = unit
            if previous is not None and not ideal_contains(entry, previous):
                raise AssertionError(f"chain ascent violated between e={e - 1} and e={e}")
        chain.append((e, entry))
        previous = entry
        if len(chain) >= 3:
            e_star, base = chain[-3]
            if e_star >= e_floor and ideal_equals(base, chain[-1][1]):
                return TestIdealResult(
                    tau=base,
                    stabilized_at=e_star,
                    e_floor=e_floor,
                    chain=chain,
                    note=(
                        "stabilization detected heuristically from two "
                        "consecutive equalities past the integrality floor"
                    ),
                )
    last_two = ", ".join(repr(entry) for _, entry in chain[-2:])
    raise ResourceCapExceeded(
        "test_ideal_e_cap",
        f"no stabilization by e={e_cap}; last two chain entries: {last_two}",
    )

