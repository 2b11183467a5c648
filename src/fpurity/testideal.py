"""Test ideals over a regular polynomial ambient, radicality probes, and
the quotient containment checks that tie the purity and closure layers
together.

The test ideal of (S, a^t) is computed as the stabilizing member of the
ascending chain

    K_e = (a^ceil(t * p^e)) ^ [1/p^e],       e = 1, 2, ...

Each K_e is a bracket-root of an ideal power, so the whole computation
stays inside exact monomial-level arithmetic. Stabilization is detected
heuristically: three consecutive equal entries starting no earlier than
the least e with t(p^e - 1) integral (when one exists). The heuristic is
flagged in the result rather than hidden, and a chain that fails to
stabilize by the cap raises loudly, naming the last two ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .ceilarith import ceil_mul, denominator_order
from .errors import NonMonomialIdealError, ResourceCapExceeded
from .ideals import (
    Ideal,
    fedder_colon,
    ideal_contains,
    ideal_equals,
    ideal_power,
    membership,
    root_power,
)
from .poly import SparsePolynomial, poly_pow
from .purity import DEGENERATE, PairSpec, PurityVerdict, SHARP, sharp_fedder
from .report import ConsistencyReport


@dataclass
class TestIdealResult:
    tau: Ideal
    stabilized_at: int
    e_floor: int
    chain: list[tuple[int, Ideal]]
    note: str = ""


def test_ideal(
    a: Ideal,
    t: Fraction,
    e_floor: Optional[int] = None,
    e_cap: int = 12,
) -> TestIdealResult:
    """Compute the test ideal of (S, a^t) over the regular ambient ring.

    Returns the first chain entry K_e with K_e = K_(e+1) = K_(e+2) and
    e >= e_floor. The chain's ascent is verified entry by entry; an ascent
    violation raises AssertionError because it can only mean a bug here.
    """
    if a.is_zero():
        raise ValueError("test ideal of the zero ideal is not defined")
    if t <= 0:
        raise ValueError(f"exponent must be positive, got {t}")
    ring = a.ring
    if e_floor is None:
        e_floor = denominator_order(t, ring.p) or 1
    chain: list[tuple[int, Ideal]] = []
    previous: Optional[Ideal] = None
    for e in range(1, e_cap + 1):
        q = ring.p**e
        entry = root_power(ideal_power(a, ceil_mul(t, q)), q)
        if previous is not None and not ideal_contains(entry, previous):
            raise AssertionError(f"chain ascent violated between e={e - 1} and e={e}")
        chain.append((e, entry))
        previous = entry
        if len(chain) >= 3:
            e_star, base = chain[-3]
            if (
                e_star >= e_floor
                and ideal_equals(base, chain[-2][1])
                and ideal_equals(base, chain[-1][1])
            ):
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


def is_radical_monomial(I: Ideal) -> bool:
    """Exact radicality test for monomial ideals: all generators squarefree.

    The zero ideal and the unit ideal count as radical. Any other
    non-monomial input raises NonMonomialIdealError; use radical_probe for
    evidence in that case.
    """
    if I.is_zero() or I.has_constant_generator():
        return True
    if not I.is_monomial:
        raise NonMonomialIdealError(
            "exact radicality is only decided for monomial ideals"
        )
    return all(
        all(e <= 1 for e in mono) for mono in I.monomial_exponents()
    )


def radical_probe(I: Ideal, probes: list[SparsePolynomial], k_max: int) -> ConsistencyReport:
    """Search for radicality violations: g^k in I while g is not.

    A violation is a certificate that I is not radical; a clean run is
    evidence only, bounded by the probe list and k_max.
    """
    report = ConsistencyReport(subject="radicality probes")
    for idx, g in enumerate(probes):
        in_ideal = membership(g, I)
        for k in range(2, k_max + 1):
            power_in = membership(poly_pow(g, k), I)
            report.record(not power_in or in_ideal, probe=idx, k=k, g=repr(g))
    return report


def vassilev_containment(
    I: Ideal,
    a_preimage: Ideal,
    t: Fraction,
    tau_pullback: Ideal,
    q: int,
) -> bool:
    """Check  a'^ceil(t(q-1)) * (I^[q] : I)  inside  (T^[q] : T)  for the
    pulled-back test ideal T.

    This is the containment that forces F-purity of the quotient by the
    test ideal; it must hold for every q when T really is the pullback.
    """
    if not ideal_contains(tau_pullback, I):
        raise ValueError("tau_pullback must contain the defining ideal")
    lhs = ideal_power(a_preimage, ceil_mul(t, q - 1)).times(fedder_colon(I, q))
    rhs = fedder_colon(tau_pullback, q)
    return ideal_contains(rhs, lhs)


def quotient_fpure_check(tau: Ideal, e_max: int = 4) -> PurityVerdict:
    """Decide F-purity of S/tau at the origin via the trivial-pair check.

    The unit ideal gives the zero ring, reported as degenerate rather than
    decided. The zero ideal gives S itself, which the criterion proves
    pure immediately.
    """
    if tau.has_constant_generator():
        return PurityVerdict(
            criterion=SHARP,
            outcome=DEGENERATE,
            e_tested=(),
            note="quotient by the unit ideal is the zero ring; F-purity undefined",
        )
    pair = PairSpec(tau.ring, tau, Ideal.unit(tau.ring), Fraction(1))
    return sharp_fedder(pair, e_max)
