"""Sharp Frobenius closure membership and tight-closure witness checks.

The membership condition for z against an ideal I under a pair (a, t) is

    a^ceil(t(q-1)) * z^q  inside  I^[q]        for all e >> 0, q = p^e.

That quantifier is infinitary, so the verdicts here are deliberately
asymmetric. Membership is certified only through the principal-ideal
shortcut (an exponent e with t(p^e - 1) integral and the containment
verified there); containment over a finite range without that shortcut is
reported as bounded evidence, and failures are diagnostic (failure at
finitely many e disproves nothing, since legitimacy only requires large e).

A tight-closure witness trace checks c * a^ceil(t(q-1)) * z^q inside I^[q]
for e = 0..e_max. With c a generator of the test ideal and z in I it is the
containment a sharp test element must satisfy; with u * z^q in place of z,
for u in a^ceil(t(q-1)), and I^[q] in place of I, it checks that
a^ceil(t(q-1)) * z^q lands in the closure of I^[q].

Pairs over a quotient R = S/I_def are handled in the ambient ring by
adjoining the defining ideal: J inside K in R means J inside K + I_def
in S. Since every such target contains I_def, the generators of a' that
lie in I_def are dropped before a' is powered: a pair (x, f) over S/(f)
powers the principal ideal (x).

Every containment here, the products at each e and the "z in I" check,
is decided by ``ideals.all_members``. When a target I^[q] + I_def is
homogeneous in positive weights W, that is one Buchberger run truncated
at the top W-degree of the products, not the full reduced basis of
I^[q] + I_def. Frobenius multiplies every exponent difference of a
generator by q, so the targets of one probe are graded by the weights
that grade I + I_def. A probe whose I + I_def has no evident grading,
such as a non-quasi-homogeneous I_def, falls back to the full basis at
each e; zero, unit and monomial targets need no basis at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .ceilarith import ceil_mul, denominator_order
from .ideals import Ideal, all_members, ideal_power
from .poly import SparsePolynomial, frobenius_image
from .purity import PairSpec

TRIVIALLY_IN = "trivially-in"
CERTIFIED_IN = "certified-in"
BOUNDED_IN = "bounded-in"
FAILED_AT = "failed-at"

CERT_PRINCIPAL_INTEGRAL = "principal-integral-exponent"


@dataclass
class ClosureVerdict:
    outcome: str
    e_tested: tuple[int, ...] = ()
    held_e: tuple[int, ...] = ()
    failed_e: tuple[int, ...] = ()
    certified_e: Optional[int] = None
    certificate: Optional[str] = None
    note: str = ""


def _quotient_target(I: Ideal, pair: PairSpec, q: int) -> Ideal:
    """I^[q] as seen from the ambient ring: I^[q] + I_def."""
    bracket = [frobenius_image(g, q) for g in I.generators]
    return Ideal(I.ring, bracket + list(pair.defining.generators))


def _power_times_contained(g: SparsePolynomial, pair: PairSpec, N: int, target: Ideal) -> bool:
    """a'^N * g inside target, decided by ``all_members``.

    A graded target is decided against its basis truncated at the
    products' top weighted degree; an ungraded one takes the full basis.

    Only the generators of a' outside the defining ideal are powered. That
    is exact because every target here contains I_def: with a' = a'' + b
    and b inside I_def, a'^N lies in (a'')^N + I_def, and (a'')^N lies in
    a'^N, so a'^N * g and (a'')^N * g lie in the same targets. When every
    generator of a' lies in I_def, a''^N is the zero ideal for N >= 1.
    """
    powered = ideal_power(Ideal(pair.ring, pair.outside_defining), N)
    return all_members([u * g for u in powered.generators], target)


def sharp_frobenius_membership(
    z: SparsePolynomial,
    I: Ideal,
    pair: PairSpec,
    e_range: Iterable[int],
) -> ClosureVerdict:
    """Probe z against the sharp Frobenius closure of I under the pair.

    The exponents tried are e_range, usually 1..e_max; an empty range is
    refused. z in I (mod the defining ideal) short-circuits to
    trivially-in. A certificate is issued when the pair ideal is principal
    and some tested e has t(p^e - 1) integral with the containment
    verified there; the certificate stands regardless of failures at other
    exponents, which the large-e quantifier tolerates.
    """
    e_values = sorted(set(e_range))
    if not e_values:
        raise ValueError("e_max must be at least 1: the exponent range is empty")
    if e_values[0] < 1:
        raise ValueError("closure exponents start at e=1")
    p = pair.ring.p
    if all_members([z], _quotient_target(I, pair, 1)):
        return ClosureVerdict(TRIVIALLY_IN, note="z already lies in I")
    order = denominator_order(pair.t, p) if pair.principal_modulo_defining() else None
    held: list[int] = []
    failed: list[int] = []
    certified: Optional[int] = None
    for e in e_values:
        q = p**e
        contained = _power_times_contained(
            frobenius_image(z, q), pair, ceil_mul(pair.t, q - 1), _quotient_target(I, pair, q)
        )
        (held if contained else failed).append(e)
        if contained and certified is None and order is not None and e % order == 0:
            certified = e
    if certified is not None:
        return ClosureVerdict(
            CERTIFIED_IN,
            tuple(e_values),
            tuple(held),
            tuple(failed),
            certified,
            CERT_PRINCIPAL_INTEGRAL,
            note=(
                f"principal pair ideal with t(p^{certified} - 1) integral and the "
                f"containment verified at e={certified}: z is in the closure"
            ),
        )
    if failed:
        return ClosureVerdict(
            FAILED_AT,
            tuple(e_values),
            tuple(held),
            tuple(failed),
            note=(
                "diagnostic only: failures at finitely many e do not disprove "
                "membership, which requires failure at infinitely many e"
            ),
        )
    return ClosureVerdict(
        BOUNDED_IN,
        tuple(e_values),
        tuple(held),
        tuple(failed),
        note=(
            "containment held over the whole tested range but no certificate "
            "applies; evidence only"
        ),
    )


def tight_closure_witness_check(
    z: SparsePolynomial,
    I: Ideal,
    pair: PairSpec,
    c: SparsePolynomial,
    e_max: int,
) -> tuple[bool, dict[int, bool]]:
    """Check  c * a^ceil(t(q-1)) * z^q  inside I^[q]  for e = 0..e_max.

    A clean run is necessary evidence for z lying in the a^t-tight closure
    of I with multiplier c, not a proof. The e = 0 row is c*z in I, since
    the zeroth pair power is the whole ring.
    """
    if c.is_zero():
        raise ValueError("witness multiplier c must be nonzero")
    if e_max < 0:
        raise ValueError(f"e_max must be at least 0, got {e_max}")
    p = pair.ring.p
    trace: dict[int, bool] = {}
    for e in range(0, e_max + 1):
        q = p**e
        trace[e] = _power_times_contained(
            c * frobenius_image(z, q), pair, ceil_mul(pair.t, q - 1), _quotient_target(I, pair, q)
        )
    return all(trace.values()), trace

