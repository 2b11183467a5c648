"""Sharp Frobenius closure membership and tight-closure witness checks.

The membership condition for z against an ideal I under a pair (a, t) is

    a^ceil(t(q-1)) * z^q  inside  I^[q]        for all e >> 0, q = p^e.

That quantifier is infinitary, so the verdicts here are deliberately
asymmetric. Membership is certified only through the principal-ideal
shortcut (an exponent e with t(p^e - 1) integral and the containment
verified there); containment over a finite range without that shortcut is
reported as bounded evidence, and failures are diagnostic (failure at
finitely many e disproves nothing, since legitimacy only requires large e).

Both probes read one trace: for e = 0, 1, 2, ..., whether

    c * a^ceil(t(q-1)) * z^q  inside  I^[q].

Its e = 0 row is c*z in I, since a^0 is the whole ring. The closure probe
is the trace with c = 1, and its e = 0 row is the "z in I" check. The
witness check is the trace with a multiplier c for e = 0..e_max. With c a
generator of the test ideal and z in I it is the containment a sharp test
element must satisfy; with u * z^q in place of z, for u in
a^ceil(t(q-1)), and I^[q] in place of I, it checks that
a^ceil(t(q-1)) * z^q lands in the closure of I^[q].

Pairs over a quotient R = S/I_def are handled in the ambient ring by
adjoining the defining ideal: J inside K in R means J inside K + I_def
in S. Since every such target contains I_def, the generators of a' that
lie in I_def are dropped before a' is powered: a pair (x, f) over S/(f)
powers the principal ideal (x).

Every row of the trace is decided by ``ideals.all_members``. When a
target I^[q] + I_def is homogeneous in positive weights W, that is one
Buchberger run truncated at the top W-degree of the products, not the
full reduced basis of I^[q] + I_def. Frobenius multiplies every exponent
difference of a generator by q, so the targets of one probe are graded
by the weights that grade I + I_def. A probe whose I + I_def has no
evident grading, such as a non-quasi-homogeneous I_def, falls back to
the full basis at each e; zero, unit and monomial targets need no basis
at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .ceilarith import ceil_mul, denominator_order, exponent_range
from .errors import ResourceCapExceeded
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


def _trace(
    z: SparsePolynomial, I: Ideal, pair: PairSpec, c: SparsePolynomial
) -> Iterator[bool]:
    """For e = 0, 1, 2, ...: whether c * a''^ceil(t(q-1)) * z^q lies in
    I^[q] + I_def, each decided by ``all_members``.

    a'' is the ideal of ``PairSpec.outside_defining``. That is exact because
    every target here contains I_def: with a' = a'' + b and b inside I_def,
    a'^N lies in (a'')^N + I_def, and (a'')^N lies in a'^N, so a'^N * g and
    (a'')^N * g lie in the same targets. When every generator of a' lies in
    I_def, a''^N is the zero ideal for N >= 1. The e = 0 row is c*z in I,
    since the zeroth power is the whole ring.
    """
    a = Ideal(pair.ring, pair.outside_defining)
    for e in itertools.count():
        q = pair.ring.p**e
        g = c * frobenius_image(z, q)
        target = _quotient_target(I, pair, q)
        powered = ideal_power(a, ceil_mul(pair.t, q - 1))
        yield all_members([u * g for u in powered.generators], target)


def sharp_frobenius_membership(
    z: SparsePolynomial,
    I: Ideal,
    pair: PairSpec,
    e_max: int,
) -> ClosureVerdict:
    """Probe z against the sharp Frobenius closure of I under the pair.

    The trace with c = 1 over e = 0..e_max; an e_max below 1 is refused.
    Its e = 0 row is z in I (mod the defining ideal), which short-circuits
    to trivially-in. A certificate is issued when the pair ideal is
    principal and some tested e has t(p^e - 1) integral with the
    containment verified there; the certificate stands regardless of
    failures at other exponents, which the large-e quantifier tolerates.
    """
    e_values = exponent_range(e_max)
    rows = _trace(z, I, pair, pair.ring.one())
    if next(rows):
        return ClosureVerdict(TRIVIALLY_IN, note="z already lies in I")
    order = None
    if pair.principal_modulo_defining():
        try:
            order = denominator_order(pair.t, pair.ring.p, e_cap=e_max)
        except ResourceCapExceeded:  # an order past e_max divides no tested e
            pass
    held: list[int] = []
    failed: list[int] = []
    certified: Optional[int] = None
    for e, contained in zip(e_values, rows):
        (held if contained else failed).append(e)
        if contained and certified is None and order is not None and e % order == 0:
            certified = e
    certificate = None
    if certified is not None:
        outcome, certificate = CERTIFIED_IN, CERT_PRINCIPAL_INTEGRAL
        note = (
            f"principal pair ideal with t(p^{certified} - 1) integral and the "
            f"containment verified at e={certified}: z is in the closure"
        )
    elif failed:
        outcome = FAILED_AT
        note = (
            "diagnostic only: failures at finitely many e do not disprove "
            "membership, which requires failure at infinitely many e"
        )
    else:
        outcome = BOUNDED_IN
        note = (
            "containment held over the whole tested range but no certificate "
            "applies; evidence only"
        )
    return ClosureVerdict(
        outcome, tuple(e_values), tuple(held), tuple(failed), certified, certificate, note
    )


def tight_closure_witness_check(
    z: SparsePolynomial,
    I: Ideal,
    pair: PairSpec,
    c: SparsePolynomial,
    e_max: int,
) -> tuple[bool, dict[int, bool]]:
    """Check  c * a^ceil(t(q-1)) * z^q  inside I^[q]  for e = 0..e_max.

    The trace with multiplier c. A clean run is necessary evidence for z
    lying in the a^t-tight closure of I with multiplier c, not a proof.
    """
    if c.is_zero():
        raise ValueError("witness multiplier c must be nonzero")
    if e_max < 0:
        raise ValueError(f"e_max must be at least 0, got {e_max}")
    trace = dict(zip(range(e_max + 1), _trace(z, I, pair, c)))
    return all(trace.values()), trace
