"""F-pure thresholds: nu-sequences, two-sided interval bounds, and exact
rationality certificates.

nu_a(q) is the largest s with a^s escaping m^[q], for m the homogeneous
maximal ideal of a's ring; every function here takes m from a, never as an
argument. It is computed inside the Frobenius box S/m^[q], where a term
drops out as soon as one of its exponents reaches q, so "a^s inside m^[q]"
is "a^s vanishes in the box"; ``ProductWalk``, the enumeration of the
purity criteria and the ideal powers, asks it. The walk q' = p, p^2, ...,
q binary-searches each nu(q') in the window that nu(q'/p) allows; see
``nu_value``.

Dividing nu by q gives a lower bound for the threshold of a; the matching
upper bound is (nu + mu)/q where mu is the number of generators of a
(mu = 1 recovers the familiar principal-case bound (nu + 1)/q, and the
extra slack for non-principal a is forced by the pigeonhole step of the
scaling argument).

An exact value is only ever claimed with a certificate: either the
interval degenerates onto a proven-sharp exponent, or the principal
integrality pattern nu(p^e) = t(p^e - 1) pins the threshold down. Anything
less is reported as a proven lower bound or a bare interval. Over S the
sharp criterion at t and q is ceil(t(q-1)) <= nu(q), so sharp proofs are
read off the nu table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .ceilarith import ceil_mul, denominator_order, exponent_range
from .errors import ResourceCapExceeded
from .ideals import Ideal, ProductWalk
from .poly import check_q

CANDIDATE_CAP = 10_000

CERT_SHARP = "sharp-fedder"
CERT_MUSTATA = "mustata-converse"

LABEL_EXACT = "exact"
LABEL_LOWER_BOUND = "lower-bound"
LABEL_INTERVAL = "interval"


@dataclass(frozen=True)
class NuRecord:
    e: int
    q: int
    nu: int
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class FptCertificate:
    t_star: Fraction
    e_star: int
    kind: str
    exact: bool


@dataclass
class FptEstimate:
    lo: Fraction
    hi: Fraction
    records: list[NuRecord]
    certificate: Optional[FptCertificate]
    label: str


def nu_value(a: Ideal, q: int) -> int:
    """max{s >= 0 : a^s escapes m^[q]}, walking q' = p, p^2, ..., q.

    m is the homogeneous maximal ideal of a's ring; every test "a^s inside
    m^[q']?" runs in the box S/m^[q'] (``ideals.ProductWalk``), where it
    asks whether a^s vanishes. The predicate is monotone in s, so each level
    is a binary search, started from nu(1) = 0 (a sits in m) and confined to
    the window that the previous level's nu = nu(q'/p) leaves:

      * principal a:      p*nu <= nu(q') <= p*nu + p - 1,
      * mu generators:    p*nu <= nu(q') <= p*(nu + 1) + mu*(p - 1) - 1,

    the latter also capped by n(q' - 1), past which a^s sits in m^[q'] by
    pigeonhole. The lower end holds because Frobenius maps an escaping
    element of a^nu to one of a^(p*nu); the upper end because a^(nu+1)
    lies in m^[q'/p], so its Frobenius image (f^(nu+1))^p, or by
    pigeonhole a^(p*(nu+1) + mu*(p-1)), lies in m^[q'] (Mustata, Takagi
    and Watanabe, "F-thresholds and Bernstein-Sato polynomials", 2005).
    Both ends are checked before the search (a^lo escapes, a^(hi+1) is
    contained); a failed check is an engine bug and raises AssertionError.
    a^0 is the whole ring and never contained.

    Each level asks one ``ProductWalk`` in the box, the enumeration the
    Fedder criteria use, so its cap on the products formed applies here too.
    """
    if a.is_zero():
        raise ValueError("nu is undefined for the zero ideal")
    ring = a.ring
    p, n = ring.p, ring.nvars
    check_q(p, q)
    origin = (0,) * n
    if any(origin in g.terms for g in a.generators):
        raise ValueError("a must be contained in m, otherwise nu is infinite")
    mu = len(a.generators)
    nu, level = 0, 1
    while level < q:
        level *= p
        escapes = ProductWalk(a, level).escapes
        # a^lo escapes and a^hi is contained, so lo <= nu(level) < hi
        lo = p * nu
        hi = lo + p if mu == 1 else min(p * (nu + 1) + mu * (p - 1), n * (level - 1) + 1)
        if not escapes(lo) or escapes(hi):
            raise AssertionError(
                f"nu({level}) left the window [{lo}, {hi - 1}] "
                f"given by nu({level // p}) = {nu}"
            )
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if escapes(mid) else (lo, mid)
        nu = lo
    return nu


def fpt_bounds(a: Ideal, e: int) -> NuRecord:
    """The interval [nu/q, (nu + mu)/q] containing the threshold at q = p^e."""
    q = a.ring.p**e
    nu = nu_value(a, q)
    mu = len(a.generators)
    return NuRecord(e=e, q=q, nu=nu, lo=Fraction(nu, q), hi=Fraction(nu + mu, q))


def nu_table(a: Ideal, e_max: int) -> list[NuRecord]:
    """The records of ``fpt_bounds`` for e = 1..e_max; e_max < 1 is refused."""
    return [fpt_bounds(a, e) for e in exponent_range(e_max)]


def _candidates(lo: Fraction, hi: Fraction, p: int, e_max: int) -> list[Fraction]:
    """Positive rationals in [lo, hi] whose denominator divides p^e - 1,
    e <= e_max: the k/(p^e - 1) for integers k, since a reduced denominator
    divides p^e - 1 iff the rational is such a k/(p^e - 1)."""
    found: set[Fraction] = set()
    for e in range(1, e_max + 1):
        den = p**e - 1
        k_hi = (hi.numerator * den) // hi.denominator
        for k in range(max(ceil_mul(lo, den), 1), k_hi + 1):
            found.add(Fraction(k, den))
            if len(found) > CANDIDATE_CAP:
                raise ResourceCapExceeded(
                    "fpt_candidate_cap", f"more than {CANDIDATE_CAP} candidates"
                )
    return sorted(found, reverse=True)


def fpt_estimate(a: Ideal, e_max: int) -> FptEstimate:
    """Interval estimate of the threshold with an exactness certificate
    when one of the two finite checks lands.

    Candidates are the rationals in the intersected interval whose
    denominator divides some p^e - 1 (the only shape a certified
    threshold can have), tried from the top down:

      * principal a with candidate below 1: the integrality pattern
        nu(p^e) = t(p^e - 1) certifies the exact value;
      * otherwise a sharp purity proof at the candidate, with every higher
        candidate inconclusive, certifies a proven lower bound, exact only
        if the candidate already sits at the interval's top.

    The sharp proof is read off the nu table at the exponents e <= e_max
    that ``sharp_fedder`` would try (see the module docstring).
    """
    records = nu_table(a, e_max)
    lo = max(r.lo for r in records)
    hi = min(r.hi for r in records)
    if lo > hi:
        raise AssertionError("nu intervals failed to nest")
    p = a.ring.p
    nu_by_e = {r.e: r.nu for r in records}

    def nu_at(e: int) -> int:
        if e not in nu_by_e:
            nu_by_e[e] = nu_value(a, p**e)
        return nu_by_e[e]

    for t_star in _candidates(lo, hi, p, e_max):
        if len(a.generators) == 1 and t_star < 1:
            e_star = denominator_order(t_star, p, e_cap=e_max)
            if e_star is not None and e_star <= e_max:
                # a true threshold with integral t(p^(e*) - 1) matches nu at
                # every multiple of e*; a single-exponent match can be a
                # numerical accident, so insist on all multiples up to at
                # least 2*e* before certifying
                exponents = range(e_star, max(e_max, 2 * e_star) + 1, e_star)
                if all(nu_at(e) == t_star * (p**e - 1) for e in exponents):
                    certificate = FptCertificate(t_star, e_star, CERT_MUSTATA, exact=True)
                    return FptEstimate(lo, hi, records, certificate, LABEL_EXACT)
        if any(ceil_mul(t_star, r.q - 1) <= r.nu for r in records):
            e_star = denominator_order(t_star, p, e_cap=e_max)
            exact = t_star == hi
            certificate = FptCertificate(t_star, e_star, CERT_SHARP, exact=exact)
            return FptEstimate(
                lo, hi, records, certificate, LABEL_EXACT if exact else LABEL_LOWER_BOUND
            )
    return FptEstimate(lo, hi, records, None, LABEL_INTERVAL)

