"""F-purity of pairs (R, a^t), R = S/I, decided at the origin through the
ideal-theoretic splitting criterion.

For q = p^e the criterion tests whether

    a'^N * (I^[q] : I)  escapes  m^[q],      m = (x_1, ..., x_n),

with N = ceil(t(q-1)) for the sharp flavor, ceil(t*q) for the strong one,
and floor(t(q-1)) for the classic one. A sharp or strong escape at a
single e > 0 is a proof of purity (one splitting generates splittings at
all multiples of e). Containment at every tested e proves nothing, since
the criteria quantify over infinitely many q: those runs come back
inconclusive, never negative. The classic check is diagnostic per-e
evidence only.

The colon comes from ``fedder_colon``. When I is homogeneous in positive
weights W, a monomial outside m^[q] has W-degree at most sum(W) * (q-1), so
only colon generators up to a degree bound D can enter an escaping product;
the colon is computed only up to D, and a negative D settles containment
with no Groebner work. Because m^[q] is monomial, each generator product is
tested in the finite quotient S/m^[q], on the Groebner engine's packed
keys: it escapes iff its truncated product is nonzero. That box belongs to
``ideals.ProductWalk``, which enumerates the products u of a'^N lazily,
with the colon generators v inside, and forms in full only the u of the
escaping pair; ``nu_value`` and ``ideal_power`` ask the same walk, and its
one cap on the products formed lives there. A proven verdict keeps the
escaping pair (u, v) beside the product, and ``verify_witness`` rechecks
the pair by its factors: u in a'^N, v*f in I^[q] for every generator f of
I (the definition of v in I^[q] : I), u*v the stored witness, and the
witness outside m^[q]. The recheck computes no colon, so it is independent
of ``fedder_colon``, the degree bound and the box.

All checks happen at the homogeneous maximal ideal, the standard
computable model for the local criterion, so an I outside m, where S/I has
no point at the origin, is refused. The defining ideal I is assumed
radical; the package does not verify that (it is expensive in general).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from .ceilarith import ceil_mul, exponent_range, floor_mul
from .errors import RingMismatchError
from .ideals import (
    Ideal,
    ProductWalk,
    bracket_power,
    fedder_colon,
    ideal_contains,
    ideal_power,
    membership,
    positive_grading,
)
from .poly import PolyRing, SparsePolynomial

SHARP = "sharp"
STRONG = "strong"
CLASSIC = "classic-F-pure"

PROVEN_PURE = "proven-pure"
INCONCLUSIVE = "inconclusive"
FAILED_AT_ALL = "failed-at-all"

Factors = tuple[SparsePolynomial, SparsePolynomial]  # (u, v) of a witness u*v


def maximal_ideal(ring: PolyRing) -> Ideal:
    """The homogeneous maximal ideal (x_1, ..., x_n)."""
    return Ideal(ring, [ring.var(v) for v in ring.variables])


@dataclass(frozen=True)
class PairSpec:
    """A pair (R, a^t) with R = S/I, presented inside the ambient ring S.

    ``a_preimage`` is an ideal of S containing I whose image in R is the
    pair ideal a. The hypothesis that a meets R-degrees away from every
    minimal prime is the caller's responsibility; deciding it would need
    minimal primes, which this package does not compute.
    """

    ring: PolyRing
    defining: Ideal
    a_preimage: Ideal
    t: Fraction

    def __post_init__(self):
        if self.defining.ring != self.ring or self.a_preimage.ring != self.ring:
            raise RingMismatchError("pair components live in different rings")
        if self.t <= 0:
            raise ValueError(f"pair exponent must be positive, got {self.t}")
        if self.a_preimage.is_zero():
            raise ValueError("pair ideal must be nonzero")
        if not ideal_contains(self.a_preimage, self.defining):
            raise ValueError("a_preimage must contain the defining ideal")

    @cached_property
    def outside_defining(self) -> tuple[SparsePolynomial, ...]:
        """The generators of a_preimage that are not in the defining ideal.

        They generate the same ideal of R as a_preimage does.
        """
        return tuple(
            g for g in self.a_preimage.generators if not membership(g, self.defining)
        )

    def principal_modulo_defining(self) -> bool:
        """True when the image of a_preimage in R is principal.

        Decided by counting generators outside the defining ideal; with at
        most one such generator the image is visibly principal.
        """
        return len(self.outside_defining) <= 1


@dataclass
class PurityVerdict:
    """Outcome of a purity criterion run.

    ``per_e`` maps each tested e to whether the escape condition held
    there. A proven verdict carries q = p^e, an explicit generator product
    ``witness_poly`` that escapes m^[q], and its factors ``witness_factors``
    = (u, v) with u in a'^N and v in I^[q] : I; verify_witness rechecks all
    of it from scratch.
    """

    criterion: str
    outcome: str
    e_tested: tuple[int, ...]
    per_e: dict[int, bool] = field(default_factory=dict)
    witness_e: Optional[int] = None
    witness_q: Optional[int] = None
    witness_poly: Optional[SparsePolynomial] = None
    witness_factors: Optional[Factors] = None
    note: str = ""

    @property
    def proven(self) -> bool:
        return self.outcome == PROVEN_PURE


def _escape_bound(pair: PairSpec, N: int, q: int) -> Optional[int]:
    """The largest W-degree of a colon generator v for which some u*v,
    u in a'^N, can escape m^[q]; None when I has no evident positive
    grading W (``positive_grading``).

    A monomial outside m^[q] has W-degree at most sum(W) * (q-1). Every term
    of u has W-degree at least N times the least W-degree of a term of a
    generator of a', and v is W-homogeneous, so u*v escapes only if
    deg_W v <= sum(W) * (q-1) - N * that least degree.
    """
    weights = positive_grading(pair.defining)
    if weights is None:
        return None
    least = min(
        sum(e * w for e, w in zip(m, weights))
        for g in pair.a_preimage.generators
        for m in g.terms
    )
    return sum(weights) * (q - 1) - N * least


def _escape_witness(pair: PairSpec, N: int, q: int) -> Optional[Factors]:
    """The first generator pair (u, v), u of a'^N and v of I^[q] : I, whose
    product u*v lies outside m^[q], if any, with u running over a'^N in
    ``ideal_power``'s order and v over the colon (``ProductWalk.witness``).

    Only colon generators of W-degree up to ``_escape_bound`` can take part,
    so the colon is computed only up to it; it is the subsequence of the
    full colon's generators up to that degree, so the first escaping pair
    is the same. A negative bound settles containment with no colon at all.
    """
    bound = _escape_bound(pair, N, q)
    if bound is not None and bound < 0:
        return None
    cond = fedder_colon(pair.defining, q, bound)
    if cond.is_zero():
        return None  # no colon generator is low enough, so nothing escapes
    return ProductWalk(pair.a_preimage, q).witness(N, cond.generators)


def _exponent(criterion: str, t: Fraction, q: int) -> int:
    """The power of a' that a criterion tests at q: ceil(t(q-1)) for sharp,
    ceil(tq) for strong, floor(t(q-1)) for classic. For t > 0 these satisfy
    classic <= sharp <= strong."""
    if criterion == SHARP:
        return ceil_mul(t, q - 1)
    if criterion == STRONG:
        return ceil_mul(t, q)
    return floor_mul(t, q - 1)


def _run_criterion(pair: PairSpec, criterion: str, e_values: Iterable[int]) -> PurityVerdict:
    """Test the escape condition at each e in turn; a sharp or strong run
    stops at its first escape, which already proves purity. A defining
    ideal outside m, one with a generator that has a nonzero constant
    term, raises ValueError."""
    ring = pair.ring
    if any((0,) * ring.nvars in f.terms for f in pair.defining.generators):
        raise ValueError(
            f"the defining ideal must lie in m = ({', '.join(ring.variables)}) "
            "because the criteria are local at the origin"
        )
    p = ring.p
    per_e: dict[int, bool] = {}
    tested: list[int] = []
    factors = None
    witness_e = None
    for e in e_values:
        if e < 1:
            raise ValueError(f"criterion exponents start at e=1, got {e}")
        q = p**e
        found = _escape_witness(pair, _exponent(criterion, pair.t, q), q)
        tested.append(e)
        per_e[e] = found is not None
        if found is not None and factors is None:
            factors, witness_e = found, e
            if criterion != CLASSIC:
                break
    witness = None if factors is None else factors[0] * factors[1]
    if criterion == CLASSIC:
        outcome = FAILED_AT_ALL if not any(per_e.values()) else INCONCLUSIVE
        note = (
            "per-exponent diagnostic only: the classic condition quantifies "
            "over all e >> 0, so no finite pattern proves or disproves it"
        )
    elif witness is not None:
        outcome = PROVEN_PURE
        note = "proven at the origin; a single splitting exponent suffices"
        if criterion == STRONG:
            note += (
                "; strong-exponent variant ceil(t*q) of the sharp splitting "
                "criterion, proving strong F-purity"
            )
    else:
        outcome = INCONCLUSIVE
        note = (
            "containment held at every tested e; the criterion quantifies "
            "over infinitely many q, so failure at finitely many exponents "
            "disproves nothing"
        )
    witness_q = p**witness_e if witness_e else None
    return PurityVerdict(
        criterion, outcome, tuple(tested), per_e, witness_e, witness_q, witness, factors, note
    )


def sharp_fedder(pair: PairSpec, e_max: int) -> PurityVerdict:
    """Sharp F-purity via the ceil(t(q-1)) escape condition for e <= e_max.

    An escape at any single e is a proof; containment throughout is
    inconclusive by design.
    """
    return _run_criterion(pair, SHARP, exponent_range(e_max))


def strong_fedder(pair: PairSpec, e_max: int) -> PurityVerdict:
    """Strong F-purity via the ceil(t*q) exponent; one escape proves it."""
    return _run_criterion(pair, STRONG, exponent_range(e_max))


def classic_fpure(pair: PairSpec, e_max: int) -> PurityVerdict:
    """Classic F-purity condition with floor(t(q-1)) at each e <= e_max.

    Purely diagnostic: the result reports where the condition held and
    where it failed, and proves nothing globally.
    """
    return _run_criterion(pair, CLASSIC, exponent_range(e_max))


def verify_witness(pair: PairSpec, verdict: PurityVerdict) -> bool:
    """Recheck a proven verdict's witness from scratch, by its factors.

    True iff the stored factors (u, v) multiply to the stored witness, u
    lies in a'^N with N recomputed from the criterion flavor, v * f lies in
    I^[q] for every generator f of I (which is what v in I^[q] : I means),
    and the witness escapes m^[q]. Each test is one membership; I^[q] is
    presented by the Frobenius image of I's reduced basis, which is again a
    reduced basis. No colon is computed, so a fault in ``fedder_colon``,
    its degree bound or the box shows up as a failed recheck. A proven
    verdict without factors raises ValueError.
    """
    if not verdict.proven or verdict.witness_poly is None:
        raise ValueError("only proven verdicts carry a witness")
    if verdict.witness_factors is None:
        raise ValueError("a proven verdict must carry its witness factors")
    u, v = verdict.witness_factors
    q = verdict.witness_q
    N = _exponent(verdict.criterion, pair.t, q)
    if u * v != verdict.witness_poly:
        return False
    if not membership(u, ideal_power(pair.a_preimage, N)):
        return False
    Iq = bracket_power(Ideal(pair.ring, pair.defining.groebner()), q)
    if not all(membership(v * f, Iq) for f in pair.defining.generators):
        return False
    return not membership(verdict.witness_poly, bracket_power(maximal_ideal(pair.ring), q))
