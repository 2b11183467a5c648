import random
from fractions import Fraction

import pytest

from fpurity import (
    Ideal,
    PairSpec,
    bracket_power,
    ideal_power,
    membership,
    parse_poly,
    parse_ring,
    sharp_fedder,
    sharp_frobenius_membership,
    tight_closure_witness_check,
)
from fpurity.ceilarith import ceil_mul
from fpurity.poly import frobenius_image

from conftest import p


def pair(ring, a_texts, t, defining_texts=()):
    defining = Ideal(ring, [parse_poly(s, ring) for s in defining_texts])
    a = Ideal(ring, [parse_poly(s, ring) for s in a_texts]).plus(defining)
    return PairSpec(ring, defining, a, Fraction(t))


def ideal(texts, ring):
    return Ideal(ring, [parse_poly(t, ring) for t in texts])


# --- sharp Frobenius membership ------------------------------------------------


def test_trivially_in(r3x):
    pr = pair(r3x, ["x"], Fraction(1, 2))
    v = sharp_frobenius_membership(p("x", r3x), ideal(["x"], r3x), pr, 4)
    assert v.outcome == "trivially-in"


def test_member_of_target_short_circuits(r3x):
    # the containment at e=1 also holds here, but z in I wins
    pr = pair(r3x, ["x"], Fraction(1, 2))
    v = sharp_frobenius_membership(p("x^3", r3x), ideal(["x^3"], r3x), pr, 4)
    assert v.outcome == "trivially-in"


def test_certified_membership_outside_ideal(r3x):
    # z = x against (x^2) under ((x), 3/2): t(p-1) = 3 is integral and
    # x^ceil(3(q-1)/2) * x^q lies in (x^2q) for every q >= 3
    pr = pair(r3x, ["x"], Fraction(3, 2))
    v = sharp_frobenius_membership(p("x", r3x), ideal(["x^2"], r3x), pr, 4)
    assert v.outcome == "certified-in"
    assert v.certified_e == 1
    assert v.certificate == "principal-integral-exponent"
    assert v.failed_e == ()


def test_failed_at_every_tested_exponent(r3x):
    pr = pair(r3x, ["x"], Fraction(1, 2))
    v = sharp_frobenius_membership(p("x", r3x), ideal(["x^2"], r3x), pr, 4)
    assert v.outcome == "failed-at"
    assert v.failed_e == (1, 2, 3, 4)
    assert "diagnostic" in v.note


def test_bounded_in_without_certificate(r3x):
    # denominator divisible by p blocks the integrality certificate, but
    # the containment itself holds at every tested e
    pr = pair(r3x, ["x"], Fraction(4, 3))
    v = sharp_frobenius_membership(p("x", r3x), ideal(["x^2"], r3x), pr, 4)
    assert v.outcome == "bounded-in"


def test_quotient_pair_membership(r3xyz):
    # in R = S/(x^2 - yz): z probe y lands trivially once the defining
    # ideal is adjoined
    pr = pair(r3xyz, ["1"], 1, defining_texts=["x^2 - y*z"])
    v = sharp_frobenius_membership(
        p("x^2 - y*z", r3xyz), ideal(["y"], r3xyz), pr, 2
    )
    assert v.outcome == "trivially-in"


def test_pure_pair_closure_is_trivial_randomized(r3xy):
    # for a proven sharply F-pure pair over the ambient ring, membership
    # probes outside I must fail, never land, within the tested range
    rng = random.Random(31)
    pr = pair(r3xy, ["x*y"], 1)
    assert sharp_fedder(pr, 2).proven
    for _ in range(25):
        i_exp = (rng.randrange(1, 4), rng.randrange(1, 4))
        z_exp = tuple(max(0, e - 1 - rng.randrange(2)) for e in i_exp)
        target = Ideal(r3xy, [r3xy.monomial(i_exp)])
        z = r3xy.monomial(z_exp)
        v = sharp_frobenius_membership(z, target, pr, 4)
        assert v.outcome in ("trivially-in", "failed-at")


def test_failed_at_reports_the_tested_range(r3x):
    pr = pair(r3x, ["x"], Fraction(1, 2))
    v = sharp_frobenius_membership(p("x", r3x), ideal(["x^2"], r3x), pr, 6)
    assert v.e_tested == (1, 2, 3, 4, 5, 6)
    assert v.outcome == "failed-at"


def test_chosen_exponents_and_empty_ranges(r3x):
    # e_max chooses the exponents 1..e_max; none at all is refused, even
    # when z lies in I
    pr = pair(r3x, ["x"], Fraction(1, 2))
    assert sharp_frobenius_membership(p("x", r3x), ideal(["x^2"], r3x), pr, 2).e_tested == (1, 2)
    for z in ("x", "x^2"):
        with pytest.raises(ValueError, match="e_max must be at least 1, got 0"):
            sharp_frobenius_membership(p(z, r3x), ideal(["x^2"], r3x), pr, 0)


def test_membership_monotone_in_t(r3x):
    # once the per-exponent containment holds at t it holds at any larger t
    target = ideal(["x^2"], r3x)
    z = p("x", r3x)
    held_small = sharp_frobenius_membership(
        z, target, pair(r3x, ["x"], Fraction(3, 2)), 4
    ).held_e
    held_large = sharp_frobenius_membership(
        z, target, pair(r3x, ["x"], Fraction(5, 2)), 4
    ).held_e
    assert set(held_small) <= set(held_large)


# --- tight-closure witness checks -----------------------------------------------


def test_witness_trivial_member(r3xy):
    pr = pair(r3xy, ["x*y"], 1)
    ok, trace = tight_closure_witness_check(
        p("y", r3xy), ideal(["y"], r3xy), pr, r3xy.one(), 4
    )
    assert ok and all(trace.values())


def test_witness_regular_ring_failure(r3x):
    # x is not in the tight closure of (x^2) in a regular ring, and the
    # trace pinpoints the failing exponents
    pr = pair(r3x, ["1"], 1)
    ok, trace = tight_closure_witness_check(
        p("x", r3x), ideal(["x^2"], r3x), pr, p("x", r3x), 4
    )
    assert not ok
    assert trace[0] is True
    assert all(trace[e] is False for e in range(1, 5))


def test_witness_rejects_zero_multiplier(r3x):
    pr = pair(r3x, ["x"], 1)
    with pytest.raises(ValueError):
        tight_closure_witness_check(p("x", r3x), ideal(["x"], r3x), pr, r3x.zero(), 2)


def test_witness_extra_factor_preserves_positive(r3xy):
    pr = pair(r3xy, ["x*y"], 1)
    z, target = p("x", r3xy), ideal(["x"], r3xy)
    ok_c, _ = tight_closure_witness_check(z, target, pr, p("x*y", r3xy), 4)
    ok_cc, _ = tight_closure_witness_check(z, target, pr, p("x^2*y", r3xy), 4)
    assert ok_c and ok_cc


# --- sharp multiplier checks ------------------------------------------------------


def test_multiplier_from_test_ideal_generator(r3xy):
    # c = xy generates tau((xy)^1); the instance is z = x in I = (x)
    pr = pair(r3xy, ["x*y"], 1)
    ok, trace = tight_closure_witness_check(p("x", r3xy), ideal(["x"], r3xy), pr, p("x*y", r3xy), 4)
    assert ok and len(trace) == 5


def test_multiplier_unit_when_tau_is_unit(r3xy):
    pr = pair(r3xy, ["x*y"], Fraction(1, 2))
    ok, _ = tight_closure_witness_check(p("x", r3xy), ideal(["x"], r3xy), pr, r3xy.one(), 3)
    assert ok


# --- power-into-closure witness checks ---------------------------------------------


def power_into_closure(z, I, pr, c, q, d_max):
    """The traces of c * a^ceil(t(p^d - 1)) * g^(p^d) inside I^[q p^d],
    d <= d_max, for each generator g of a^ceil(t(q-1)) * z^q."""
    outer = ideal_power(pr.a_preimage, ceil_mul(pr.t, q - 1))
    z_q, target = frobenius_image(z, q), bracket_power(I, q)
    return [tight_closure_witness_check(u * z_q, target, pr, c, d_max) for u in outer.generators]


def test_power_into_closure_trivial(r3xy):
    pr = pair(r3xy, ["x*y"], 1)
    checks = power_into_closure(p("x", r3xy), ideal(["x"], r3xy), pr, r3xy.one(), 3, 2)
    assert all(ok for ok, _ in checks)


def test_power_into_closure_principal(r3x):
    pr = pair(r3x, ["x"], Fraction(1, 2))
    checks = power_into_closure(p("x^3", r3x), ideal(["x^3"], r3x), pr, r3x.one(), 3, 2)
    assert [(ok, len(trace)) for ok, trace in checks] == [(True, 3)]


def test_power_into_closure_whole_ring_pair(r3xy):
    pr = pair(r3xy, ["1"], 1)
    checks = power_into_closure(p("y", r3xy), ideal(["y"], r3xy), pr, r3xy.one(), 9, 1)
    assert all(ok for ok, _ in checks)


# --- the trace: a''^N * c * z^q inside I^[q] + I_def -------------------------------


def _full_trace(z, I, pr, c, e_max):
    """The witness trace with every generator of a' powered, each
    containment decided against the target's full basis."""
    trace = {}
    for e in range(e_max + 1):
        q = pr.ring.p**e
        g = c * frobenius_image(z, q)
        target = bracket_power(I, q).plus(pr.defining)
        power = ideal_power(pr.a_preimage, ceil_mul(pr.t, q - 1))
        trace[e] = all(membership(u * g, target) for u in power.generators)
    return trace


def _random_form(rng, ring, d):
    """A homogeneous degree-d form with every pure power present."""
    n = ring.nvars
    terms = {
        tuple(d if j == i else 0 for j in range(n)): rng.randrange(1, ring.p) for i in range(n)
    }
    for _ in range(2):
        cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
        terms[tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))] = rng.randrange(1, ring.p)
    return ring.poly(terms)


T_VALUES = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2))


def test_power_times_contained_matches_full_power():
    # hypersurface probes over S/(f): a' = (x, f), (x, y, f), (f, x*f) (every
    # generator inside I_def) and the same a' over S itself (zero I_def)
    rng = random.Random(53)
    outcomes = set()
    for ring_text in ("p=2; vars=x,y", "p=3; vars=x,y", "p=2; vars=x,y,z"):
        ring = parse_ring(ring_text)
        x, y = ring.var("x"), ring.var("y")
        for _ in range(4):
            f = _random_form(rng, ring, rng.randrange(2, 4))
            for a_gens, defining in (
                ([x, f], [f]),
                ([x, y, f], [f]),
                ([f, x * f], [f]),
                ([x, y + x * x], []),
            ):
                I = Ideal(ring, [ring.monomial(tuple(rng.randrange(3) for _ in ring.variables))
                                 for _ in range(2)])
                z = ring.monomial(tuple(rng.randrange(2) for _ in ring.variables))
                for t in T_VALUES:
                    pr = PairSpec(ring, Ideal(ring, defining), Ideal(ring, a_gens), t)
                    _, got = tight_closure_witness_check(z, I, pr, x, 2)
                    assert got == _full_trace(z, I, pr, x, 2), (pr, I, z)
                    outcomes |= set(got.values())
    assert outcomes == {True, False}


def test_power_times_contained_when_a_lies_in_the_defining_ideal(r3xy):
    f = p("x^2 + y^3", r3xy)
    pr = PairSpec(r3xy, Ideal(r3xy, [f]), Ideal(r3xy, [f, p("x", r3xy) * f]), Fraction(1, 2))
    assert pr.outside_defining == ()
    z, I = p("x", r3xy), ideal(["y^3"], r3xy)
    # a'^0 is the unit ideal, and x is not in (y^3, f); for e >= 1, a'^N with
    # N >= 1 lies in I_def, inside every target
    want = {0: False, 1: True, 2: True}
    assert tight_closure_witness_check(z, I, pr, r3xy.one(), 2) == (False, want)
    assert _full_trace(z, I, pr, r3xy.one(), 2) == want
    v = sharp_frobenius_membership(z, I, pr, 2)
    assert (v.outcome, v.held_e, v.certified_e) == ("certified-in", (1, 2), 1)


def test_power_times_contained_on_weighted_and_non_graded_quotients():
    # S/(f) with f quasi-homogeneous or without any positive grading, and a
    # z with components in several degrees, so the products are not
    # homogeneous: the graded kernel and its fallback match the full power
    # tested against the full basis
    from fpurity.closure import _quotient_target
    from fpurity.ideals import positive_grading

    rng = random.Random(59)
    outcomes = {}
    for prime in (2, 3, 5):
        ring = parse_ring(f"p={prime}; vars=x,y,z")
        for f_text, graded in (
            ("x^3 + y^2 + x*y*z", True),  # weights (2, 3, 1)
            ("x^2*z + y*z^4 + x*y*z^2", True),  # weights (2, 1, 1)
            ("x^2 + y^2 + x*z + y", False),
        ):
            f = p(f_text, ring)
            for a_texts in (["x"], ["y", "z"]):
                I = Ideal(ring, [ring.monomial(tuple(rng.randrange(1, 3) if i == j else 0
                                                     for j in range(3))) for i in range(3)])
                z = ring.monomial((rng.randrange(2), 0, 1)) + ring.monomial((1, rng.randrange(3), 0))
                for t in T_VALUES:
                    pr = PairSpec(ring, Ideal(ring, [f]), ideal(a_texts, ring).plus(Ideal(ring, [f])), t)
                    assert (positive_grading(_quotient_target(I, pr, 1)) is not None) is graded
                    want = _full_trace(z, I, pr, ring.one(), 1)
                    assert tight_closure_witness_check(z, I, pr, ring.one(), 1)[1] == want
                    outcomes.setdefault(graded, set()).update(want.values())
    assert outcomes == {True: {True, False}, False: {True, False}}


@pytest.mark.parametrize("f_text", ["x^3 + y^3 + z^3", "x^3 + y^2 + x*y*z"])
def test_graded_probes_never_build_a_full_basis(f_text, r3xyz, monkeypatch):
    # once the pair is set up, every containment of a graded probe, the
    # "z in I" check included, runs against a degree-bounded basis; an
    # ungraded probe still takes the full one
    target, z = ideal(["y^2", "z^2"], r3xyz), p("y*z", r3xyz)
    graded = pair(r3xyz, ["x"], 1, defining_texts=[f_text])
    ungraded = pair(r3xyz, ["x"], 1, defining_texts=["x^2 + y^2 + x*z + y"])
    for pr in (graded, ungraded):
        assert pr.outside_defining == (p("x", r3xyz),)

    def forbidden(self):
        raise AssertionError(f"full basis of {self}")

    monkeypatch.setattr(Ideal, "groebner", forbidden)
    assert sharp_frobenius_membership(z, target, graded, 3).e_tested == (1, 2, 3)
    assert len(tight_closure_witness_check(z, target, graded, p("y", r3xyz), 2)[1]) == 3
    with pytest.raises(AssertionError, match="full basis"):
        sharp_frobenius_membership(z, target, ungraded, 1)
