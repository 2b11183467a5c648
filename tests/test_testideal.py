import json
import random
from fractions import Fraction

import pytest

from fpurity import (
    Ideal,
    PairSpec,
    ResourceCapExceeded,
    fedder_colon,
    ideal_contains,
    ideal_equals,
    ideal_power,
    membership,
    parse_poly,
    poly_pow,
    sharp_fedder,
)
from fpurity.ceilarith import ceil_mul
from fpurity.cli import EXIT_OK, run

from fpurity import test_ideal as compute_test_ideal

from battery import battery_pairs
from conftest import p


def ideal(texts, ring):
    return Ideal(ring, [parse_poly(t, ring) for t in texts])


# --- the stabilizing chain ------------------------------------------------------


def test_monomial_pair_full_weight(r3xy):
    result = compute_test_ideal(ideal(["x*y"], r3xy), Fraction(1))
    assert ideal_equals(result.tau, ideal(["x*y"], r3xy))
    assert result.stabilized_at == 1
    assert result.chain[0][1].is_monomial


def test_square_at_half(r3xy):
    result = compute_test_ideal(ideal(["x^2"], r3xy), Fraction(1, 2))
    assert ideal_equals(result.tau, ideal(["x"], r3xy))


def test_monomial_pair_half_weight_is_unit(r3xy):
    result = compute_test_ideal(ideal(["x*y"], r3xy), Fraction(1, 2))
    assert result.tau.has_constant_generator()


def test_chain_is_ascending(r3xy):
    result = compute_test_ideal(ideal(["x^2*y"], r3xy), Fraction(1, 2))
    entries = [K for _, K in result.chain]
    for prev, cur in zip(entries, entries[1:]):
        assert ideal_contains(cur, prev)
    assert ideal_equals(result.chain[-1][1], result.tau)
    assert ideal_equals(result.chain[-2][1], result.tau)


def test_non_monomial_pair(r3xy):
    f = p("x^2 + y^2", r3xy)
    result = compute_test_ideal(Ideal(r3xy, [f]), Fraction(1))
    assert ideal_equals(result.tau, Ideal(r3xy, [f]))


def test_monotone_in_t(r3xy):
    a = ideal(["x^2*y"], r3xy)
    taus = [compute_test_ideal(a, t).tau for t in (Fraction(1, 3), Fraction(1, 2), Fraction(1))]
    for big_t_tau, small_t_tau in zip(taus[1:], taus):
        assert ideal_contains(small_t_tau, big_t_tau)


def test_no_stabilization_within_cap_is_loud(r3xy):
    with pytest.raises(ResourceCapExceeded, match="last two chain entries"):
        compute_test_ideal(ideal(["x*y"], r3xy), Fraction(1), e_cap=2)


def test_rejects_zero_ideal(r3xy):
    with pytest.raises(ValueError):
        compute_test_ideal(Ideal.zero(r3xy), Fraction(1))


def _testideal_json(ring, a, t):
    code, text = run(["testideal", "--ring", ring, "--a", a, "--t", t, "--json"])
    assert code == EXIT_OK, text
    return json.loads(text)


def test_a_unit_entry_without_a_constant_generator_prints_as_one():
    # (y + 1, y) = (1) is not graded, so the root pieces of its powers need
    # not include a constant (K_1 has y^3 + 1 and y^3 among eight)
    report = _testideal_json("p=3; vars=x,y", "y + 1, y", "7/2")
    assert report["tau"] == ["1"]
    assert [entry["ideal"] for entry in report["chain"]] == [["1"]] * 3


def test_a_chain_that_reaches_one_forms_no_capped_power():
    # K_1 = (1), so K_2 and K_3 need no power; K_3's a^438 has 96,580
    # products of three generators, past the product cap (exit 2)
    report = _testideal_json("p=5; vars=x,y", "x^3, x^2*y + 1, x^3*y + 1", "7/2")
    assert (report["tau"], report["stabilized_at"]) == (["1"], 1)
    assert [entry["ideal"] for entry in report["chain"]] == [["1"]] * 3


# --- radicality ---------------------------------------------------------------


def supports(I):
    """The supports of I's monomial generators: they generate its radical."""
    return Ideal(I.ring, [I.ring.monomial(tuple(min(e, 1) for e in v)) for v in I.monomial_exponents()])


@pytest.mark.parametrize(
    "texts,expected",
    [(["x*y"], True), (["x^2", "y"], False), (["x", "y*z"], True)],
)
def test_is_radical_monomial(texts, expected, r3xyz):
    I = ideal(texts, r3xyz)
    assert ideal_contains(I, supports(I)) is expected


def test_radical_probe_finds_violation(r3x):
    x = p("x", r3x)
    assert membership(poly_pow(x, 2), ideal(["x^2"], r3x))
    assert not membership(x, ideal(["x^2"], r3x))


def test_radical_probe_clean(r3xy):
    I = ideal(["x*y"], r3xy)
    for g in (p(s, r3xy) for s in ("x", "y", "x + y")):
        for k in (2, 3):
            assert not membership(poly_pow(g, k), I) or membership(g, I)


def test_radical_probe_unit_is_vacuous(r3xy):
    assert membership(p("x", r3xy), Ideal.unit(r3xy))


# --- quotient containment -------------------------------------------------------


def vassilev_holds(I, a, t, tau, q):
    """a^ceil(t(q-1)) (I^[q] : I) inside (tau^[q] : tau)."""
    return ideal_contains(fedder_colon(tau, q), ideal_power(a, ceil_mul(t, q - 1)).times(fedder_colon(I, q)))


def test_vassilev_monomial(r3xy):
    assert vassilev_holds(
        Ideal.zero(r3xy), ideal(["x*y"], r3xy), Fraction(1), ideal(["x*y"], r3xy), 3
    )


def test_vassilev_trivial(r3xy):
    assert vassilev_holds(
        Ideal.zero(r3xy), Ideal.unit(r3xy), Fraction(1), Ideal.unit(r3xy), 9
    )


def test_vassilev_square_half(r3x):
    assert vassilev_holds(
        Ideal.zero(r3x), ideal(["x^2"], r3x), Fraction(1, 2), ideal(["x"], r3x), 3
    )


# --- quotient F-purity ------------------------------------------------------------


def quotient_verdict(tau):
    """The sharp criterion on the trivial pair (S/tau, (1)^1)."""
    return sharp_fedder(PairSpec(tau.ring, tau, Ideal.unit(tau.ring), Fraction(1)), 4)


def test_quotient_fpure_monomial(r3xy):
    verdict = quotient_verdict(ideal(["x*y"], r3xy))
    assert verdict.proven and verdict.witness_e == 1


def test_quotient_fpure_principal_variable(r3xy):
    assert quotient_verdict(ideal(["x"], r3xy)).proven


def test_quotient_fpure_zero_is_ambient(r3xy):
    assert quotient_verdict(Ideal.zero(r3xy)).proven


# --- corollary-level cross-checks over the battery ---------------------------------


def test_battery_taus_are_radical():
    for pr in battery_pairs():
        assert sharp_fedder(pr, 4).proven
        tau = compute_test_ideal(pr.a_preimage, pr.t).tau
        if tau.is_monomial or tau.is_zero() or tau.has_constant_generator():
            assert ideal_contains(tau, supports(tau))
        else:
            probes = [pr.ring.var(v) for v in pr.ring.variables]
            probes += list(tau.generators)
            probes.append(pr.ring.var(pr.ring.variables[0]) + pr.ring.one())
            for g in probes:
                for k in (2, 3):
                    assert not membership(poly_pow(g, k), tau) or membership(g, tau)


def test_battery_quotients_are_fpure():
    for pr in battery_pairs():
        tau = compute_test_ideal(pr.a_preimage, pr.t).tau
        if tau.has_constant_generator():
            continue
        assert quotient_verdict(tau).proven


def test_battery_vassilev_containments():
    for pr in battery_pairs():
        tau = compute_test_ideal(pr.a_preimage, pr.t).tau
        for e in (1, 2):
            assert vassilev_holds(pr.defining, pr.a_preimage, pr.t, tau, pr.ring.p**e)


# --- closed form for monomial ideals in two variables -----------------------------


def _newton_tau(a, t):
    """tau(a^t) for a monomial ideal a of F_p[x, y], in closed form.

    x^v lies in tau(a^t) iff v + (1, 1) lies in the interior of t * Newt(a),
    Newt(a) = conv(exponents of a) + R^2_{>=0} (Howald 2001 for multiplier
    ideals; Hara-Yoshida 2003, Thm 4.8, for test ideals in every
    characteristic p). Newt(a) is cut out by X >= its least x, Y >= its least
    y and one half-plane per edge of the lower convex hull of the minimal
    generators; all arithmetic is in Fraction.
    """
    ring = a.ring
    points = sorted(a.monomial_exponents())  # x ascending, so y descending
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (pt[1] - oy) - (ay - oy) * (pt[0] - ox) > 0:
                break
            hull.pop()
        hull.append(pt)
    edges = list(zip(hull, hull[1:]))

    def interior(X, Y):
        if X <= t * hull[0][0] or Y <= t * hull[-1][1]:
            return False
        return all(
            (y1 - y2) * (X - t * x1) + (x2 - x1) * (Y - t * y1) > 0
            for (x1, y1), (x2, y2) in edges
        )

    # each coordinate of a minimal generator of tau is at most t times the
    # largest exponent of a, so this box holds all of them
    bound = int(t * max(max(pt) for pt in points)) + 1
    members = [
        ring.monomial((i, j))
        for i in range(bound + 1)
        for j in range(bound + 1)
        if interior(Fraction(i + 1), Fraction(j + 1))
    ]
    return Ideal(ring, members)


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_monomial_test_ideals_match_the_newton_polygon(prime):
    from fpurity import parse_ring

    ring = parse_ring(f"p={prime}; vars=x,y")
    rng = random.Random(59 + prime)
    ts = [Fraction(n, d) for n, d in ((1, 2), (1, 3), (2, 3), (3, 4), (1, 1), (3, 2))]
    for _ in range(10):
        a = Ideal(ring, [])
        while len(a.generators) < 2:
            gens = [ring.monomial((rng.randrange(4), rng.randrange(4))) for _ in range(rng.randrange(2, 5))]
            a = Ideal(ring, gens)
        t = rng.choice(ts)
        result = compute_test_ideal(a, t)
        assert ideal_equals(result.tau, _newton_tau(a, t)), (a, t, result.tau)


def test_newton_tau_known_values(r3xy):
    # tau((x^2, y^3)^(5/6)) = (1) exactly below the log canonical threshold 5/6,
    # and (x, y) at it; tau((x*y)^1) = (x*y)
    a = ideal(["x^2", "y^3"], r3xy)
    assert ideal_equals(_newton_tau(a, Fraction(4, 5)), ideal(["1"], r3xy))
    assert ideal_equals(_newton_tau(a, Fraction(5, 6)), ideal(["x", "y"], r3xy))
    assert ideal_equals(_newton_tau(ideal(["x*y"], r3xy), Fraction(1)), ideal(["x*y"], r3xy))
