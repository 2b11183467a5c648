"""Acceptance suite: one test per criterion, each timed against its budget
and printing a PASS/FAIL line (run with -s to see the lines live).

Every expected value here is either immediate arithmetic or frozen from an
independent derivation (closed-form exponent formulas, direct expansions,
the floor(a/q) monomial root rule), never read back from the code under
test.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

from fpurity import (
    Ideal,
    PairSpec,
    all_members,
    bracket_power,
    classic_fpure,
    fedder_colon,
    fpt_estimate,
    ideal_contains,
    ideal_power,
    maximal_ideal,
    membership,
    nu_table,
    parse_poly,
    parse_ring,
    poly_to_str,
    root_power,
    sharp_fedder,
    strong_fedder,
    test_ideal as compute_test_ideal,
    tight_closure_witness_check,
)
from fpurity.ceilarith import ceil_mul
from fpurity.ideals import colon
from fpurity.parser import parse_poly_list
from fpurity.poly import poly_pow

from battery import battery_pairs
from test_ceilarith import assert_inequalities


class criterion:
    """Context manager: enforces the runtime budget and prints the verdict."""

    def __init__(self, number: int, budget_s: float, label: str):
        self.number = number
        self.budget = budget_s
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(
            f"{status} criterion {self.number:2d} ({elapsed:6.2f}s / {self.budget:.0f}s budget): "
            f"{self.label}",
            file=sys.__stdout__,
            flush=True,
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget ({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_lemma_audit():
    with criterion(1, 30, "inequality audit, zero violations over all four primes"):
        for p in (2, 3, 5, 7):
            counts = assert_inequalities(p, 5, 5, n_max=4)
            assert all(counts[k] > 0 for k in "abcd")


def test_criterion_2_fedder_classic_quadric_cone():
    with criterion(2, 1, "F_3[x,y,z]/(x^2-yz) proven F-pure at e=1"):
        ring = parse_ring("p=3; vars=x,y,z")
        f = parse_poly("x^2 - y*z", ring)
        defining = Ideal(ring, [f])
        pair = PairSpec(ring, defining, Ideal.unit(ring), Fraction(1))
        verdict = sharp_fedder(pair, 1)
        assert verdict.proven and verdict.witness_e == 1
        # oracle: (x^2 - yz)^2 = x^4 + x^2yz + y^2z^2 mod 3, whose middle
        # term has all exponents below 3
        square = poly_pow(f, 2)
        assert square.terms[(2, 1, 1)] == 1
        assert verdict.witness_poly == square
        assert not membership(square, bracket_power(maximal_ideal(ring), 3))
        # the colon ideal route really produced (f^2)
        assert membership(square, colon(bracket_power(defining, 3), defining))
        assert classic_fpure(pair, 1).per_e[1] is True


def test_criterion_3_sharp_positive_negative_pair():
    with criterion(3, 1, "(xy)^1 proven at e=1; (xy)^(3/2) inconclusive through e=4"):
        ring = parse_ring("p=3; vars=x,y")
        a = Ideal(ring, [parse_poly("x*y", ring)])
        proven = sharp_fedder(PairSpec(ring, Ideal.zero(ring), a, Fraction(1)), 1)
        assert proven.proven and proven.witness_e == 1
        assert poly_to_str(proven.witness_poly) == "x^2*y^2"
        hopeless = sharp_fedder(PairSpec(ring, Ideal.zero(ring), a, Fraction(3, 2)), 4)
        assert hopeless.outcome == "inconclusive"
        assert hopeless.e_tested == (1, 2, 3, 4)
        assert not any(hopeless.per_e.values())
        # oracle for the monomial reason: ceil(1.5(q-1)) >= q for q >= 3,
        # and (xy)^s lies in (x^q, y^q) exactly when s >= q
        for e in range(1, 5):
            q = 3**e
            assert -((-3 * (q - 1)) // 2) >= q
        assert "infinitely many q" in hopeless.note


def test_criterion_4_fpt_pipeline():
    with criterion(4, 5, "fpt(x^2)=1/2 exact via integrality pattern; fpt(xy)=1"):
        ring1 = parse_ring("p=3; vars=x")
        a_sq = Ideal(ring1, [parse_poly("x^2", ring1)])
        records = nu_table(a_sq, 3)
        assert [r.nu for r in records] == [1, 4, 13]
        for ra in records:
            for rb in records:
                d = rb.e - ra.e
                if d > 0:
                    assert 3**d * ra.nu <= rb.nu <= 3**d * (ra.nu + 1)
        est = fpt_estimate(a_sq, 3)
        assert est.lo <= Fraction(1, 2) <= est.hi
        cert = est.certificate
        assert cert.kind == "mustata-converse" and cert.exact
        assert cert.t_star == Fraction(1, 2) and cert.e_star == 1

        ring2 = parse_ring("p=3; vars=x,y")
        a_xy = Ideal(ring2, [parse_poly("x*y", ring2)])
        est2 = fpt_estimate(a_xy, 3)
        assert est2.certificate.t_star == Fraction(1)
        assert est2.certificate.kind == "sharp-fedder" and est2.certificate.exact


def test_criterion_5_test_ideal_chains():
    with criterion(5, 5, "tau((xy)^1)=(xy), tau((x^2)^(1/2))=(x), tau((xy)^(1/2))=(1)"):
        ring = parse_ring("p=3; vars=x,y")
        xy = Ideal(ring, [parse_poly("x*y", ring)])
        xsq = Ideal(ring, [parse_poly("x^2", ring)])
        cases = [
            (xy, Fraction(1), {(1, 1)}),
            (xsq, Fraction(1, 2), {(1, 0)}),
            (xy, Fraction(1, 2), {(0, 0)}),
        ]
        for a, t, expected_exponents in cases:
            result = compute_test_ideal(a, t)
            assert set(result.tau.monomial_exponents()) == expected_exponents
            entries = [K for _, K in result.chain]
            for prev, cur in zip(entries, entries[1:]):
                assert ideal_contains(cur, prev)
            # oracle: the monomial root rule (x^a y^b)^(1/q) = x^(a//q) y^(b//q)
            for e, K in result.chain:
                q = 3**e
                N = -((-t.numerator * q) // t.denominator)
                direct = [tuple(v * N // q for v in g) for g in a.monomial_exponents()]
                if len(a.generators) == 1:
                    assert set(K.monomial_exponents()) == set(direct)


def test_criterion_6_radical_corollary_battery():
    with criterion(6, 30, "computed tau is radical across the proven battery"):
        count = 0
        saw_nonmonomial = False
        for pair in battery_pairs():
            assert sharp_fedder(pair, 4).proven
            ring = pair.ring
            tau = compute_test_ideal(pair.a_preimage, pair.t).tau
            if tau.is_monomial or tau.is_zero() or tau.has_constant_generator():
                # exact: a monomial ideal is radical iff it contains the
                # support of each of its generators
                supports = [ring.monomial(tuple(min(e, 1) for e in v)) for v in tau.monomial_exponents()]
                assert ideal_contains(tau, Ideal(ring, supports))
            else:
                # evidence: no probe g has g^k in tau while g is not
                saw_nonmonomial = True
                probes = [ring.var(v) for v in ring.variables]
                probes += list(tau.generators)
                probes.append(ring.var(ring.variables[0]) + ring.one())
                for g in probes:
                    inside = membership(g, tau)
                    for k in range(2, 5):
                        assert not membership(poly_pow(g, k), tau) or inside, (g, k)
            count += 1
        assert count >= 10
        assert saw_nonmonomial


def test_criterion_7_vassilev_suite():
    with criterion(7, 30, "quotient containments at q in {p, p^2}; S/tau F-pure"):
        for pair in battery_pairs():
            ring, I = pair.ring, pair.defining
            tau = compute_test_ideal(pair.a_preimage, pair.t).tau
            assert ideal_contains(tau, I)
            # Vassilev: a'^ceil(t(q-1)) (I^[q] : I) lies in (tau^[q] : tau)
            for e in (1, 2):
                q = ring.p**e
                lhs = ideal_power(pair.a_preimage, ceil_mul(pair.t, q - 1)).times(fedder_colon(I, q))
                assert ideal_contains(fedder_colon(tau, q), lhs), (pair, e)
            # hence S/tau is F-pure, proven by the trivial pair on it
            if not tau.has_constant_generator():
                assert sharp_fedder(PairSpec(ring, tau, Ideal.unit(ring), Fraction(1)), 4).proven


def test_criterion_8_sharp_multiplier_consistency():
    with criterion(8, 60, "every test-ideal generator passes multiplier checks, e<=4"):
        for pair in battery_pairs():
            ring = pair.ring
            tau = compute_test_ideal(pair.a_preimage, pair.t).tau
            instances = [(Ideal(ring, [ring.var(v)]), ring.var(v)) for v in ring.variables]
            instances += [(pair.a_preimage, g) for g in pair.a_preimage.generators]
            # c * a^ceil(t(q-1)) * z^q inside I^[q] for each c in tau, z in I
            # and e = 0..4
            for c in tau.generators:
                for I, z in instances:
                    assert all_members([z], I)
                    held, trace = tight_closure_witness_check(z, I, pair, c, 4)
                    assert held and len(trace) == 5, (pair, c, I, z, trace)


def test_criterion_9_threshold_consistency():
    with criterion(9, 30, "strong purity proven below every proven t"):
        for pair in battery_pairs():
            ring, a, t = pair.ring, pair.a_preimage, pair.t
            sharp = sharp_fedder(pair, 4)
            assert sharp.proven
            e0 = sharp.witness_e
            for eps in (t / 4, t / 2):
                # sharp at t forces strong at t - eps, proven by the first
                # multiple of e0 with eps * p^e > t
                e_need = 1
                while eps * ring.p**e_need <= t:
                    e_need += 1
                e_run = e0 * -(-e_need // e0)
                assert strong_fedder(PairSpec(ring, pair.defining, a, t - eps), e_run).proven, (pair, eps)


def test_criterion_10_engine_cross_checks():
    with criterion(10, 60, "root/bracket identity, colon products, parser round-trips"):
        rng = random.Random(2024)
        ring = parse_ring("p=3; vars=x,y")

        def random_ideal():
            gens = []
            for _ in range(rng.randrange(1, 3)):
                terms = {
                    (rng.randrange(3), rng.randrange(3)): rng.randrange(1, 3)
                    for _ in range(rng.randrange(1, 3))
                }
                gens.append(ring.poly(terms))
            return Ideal(ring, gens)

        checked = 0
        while checked < 200:
            I = random_ideal()
            if I.is_zero():
                continue
            q = rng.choice((3, 9))
            back = root_power(bracket_power(I, q), q)
            assert ideal_contains(back, I) and ideal_contains(I, back)
            checked += 1

        def random_monomial_ideal():
            return Ideal(
                ring,
                [
                    ring.monomial((rng.randrange(5), rng.randrange(5)))
                    for _ in range(rng.randrange(1, 4))
                ],
            )

        for _ in range(200):
            J, I = random_monomial_ideal(), random_monomial_ideal()
            assert ideal_contains(J, colon(J, I).times(I))

        for _ in range(1000):
            terms = {
                (rng.randrange(8), rng.randrange(8)): rng.randrange(1, 3)
                for _ in range(rng.randrange(0, 5))
            }
            f = ring.poly(terms)
            assert parse_poly_list(poly_to_str(f), ring) == [f]
