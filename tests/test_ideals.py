import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fpurity import (
    ExponentOverflowError,
    Ideal,
    ResourceCapExceeded,
    bracket_power,
    colon,
    ideal_contains,
    ideal_equals,
    ideal_power,
    intersect,
    membership,
    parse_poly,
    parse_ring,
    root_power,
)
from fpurity.poly import PolyRing, SparsePolynomial, grevlex_key, mono_mul, poly_pow

from conftest import elim_key, p, tuple_pow


def ideal(texts, ring):
    return Ideal(ring, [parse_poly(t, ring) for t in texts])


def mono_divides(a, b):
    """True iff x^a divides x^b, on exponent tuples."""
    return all(u <= v for u, v in zip(a, b))


# --- bracket powers ---------------------------------------------------------


def test_bracket_principal(r3x):
    assert ideal_equals(bracket_power(ideal(["x"], r3x), 9), ideal(["x^9"], r3x))


def test_bracket_monomial(r3xy):
    assert ideal_equals(bracket_power(ideal(["x", "y"], r3xy), 3), ideal(["x^3", "y^3"], r3xy))


def test_bracket_general_char2(r2xy):
    got = bracket_power(ideal(["x+y", "y^2"], r2xy), 2)
    assert ideal_equals(got, ideal(["x^2+y^2", "y^4"], r2xy))
    assert got.is_monomial is False


def test_bracket_rejects_non_power(r3xy):
    with pytest.raises(ValueError):
        bracket_power(ideal(["x"], r3xy), 6)


def test_bracket_contains_powers_of_random_elements(r3xy):
    rng = random.Random(7)
    I = ideal(["x^2 + y", "x*y"], r3xy)
    Iq = bracket_power(I, 3)
    for _ in range(20):
        f = r3xy.zero()
        for g in I.generators:
            coeff = rng.randrange(3)
            mult = r3xy.poly({(rng.randrange(3), rng.randrange(3)): coeff})
            f = f + mult * g
        assert membership(poly_pow(f, 3), Iq)


# --- colon ------------------------------------------------------------------


def test_colon_principal_powers(r3x):
    assert ideal_equals(colon(ideal(["x^3"], r3x), ideal(["x"], r3x)), ideal(["x^2"], r3x))


def test_colon_monomial(r3xy):
    got = colon(ideal(["x^2*y", "y^3"], r3xy), ideal(["y"], r3xy))
    assert ideal_equals(got, ideal(["x^2", "y^2"], r3xy))


def test_colon_binomial_cancellation(r3xyz):
    f = p("x^2 - y*z", r3xyz)
    got = colon(Ideal(r3xyz, [poly_pow(f, 3)]), Ideal(r3xyz, [f]))
    assert ideal_equals(got, Ideal(r3xyz, [poly_pow(f, 2)]))


@pytest.mark.parametrize("q", [3, 9])
def test_hypersurface_colon_forms_no_elimination_ring(r3xyz, q, monkeypatch):
    # (f^q) : (f) meets (f^q) and (f) in (f^q), since f divides f^q, and
    # divides once; bounded below deg f^(q-1) = 3(q-1) it divides not at all
    from fpurity import ideals

    f = p("x^3 + y^2*z + x*y*z", r3xyz)
    J, I = bracket_power(Ideal(r3xyz, [f]), q), Ideal(r3xyz, [f])
    monkeypatch.setattr(ideals, "_eliminated", lambda *args: pytest.fail("elimination"))
    assert colon(J, I).generators == (poly_pow(f, q - 1),)
    assert colon(J, I, ((1, 1, 1), 3 * (q - 1))).generators == (poly_pow(f, q - 1),)
    monkeypatch.setattr(ideals, "_try_exact_div", lambda *args: pytest.fail("division"))
    assert colon(J, I, ((1, 1, 1), 3 * (q - 1) - 1)).is_zero()


def _count_divisions(monkeypatch):
    """Quotient-recording reductions, and the size of every meet formed by
    elimination."""
    from fpurity import ideals

    divisions, meets = [], []
    reduce, eliminate = ideals._normal_form, ideals._eliminated

    def reducing(work, table, lay, counter, quotient=None):
        if quotient is not None:
            divisions.append(len(table))
        return reduce(work, table, lay, counter, quotient)

    monkeypatch.setattr(ideals, "_normal_form", reducing)
    monkeypatch.setattr(
        ideals, "_eliminated", lambda *args: meets.append(eliminate(*args)) or meets[-1]
    )
    return divisions, meets


def test_principal_colon_divides_once(monkeypatch):
    # (f^25) : (f) meets in (f^25) because f divides it, and the quotient of
    # that one division is the result
    ring = parse_ring("p=5; vars=x,y,z")
    f = p("x^3 + y^3 + z^3 + x*y*z + x^2*y", ring)
    divisions, meets = _count_divisions(monkeypatch)
    got = colon(Ideal(ring, [poly_pow(f, 25)]), Ideal(ring, [f]))
    assert got.generators == (poly_pow(f, 24),)
    assert divisions == [1] and meets == []


@pytest.mark.parametrize("prime", [2, 3])
def test_colon_divides_each_generator_of_a_meet_once(monkeypatch, prime):
    ring = parse_ring(f"p={prime}; vars=x,y,z,w")
    I = ideal(["x*z - y^2", "x*w - y*z", "y*w - z^2"], ring)
    divisions, meets = _count_divisions(monkeypatch)
    colon(bracket_power(I, prime), I)
    assert len(meets) == 3 and divisions == [1] * sum(map(len, meets))


def test_colon_elimination_route_agrees(r3xyz):
    # two-generator J defeats the exact-division shortcut
    f = p("x^2 - y*z", r3xyz)
    J = Ideal(r3xyz, [poly_pow(f, 3), p("x^7", r3xyz) * f])
    got = colon(J, Ideal(r3xyz, [f]))
    assert ideal_equals(got, Ideal(r3xyz, [poly_pow(f, 2), p("x^7", r3xyz)]))


def test_colon_zero_and_unit(r3xy):
    J = ideal(["x"], r3xy)
    assert colon(J, Ideal.zero(r3xy)).has_constant_generator()
    assert ideal_equals(colon(J, Ideal.unit(r3xy)), J)
    assert colon(Ideal.zero(r3xy), J).is_zero()


def test_colon_times_ideal_contained(r3xy):
    rng = random.Random(11)
    for _ in range(200):
        J = _random_monomial_ideal(rng, r3xy)
        I = _random_monomial_ideal(rng, r3xy)
        if I.is_zero():
            continue
        C = colon(J, I)
        assert ideal_contains(J, C.times(I))


# --- membership and containment ---------------------------------------------


def test_membership_monomial(r3xyz):
    M = ideal(["x^3", "y^3", "z^3"], r3xyz)
    assert not membership(p("x^2*y*z", r3xyz), M)
    assert membership(p("x^5", r3xyz), ideal(["x^3"], r3xyz))


def test_membership_groebner(r3xy):
    I = ideal(["x+y", "x-y"], r3xy)
    assert membership(p("x^2 + 2*y^2", r3xy), I)
    assert not membership(p("x + 1", r3xy), I)


def test_ideal_contains(r3xy):
    assert ideal_contains(ideal(["x", "y"], r3xy), ideal(["x^2*y"], r3xy))
    assert not ideal_contains(ideal(["x^3", "y^3"], r3xy), ideal(["x^2*y^2"], r3xy))
    assert ideal_contains(ideal(["x+y"], r3xy), ideal(["(x+y)^2", "x*(x+y)"], r3xy))


# --- ideal powers ------------------------------------------------------------


def test_power_principal(r3xyz):
    f = p("x^2 - y*z", r3xyz)
    got = ideal_power(Ideal(r3xyz, [f]), 4)
    assert got.generators == (poly_pow(f, 4),)


def test_power_monomial_minimal_generators(r3xy):
    m = ideal(["x", "y"], r3xy)
    assert ideal_equals(ideal_power(m, 2), ideal(["x^2", "x*y", "y^2"], r3xy))
    assert len(ideal_power(m, 4).generators) == 5


def test_power_zero_exponent_is_unit(r3xy):
    assert ideal_power(ideal(["x"], r3xy), 0).has_constant_generator()


def test_power_general_prunes(r3xy):
    a = ideal(["x+y", "x-y"], r3xy)  # same ideal as (x, y)
    got = ideal_power(a, 2)
    assert ideal_equals(got, ideal(["x^2", "x*y", "y^2"], r3xy))


def test_power_cap(r3xy, monkeypatch):
    a = ideal(["x+y", "x-y"], r3xy)
    monkeypatch.setattr("fpurity.ideals.MAX_POWER_PRODUCTS", 10)
    with pytest.raises(ResourceCapExceeded, match="max_power_products"):
        ideal_power(a, 40)


def _power_oracle(a, N):
    """a^N the slow way: N - 1 rounds of products by a, each pruned
    pairwise on exponent tuples for monomial a; for general a, every
    degree-N generator product from tuple_pow, deduplicated in order."""
    ring = a.ring
    if a.is_monomial:
        base = a.monomial_exponents()
        cur = base
        for _ in range(N - 1):
            # a proper divisor has lower degree, so test only kept[:lower]
            kept, degree, lower = [], 0, 0
            for m in sorted({mono_mul(u, v) for u in cur for v in base}, key=grevlex_key):
                if sum(m) != degree:
                    degree, lower = sum(m), len(kept)
                if not any(mono_divides(u, m) for u in kept[:lower]):
                    kept.append(m)
            cur = kept
        return [ring.monomial(m) for m in cur]
    kept = []
    for combo in itertools.combinations_with_replacement(range(len(a.generators)), N):
        h = ring.one()
        for idx in sorted(set(combo)):
            h = h * tuple_pow(a.generators[idx], combo.count(idx))
        if h not in kept:
            kept.append(h)
    return kept


def _random_monomial_power_base(rng, ring):
    """A monomial ideal with 2 to 4 minimal generators, exponents below 4."""
    while True:
        a = Ideal(ring, [
            ring.monomial(tuple(rng.randrange(4) for _ in range(ring.nvars)))
            for _ in range(rng.randrange(2, 5))
        ])
        if len(a.generators) >= 2 and not a.has_constant_generator():
            return a


# exponents on both sides of the powers of two where the packed field widens
POWER_EXPONENTS_2VARS = [2, 3, 5, 7, 8, 15, 16, 31, 32, 45, 63, 64, 100]
POWER_EXPONENTS_3VARS = [2, 3, 4, 7, 8, 11, 15, 16]


@pytest.mark.parametrize("nvars", [2, 3])
def test_monomial_power_matches_repeated_products(nvars):
    ring = parse_ring("p=3; vars=" + ",".join("xyz"[:nvars]))
    rng = random.Random(41 + nvars)
    exponents = POWER_EXPONENTS_2VARS if nvars == 2 else POWER_EXPONENTS_3VARS
    linear = Ideal(ring, [ring.var(v) for v in ring.variables])
    for trial in range(8):
        a = linear if trial == 0 else _random_monomial_power_base(rng, ring)
        for N in exponents:
            assert ideal_power(a, N).generators == tuple(_power_oracle(a, N)), (a, N)


def test_general_power_matches_poly_pow_products():
    rng = random.Random(43)
    for ring_text in ("p=2; vars=x,y", "p=3; vars=x,y,z", "p=5; vars=x,y"):
        ring = parse_ring(ring_text)
        for _ in range(6):
            gens = []
            for _ in range(rng.randrange(2, 4)):
                terms = {
                    tuple(rng.randrange(3) for _ in range(ring.nvars)): rng.randrange(1, ring.p)
                    for _ in range(rng.randrange(1, 4))
                }
                gens.append(ring.poly(terms))
            a = Ideal(ring, gens)
            if a.is_monomial or len(a.generators) < 2 or a.has_constant_generator():
                continue
            for N in (2, 3, 4, 5, 7):
                assert ideal_power(a, N).generators == tuple(_power_oracle(a, N)), (a, N)


def test_monomial_power_exponent_cap(r3xy):
    # (x^m)^7 with 7m = 2^63 - 1 sits exactly on the cap; 2^62 doubled is past it
    m = (2**63 - 1) // 7
    at_cap = ideal_power(Ideal(r3xy, [r3xy.monomial((m, 0)), r3xy.monomial((0, 1))]), 7)
    assert at_cap.generators == tuple(
        r3xy.monomial((m * i, 7 - i)) for i in range(8)
    )
    past = Ideal(r3xy, [r3xy.monomial((2**62, 0)), r3xy.monomial((1, 1))])
    with pytest.raises(ExponentOverflowError):
        ideal_power(past, 2)


def test_power_work_is_logarithmic(monkeypatch):
    from fpurity import ideals

    from fpurity import poly

    ring = parse_ring("p=5; vars=x,y")
    a = ideal(["y", "x^2"], ring)
    # the power prunes in poly (_minimal_power), the checked constructor in ideals
    passes = {poly: 0, ideals: 0}

    def counting(module, prune):
        def wrapper(*args):
            passes[module] += 1
            return prune(*args)

        return wrapper

    # one packed pass per step of the power: 94 = 0b1011110 takes six squares
    # and four products by a; its minimal result is not pruned again
    for module in passes:
        monkeypatch.setattr(module, "minimal_packed", counting(module, module.minimal_packed))
    got = ideal_power(a, 94)
    assert passes == {poly: 10, ideals: 0}
    assert got.generators == tuple(ring.monomial((2 * i, 94 - i)) for i in range(95))

    tuple_products = 0

    def counted(*args):
        nonlocal tuple_products
        tuple_products += 1
        return poly.poly_mul(*args)

    # general and principal powers multiply packed, never on exponent tuples:
    # ideals has no poly_pow to call, and f ** k goes through poly's
    general, principal = ideal(["x + y", "x*y + 1"], ring), ideal(["x + y^2 + 1"], ring)
    assert not hasattr(ideals, "poly_pow")
    monkeypatch.setattr(poly, "poly_pow", counted)
    monkeypatch.setattr(SparsePolynomial, "__mul__", counted)
    ideal_power(general, 12)
    ideal_power(principal, 12)
    assert tuple_products == 0


# --- root powers --------------------------------------------------------------


@pytest.mark.parametrize("text,q,expected", [("x^9", 3, "x^3"), ("x^5", 3, "x"), ("x^2", 3, "1")])
def test_root_principal_examples(text, q, expected, r3x):
    assert ideal_equals(root_power(ideal([text], r3x), q), ideal([expected], r3x))


def test_root_closed_form_powers_of_x():
    for prime, qs in ((2, (2, 4, 8)), (3, (3, 9))):
        ring = parse_ring(f"p={prime}; vars=x")
        for q in qs:
            for a in range(0, 61):
                got = root_power(Ideal(ring, [ring.monomial((a,))]), q)
                expected = Ideal(ring, [ring.monomial((a // q,))])
                assert ideal_equals(got, expected)


def test_root_of_bracket_is_identity_random(r3xy):
    rng = random.Random(23)
    for _ in range(60):
        I = _random_ideal(rng, r3xy)
        if I.is_zero():
            continue
        for q in (3, 9):
            back = root_power(bracket_power(I, q), q)
            assert ideal_contains(back, I)
            assert ideal_contains(I, back)


def test_root_satisfies_defining_containment(r3xy):
    I = ideal(["x^4*y + x*y^4", "x^7"], r3xy)
    J = root_power(I, 3)
    assert ideal_contains(bracket_power(J, 3), I)


# --- groebner bases -----------------------------------------------------------


def test_groebner_linear_elimination(r3xy):
    basis = ideal(["x+y", "x-y"], r3xy).groebner()
    assert [str(g) for g in basis] == ["y", "x"]


def test_groebner_monomial_is_minimal_generators(r3xy):
    I = ideal(["x^2", "x^2*y", "y^3"], r3xy)
    assert set(I.groebner()) == {p("x^2", r3xy), p("y^3", r3xy)}


def test_groebner_zero_ideal(r3xy):
    assert Ideal.zero(r3xy).groebner() == ()


def test_groebner_deterministic(r3xy):
    gens = ["x^2 + y", "x*y + 1", "y^3 + x"]
    a = ideal(gens, r3xy).groebner()
    b = ideal(gens, r3xy).groebner()
    assert a == b


def test_groebner_unit_detection(r3xy):
    I = ideal(["x + 1", "x"], r3xy)
    assert I.is_unit()


def test_groebner_reduction_cap(r3xy, monkeypatch):
    monkeypatch.setattr("fpurity.ideals.MAX_REDUCTION_STEPS", 5)
    I = ideal(["x^2 + y", "x*y + 1"], r3xy)
    with pytest.raises(ResourceCapExceeded, match="max_reduction_steps"):
        I.groebner()


# --- bracket membership against divisibility oracle ---------------------------


def test_bracket_of_maximal_agrees_with_divisibility(r3xy):
    rng = random.Random(5)
    q = 9
    mq = bracket_power(ideal(["x", "y"], r3xy), q)
    for _ in range(1000):
        mono = (rng.randrange(2 * q), rng.randrange(2 * q))
        f = r3xy.monomial(mono)
        oracle = any(e >= q for e in mono)
        assert membership(f, mq) == oracle


# --- intersections -------------------------------------------------------------


def test_intersect_monomial(r3xy):
    got = intersect(ideal(["x^2", "y"], r3xy), ideal(["x", "y^3"], r3xy))
    assert ideal_equals(got, ideal(["x^2", "x*y^3", "x*y", "y^3"], r3xy))


def test_intersect_principal_general(r3xy):
    got = intersect(ideal(["x+y"], r3xy), ideal(["x"], r3xy))
    assert ideal_equals(got, ideal(["x*(x+y)"], r3xy))


# --- helpers -------------------------------------------------------------------


def _random_monomial_ideal(rng, ring):
    gens = [
        ring.monomial(tuple(rng.randrange(4) for _ in range(ring.nvars)))
        for _ in range(rng.randrange(1, 4))
    ]
    return Ideal(ring, gens)


def _random_ideal(rng, ring):
    gens = []
    for _ in range(rng.randrange(1, 3)):
        terms = {
            tuple(rng.randrange(3) for _ in range(ring.nvars)): rng.randrange(1, ring.p)
            for _ in range(rng.randrange(1, 3))
        }
        gens.append(ring.poly(terms))
    return Ideal(ring, gens)


def test_minimal_monomial_normalization(r3xy):
    I = ideal(["x^2", "x^3", "x^2*y"], r3xy)
    assert I.is_monomial
    assert I.generators == (p("x^2", r3xy),)
    assert all(
        not mono_divides(u, v)
        for u in I.monomial_exponents()
        for v in I.monomial_exponents()
        if u != v
    )


def test_minimal_monomials_match_pairwise_definition():
    # Ideal(...) prunes monomial generators on exponent-field keys: 2 and 3
    # variables take minimal_packed's two- and three-field branches, 1, 4
    # and 5 its general loop; exponents run up to 2^62 + 3
    rng = random.Random(11)
    for trial in range(500):
        n = trial % 5 + 1
        ring = parse_ring("p=3; vars=" + ",".join("xyzwv"[:n]))
        base = 2**62 if trial % 3 == 0 else 0
        monos = [
            tuple(base + rng.randrange(4) if rng.randrange(2) else rng.randrange(4) for _ in range(n))
            for _ in range(rng.randrange(1, 12))
        ]
        expected = {m for m in monos if not any(u != m and mono_divides(u, m) for u in monos)}
        I = Ideal(ring, [ring.monomial(m, rng.randrange(1, 3)) for m in monos])
        got = I.monomial_exponents()
        assert I.is_monomial
        assert set(got) == expected and len(got) == len(expected)
        assert list(got) == sorted(got, key=grevlex_key)
        assert all(g.terms == {m: 1} and g.lead_monomial() == m for g, m in zip(I.generators, got))


# --- Buchberger work ------------------------------------------------------------


def test_chain_criterion_prunes_the_twisted_cubic_colon(monkeypatch):
    # colon(I^[3], I) for the twisted cubic over F_3. With only the
    # coprime-leads criterion, Buchberger took 631 normal forms here; the
    # chain criterion brought it to 218, the sequential colon to 116,
    # interreducing only the t-free part of each elimination basis to 100,
    # and interreducing only the colon's final result, not each step's
    # meet, to 89.
    # Exact divisions run the same loop with a quotient and are not counted.
    # The reduced basis is canonical, so it must not move.
    from fpurity import ideals

    ring = parse_ring("p=3; vars=x,y,z,w")
    I = ideal(["x*z - y^2", "x*w - y*z", "y*w - z^2"], ring)
    calls = 0
    reduce = ideals._normal_form

    def counting(work, table, lay, counter, quotient=None):
        nonlocal calls
        calls += quotient is None
        return reduce(work, table, lay, counter, quotient)

    monkeypatch.setattr(ideals, "_normal_form", counting)
    J = colon(bracket_power(I, 3), I)
    assert calls == 89
    monkeypatch.setattr(ideals, "_normal_form", reduce)
    assert [str(g) for g in J.groebner()] == [
        "z^6 + 2*y^3*w^3",
        "y^3*z^3 + 2*x^3*w^3",
        "y^6 + 2*x^3*z^3",
        "x*y*z^5 + y^4*z^2*w + x*y^2*z^3*w + x^2*z^4*w + y^5*w^2 + x*y^3*z*w^2"
        " + x^2*y*z^2*w^2 + x^2*y^2*w^3 + x^3*z*w^3",
        "x*y^2*z^4 + x^2*z^5 + y^5*z*w + x*y^3*z^2*w + x^2*y*z^3*w + x*y^4*w^2"
        " + x^2*y^2*z*w^2 + x^3*z^2*w^2 + x^3*y*w^3",
    ]


def test_one_step_counter_caps_the_whole_colon(monkeypatch):
    # the twisted cubic's colon counts its eliminations, exact divisions
    # and final interreduction on one counter, so a cap above its largest
    # elimination but below its total stops it, under its own name
    from fpurity import ideals

    ring = parse_ring("p=3; vars=x,y,z,w")
    I = ideal(["x*z - y^2", "x*w - y*z", "y*w - z^2"], ring)
    counters, runs = [], []
    real, eliminate = ideals._StepCounter, ideals._eliminated

    def eliminating(J, K, lay, graded, counter, reduce):
        before = counter.steps
        meet = eliminate(J, K, lay, graded, counter, reduce)
        runs.append(counter.steps - before)
        return meet

    monkeypatch.setattr(
        ideals, "_StepCounter", lambda layer: counters.append(real(layer)) or counters[-1]
    )
    monkeypatch.setattr(ideals, "_eliminated", eliminating)
    colon(bracket_power(I, 3), I)
    (counter,) = counters
    assert counter.layer == "ideals.colon" and len(runs) == 3
    assert max(runs) < counter.steps
    monkeypatch.setattr(ideals, "MAX_REDUCTION_STEPS", (max(runs) + counter.steps) // 2)
    with pytest.raises(ResourceCapExceeded, match="max_reduction_steps.*ideals.colon"):
        colon(bracket_power(I, 3), I)


def test_a_colon_by_several_generators_interreduces_once(monkeypatch):
    # the steps pass their elimination bases on as built; only the result
    # is interreduced, and its reduced basis is canonical
    from fpurity import ideals

    calls = []
    interreduce = ideals._interreduce
    monkeypatch.setattr(
        ideals, "_interreduce", lambda *args: calls.append(1) or interreduce(*args)
    )
    cases = [
        ("x,y,z,w", ["x*z - y^2", "x*w - y*z", "y*w - z^2"]),
        ("x,y,z", ["x*z - y^2", "x^3 - y*z", "x^2*y - z^2"]),  # (t^3, t^4, t^5)
        ("x,y,z,w", ["x*y + z*w", "x^2 + y*w", "x*z + w^2"]),
    ]
    for variables, gens in cases:
        ring = parse_ring(f"p=2; vars={variables}")
        I = ideal(gens, ring)
        weights = ideals.positive_grading(I)
        for q, graded in [(2, None), (4, None), (4, (weights, sum(weights) * 3))]:
            del calls[:]
            got = colon(bracket_power(I, q), I, graded)
            assert len(calls) == 1, (gens, q, graded)
            assert got.generators == Ideal(ring, got.groebner()).generators


# --- the reduction kernel ------------------------------------------------------


def _max_scan_normal_form(f, basis, key=grevlex_key):
    """The reduction on exponent tuples that scans the work dict for its
    largest term in the order of ``key`` at every step: the oracle for the
    packed heap kernel. Returns the remainder's terms, its lead and the
    step count."""
    ring = f.ring
    p = ring.p
    leads = [max(g.terms, key=key) for g in basis]
    data = [(g.terms, lm, ring.field.inv(g.terms[lm])) for g, lm in zip(basis, leads)]
    work = dict(f.terms)
    remainder = {}
    steps = 0
    while work:
        steps += 1
        m = max(work, key=key)
        c = work[m]
        for gterms, glm, ginv in data:
            if mono_divides(glm, m):
                factor = (c * ginv) % p
                shift = tuple(a - b for a, b in zip(m, glm))
                for tm, tc in gterms.items():
                    t = mono_mul(tm, shift)
                    s = (work.get(t, 0) - factor * tc) % p
                    if s:
                        work[t] = s
                    else:
                        work.pop(t, None)
                break
        else:
            remainder[m] = c
            del work[m]
    return remainder, next(iter(remainder), None), steps


@st.composite
def _reduction_case(draw):
    ring = parse_ring(f"p={draw(st.sampled_from([2, 3, 5]))}; vars=x,y,z")
    elim = draw(st.sampled_from([False, True]))
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * 3), st.integers(1, ring.p - 1))

    def poly(min_size, max_size):
        return ring.poly(dict(draw(st.lists(term, min_size=min_size, max_size=max_size))))

    f = poly(0, 10)
    basis = [poly(1, 4) for _ in range(draw(st.integers(0, 4)))]
    return f, [g for g in basis if not g.is_zero()], elim


@settings(max_examples=200, deadline=None)
@given(_reduction_case())
def test_heap_normal_form_matches_the_max_scan(case):
    # the packed heap reduces the same terms in the same order, so
    # remainders, their cached leads and the step counts agree exactly, in
    # grevlex and in the elimination order of x: the elimination layout of
    # F_p[y, z], whose exponent tuples read (x, y, z)
    from fpurity import ideals

    f, basis, elim = case
    ring, key = f.ring, elim_key if elim else grevlex_key
    w = ideals._width(ideals._top_degree([f, *basis]))
    if elim:
        lay = ideals._layout(PolyRing(ring.field, ring.variables[1:]), w, elim=True)
    else:
        lay = ideals._layout(ring, w)

    def pack(g):
        return {lay.key(m): c for m, c in g.terms.items()}

    heap_steps = ideals._StepCounter("ideals.groebner")
    rows = [ideals._row(pack(g), lay.key(max(g.terms, key=key)), ring.p) for g in basis]
    remainder = ideals._normal_form(pack(f), rows, lay, heap_steps)
    terms = {lay.exponents(m): c for m, c in remainder.items()}
    got = SparsePolynomial(ring, terms, next(iter(terms), None))
    want, lead, scan_steps = _max_scan_normal_form(f, basis, key)
    assert list(got.terms.items()) == list(want.items())
    assert got._lead == lead
    assert got.is_zero() or got.lead_monomial() == max(want, key=key)
    assert heap_steps.steps == scan_steps


# --- gradings and degree-bounded colons ------------------------------------------


def test_grading_of_homogeneous_ideals_is_standard(r3xyz):
    from fpurity.ideals import positive_grading

    assert positive_grading(ideal(["x^2 - y*z", "x*y*z + z^3"], r3xyz)) == (1, 1, 1)
    assert positive_grading(ideal(["x^2*y", "z^5"], r3xyz)) == (1, 1, 1)
    assert positive_grading(Ideal.zero(r3xyz)) == (1, 1, 1)


def test_grading_of_herzog_ideals_is_the_semigroup(r3xyz):
    # the monomial curves (t^3, t^4, t^5), scaled and reordered, and (t^5, t^6, t^7)
    from fpurity.ideals import positive_grading

    assert positive_grading(ideal(["x*z - y^2", "x^3 - y*z", "x^2*y - z^2"], r3xyz)) == (3, 4, 5)
    assert positive_grading(ideal(["2*x^3 - y*z", "y^2 - x*z", "z^2 + x^2*y"], r3xyz)) == (3, 4, 5)
    assert positive_grading(ideal(["x*z - y^2", "x^4 - y*z^2", "x^3*y - z^3"], r3xyz)) == (5, 6, 7)


def test_grading_is_none_without_a_positive_line(r3xy, r3xyz):
    from fpurity.ideals import positive_grading

    assert positive_grading(ideal(["x^2 + y + 1"], r3xy)) is None  # only the zero grading
    # weights with 2a = 3b and c free: a plane of gradings, all ones not in it
    assert positive_grading(ideal(["x^2 - y^3"], r3xyz)) is None
    # the only line is spanned by (1, -1), which mixes signs
    assert positive_grading(ideal(["x*y - 1"], r3xy)) is None


def _herzog_ideal(rng, ring):
    """The 2x2 minors of [[x^a1, y^b1, z^c1], [y^b2, z^c2, x^a2]] with
    seeded exponents in {1, 2} and a seeded unit on one term of each:
    Herzog's form of a monomial space curve, quasi-homogeneous."""
    x, y, z = ring.variables
    row1 = [f"{x}^{rng.randint(1, 2)}", f"{y}^{rng.randint(1, 2)}", f"{z}^{rng.randint(1, 2)}"]
    row2 = [f"{y}^{rng.randint(1, 2)}", f"{z}^{rng.randint(1, 2)}", f"{x}^{rng.randint(1, 2)}"]
    return ideal(
        [
            f"{rng.randrange(1, ring.p)}*{row1[i]}*{row2[j]} - {row1[j]}*{row2[i]}"
            for i, j in ((0, 1), (0, 2), (1, 2))
        ],
        ring,
    )


def _quadric_ideal(rng, ring, ngens):
    """ngens seeded binomial quadrics: standard graded."""
    gens = []
    for _ in range(ngens):
        terms = {}
        while len(terms) < 2:
            m = [0] * ring.nvars
            for _ in range(2):
                m[rng.randrange(ring.nvars)] += 1
            terms[tuple(m)] = rng.randrange(1, ring.p)
        gens.append(ring.poly(terms))
    return Ideal(ring, gens)


def _bounded_colon_cases(prime):
    for names in ("x,y,z", "x,y,z,w"):
        ring = parse_ring(f"p={prime}; vars={names}")
        rng = random.Random(f"bounded-colon:{prime}:{names}")
        yield _quadric_ideal(rng, ring, 3)
        yield _quadric_ideal(rng, ring, 2)
    ring = parse_ring(f"p={prime}; vars=x,y,z")
    rng = random.Random(f"bounded-colon:{prime}:herzog")
    yield _herzog_ideal(rng, ring)
    yield _herzog_ideal(rng, ring)


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_bounded_fedder_colon_is_the_low_degree_part(prime):
    # at every bound from just below the lowest generator degree up to the
    # highest, the bounded colon is the unbounded one's subsequence of
    # W-degree at most the bound, tuple for tuple, on both branches
    from fpurity.ideals import _height, fedder_colon, positive_grading

    branches, gradings = set(), set()
    for I in _bounded_colon_cases(prime):
        weights = positive_grading(I)
        branches.add(_height(I) == len(I.generators))
        gradings.add(weights == (1,) * I.ring.nvars)
        q = prime
        while q <= 9:
            full = fedder_colon(I, q).generators
            degree = {g: sum(e * w for e, w in zip(g.lead_monomial(), weights)) for g in full}
            for bound in sorted({min(degree.values()) - 1, *degree.values()}):
                want = tuple(g for g in full if degree[g] <= bound)
                assert fedder_colon(I, q, (weights, bound)).generators == want
            q *= prime
    assert branches == {True, False} and gradings == {True, False}


def test_bounded_colon_leaves_out_the_complete_intersection_power(monkeypatch):
    # (x*y - z*w, x*z - y*w) at q = 3: the power (f_1 f_2)^2 has degree 8,
    # so a bound of 7 never forms it and a bound of 8 does
    from fpurity import ideals

    ring = parse_ring("p=3; vars=x,y,z,w")
    I = ideal(["x*y - z*w", "x*z - y*w"], ring)
    full = ideals.fedder_colon(I, 3).generators
    powers = []
    run = ideals._packed_pow
    monkeypatch.setattr(
        ideals, "_packed_pow", lambda f, s, *args: powers.append(s) or run(f, s, *args)
    )
    for bound, formed in ((7, []), (8, [2])):
        want = tuple(g for g in full if sum(g.lead_monomial()) <= bound)
        assert ideals.fedder_colon(I, 3, ((1, 1, 1, 1), bound)).generators == want
        assert powers == formed


# --- the sequential colon ---------------------------------------------------------


def _count_buchberger(monkeypatch):
    """Buchberger runs by monomial order, counted at the packed kernel."""
    from fpurity import ideals

    runs = {"grevlex": 0, "elimination": 0}
    run = ideals._packed_buchberger

    def counting(gens, lay, graded, counter):
        runs["elimination" if lay.elim else "grevlex"] += 1
        return run(gens, lay, graded, counter)

    monkeypatch.setattr(ideals, "_packed_buchberger", counting)
    return runs


@pytest.mark.parametrize(
    "names, texts",
    [
        ("x,y,z", ["x*y - z^2", "x^2 + y*z"]),
        ("x,y,z,w", ["x*z - y^2", "x*w - y*z", "y*w - z^2"]),
        ("x,y,z,w", ["x*z - y^2", "x*w - y*z", "y*w - z^2", "x^2 + w^2"]),
    ],
    ids=["2", "3", "4"],
)
def test_colon_runs_one_elimination_per_generator(monkeypatch, names, texts):
    # R_k = (J meet f_k R_(k-1)) / f_k: r eliminations where intersecting
    # the r single colons took 2r - 1; the result stays the reduced basis
    ring = parse_ring(f"p=3; vars={names}")
    I = ideal(texts, ring)
    J = bracket_power(I, 3)
    runs = _count_buchberger(monkeypatch)
    got = colon(J, I)
    assert runs == {"grevlex": 0, "elimination": len(texts)}
    monkeypatch.undo()
    assert got.generators == Ideal(ring, got.generators).groebner()
    assert ideal_contains(J, got.times(I))


# --- the containment kernel -------------------------------------------------------


def _w_form(rng, ring, weights, d):
    """A seeded polynomial whose terms all have W-degree d (zero if none)."""
    monos = [
        m for m in itertools.product(range(d + 1), repeat=ring.nvars)
        if sum(e * w for e, w in zip(m, weights)) == d
    ]
    chosen = rng.sample(monos, min(len(monos), 3))
    return ring.poly({m: rng.randrange(1, ring.p) for m in chosen})


def _kernel_targets(prime):
    """(J, weights) on seeded hypersurface quotients I^[q] + (f): f a form,
    a quasi-homogeneous f, and an f with no positive grading (weights
    None); the monomial I^[q] keeps every grading of f. Then the principal
    ideals (f) of the same f, I = 0."""
    ring = parse_ring(f"p={prime}; vars=x,y,z")
    rng = random.Random(f"kernel:{prime}")
    principal = []
    for weights, f_text in (
        ((1, 1, 1), None),
        ((2, 3, 1), "x^3 + 2*y^2 + x*y*z + z^6"),
        ((1, 2, 3), "x^3*z^2 + y^3*z + x*y*z^2"),
        (None, "x^2 + y^2 + x*z + y"),
    ):
        for q in (1, prime):
            f = _w_form(rng, ring, weights, 3) if f_text is None else p(f_text, ring)
            monos = [[rng.randrange(3) for _ in range(3)] for _ in range(2)]
            for m in monos:
                m[rng.randrange(3)] += 1  # not the unit ideal
            J = Ideal(ring, [ring.monomial(tuple(q * e for e in m)) for m in monos] + [f])
            yield J, weights
        if not f.is_monomial():
            principal.append((Ideal(ring, [f]), weights))
    yield from principal


def _kernel_polys(rng, J, weights):
    """Members of J in one or two W-degrees (all ones standing in for W
    when J has none), each also with one stray term added."""
    ring = J.ring
    w = weights or (1,) * ring.nvars
    top = max(sum(e * x for e, x in zip(g.lead_monomial(), w)) for g in J.generators)
    out = []
    for _ in range(6):
        degrees = rng.sample(range(1, top + 3), rng.choice((1, 2)))
        h = ring.zero()
        for d in degrees:
            for g in J.generators:
                dg = sum(e * x for e, x in zip(g.lead_monomial(), w))
                if d >= dg:
                    h = h + _w_form(rng, ring, w, d - dg) * g
        out.append(h)
        out.append(h + _w_form(rng, ring, w, rng.choice(degrees)))
    return [h for h in out if not h.is_zero()]


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_all_members_matches_membership_on_hypersurface_quotients(prime, monkeypatch):
    # one polynomial at a time and all at once, against membership by the
    # tuple kernel on the full basis, asked before and after J's basis is
    # cached; membership and ideal_contains give all_members' answers.
    # Before, a graded target runs only truncated Buchberger and a target
    # with no grading only the full one; after, no Buchberger run happens.
    # A run hands back its basis as built: monic, terms largest first, and
    # not interreduced, which membership does not need. A principal target
    # runs no Buchberger at all: its generator is a Groebner basis
    from fpurity import all_members, ideals
    from test_kernels import tuple_membership

    runs, reduced = [], []
    run, interreduce = ideals._packed_buchberger, ideals._interreduce

    def building(gens, lay, graded, counter):
        runs.append(graded)
        basis = run(gens, lay, graded, counter)
        for h in basis:
            assert next(iter(h.values())) == 1 and list(h) == sorted(h, key=lay.desc.__xor__)
        return basis

    monkeypatch.setattr(ideals, "_packed_buchberger", building)
    monkeypatch.setattr(
        ideals, "_interreduce", lambda *args: reduced.append(args) or interreduce(*args)
    )
    rng = random.Random(f"kernel-polys:{prime}")
    outcomes, principal = set(), 0
    for J, weights in _kernel_targets(prime):
        polys = _kernel_polys(rng, J, weights)
        want = [tuple_membership(h, J) for h in polys]
        for cached in (False, True):
            if cached:
                J.groebner()
            del runs[:], reduced[:]
            assert [all_members([h], J) for h in polys] == want, (J, cached)
            assert all_members(polys, J) is all(want)
            assert [membership(h, J) for h in polys] == want
            assert [ideal_contains(J, Ideal(J.ring, [h])) for h in polys] == want
            assert ideal_contains(J, Ideal(J.ring, polys)) is all(want)
            if len(J.generators) == 1:
                assert runs == [] and reduced == []
            elif cached:
                assert runs == []
            elif weights is None:
                assert all(graded is None for graded in runs)
            else:
                assert runs and all(graded is not None for graded in runs) and reduced == []
        principal += len(J.generators) == 1
        outcomes.update(want)
    assert outcomes == {True, False} and principal == 4


def test_all_members_decides_a_term_at_the_bound_on_its_own_degree():
    # in (x^2, x^3 + y^3 + z^3) the product (y + z)(y^2 - yz + z^2) = y^3 + z^3
    # needs the basis element of degree 3, its own top degree
    from fpurity import all_members

    for prime in (2, 3, 5):
        ring = parse_ring(f"p={prime}; vars=x,y,z")
        J = ideal(["x^2", "x^3 + y^3 + z^3"], ring)
        h = p("y + z", ring) * p("y^2 - y*z + z^2", ring)
        assert all_members([h], J) and membership(h, J)
        assert not all_members([p("y^3", ring)], J)
        assert not all_members([h, p("y^3", ring)], J)


def test_all_members_without_a_grading_keeps_the_full_basis(r3xyz):
    # x - y + z = (x^3 - y) - (x^3 - x - z) has degree 1, below both
    # generators: a basis truncated at degree 1 would miss it
    from fpurity import all_members
    from fpurity.ideals import positive_grading

    J = ideal(["x^3 - y", "x^3 - x - z"], r3xyz)
    assert positive_grading(J) is None
    assert all_members([p("x - y + z", r3xyz)], J)
    assert not all_members([p("x - y", r3xyz)], J)


def test_all_members_on_zero_unit_and_monomial_targets(r3xyz, monkeypatch):
    from fpurity import all_members, ideals

    monkeypatch.setattr(ideals, "_packed_buchberger", None)  # none of these needs a basis
    zero, h = r3xyz.zero(), p("x^2*y + z^3", r3xyz)
    assert all_members([zero], Ideal.zero(r3xyz))
    assert not all_members([h], Ideal.zero(r3xyz))
    assert all_members([h, zero], Ideal.unit(r3xyz))
    assert all_members([], ideal(["x - y"], r3xyz))
    assert all_members([h], ideal(["x^2", "z^3"], r3xyz))
    assert not all_members([h], ideal(["x^2", "z^4"], r3xyz))
    assert not all_members([h], ideal(["x^3", "z^3"], r3xyz))
