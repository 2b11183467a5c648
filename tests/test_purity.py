import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from fpurity import (
    Ideal,
    PairSpec,
    bracket_power,
    classic_fpure,
    denominator_order,
    fedder_colon,
    ideal_power,
    maximal_ideal,
    membership,
    parse_poly,
    parse_ring,
    sharp_fedder,
    strong_fedder,
    verify_witness,
)
from fpurity.ceilarith import ceil_mul
from fpurity.poly import poly_pow
from fpurity.purity import _escape_witness

from battery import battery_pairs
from conftest import p


def pair(ring, a_texts, t, defining_texts=()):
    defining = Ideal(ring, [parse_poly(s, ring) for s in defining_texts])
    a = Ideal(ring, [parse_poly(s, ring) for s in a_texts]).plus(defining)
    return PairSpec(ring, defining, a, Fraction(t))


# --- PairSpec validation -----------------------------------------------------


def test_pair_rejects_nonpositive_t(r3xy):
    with pytest.raises(ValueError):
        pair(r3xy, ["x"], 0)


def test_pair_rejects_zero_a(r3xy):
    with pytest.raises(ValueError):
        PairSpec(r3xy, Ideal.zero(r3xy), Ideal.zero(r3xy), Fraction(1))


def test_pair_requires_containment(r3xy):
    with pytest.raises(ValueError, match="contain"):
        PairSpec(r3xy, Ideal(r3xy, [p("x", r3xy)]), Ideal(r3xy, [p("y", r3xy)]), Fraction(1))


# --- sharp criterion ---------------------------------------------------------


def test_sharp_monomial_pair_proven(r3xy):
    v = sharp_fedder(pair(r3xy, ["x*y"], 1), 1)
    assert v.proven and v.witness_e == 1
    assert v.witness_poly == p("x^2*y^2", r3xy)


def test_sharp_quadric_cone_proven(r3xyz):
    v = sharp_fedder(pair(r3xyz, ["1"], 1, defining_texts=["x^2 - y*z"]), 1)
    assert v.proven and v.witness_e == 1
    # the escape witness is the colon generator, whose x^2*y*z term survives
    assert v.witness_poly == poly_pow(p("x^2 - y*z", r3xyz), 2)


def test_sharp_above_threshold_inconclusive(r3xy):
    v = sharp_fedder(pair(r3xy, ["x*y"], Fraction(3, 2)), 4)
    assert v.outcome == "inconclusive"
    assert v.e_tested == (1, 2, 3, 4)
    assert not any(v.per_e.values())


# --- strong criterion ---------------------------------------------------------


def test_strong_at_threshold_inconclusive(r3xy):
    v = strong_fedder(pair(r3xy, ["x*y"], 1), 4)
    assert v.outcome == "inconclusive"


def test_strong_below_threshold_proven(r3xy):
    v = strong_fedder(pair(r3xy, ["x*y"], Fraction(1, 2)), 1)
    assert v.proven and v.witness_e == 1


def test_strong_trivial_pair_ideal(r3xy):
    v = strong_fedder(pair(r3xy, ["1"], 5), 1)
    assert v.proven and v.witness_e == 1


# --- classic criterion ---------------------------------------------------------


def test_classic_quadric_cone_holds(r3xyz):
    v = classic_fpure(pair(r3xyz, ["1"], 1, defining_texts=["x^2 - y*z"]), 1)
    assert v.per_e[1] is True


def test_classic_monomial_holds(r3xy):
    v = classic_fpure(pair(r3xy, ["x*y"], 1), 1)
    assert v.per_e[1] is True


def test_classic_failure_is_diagnostic(r3x):
    v = classic_fpure(pair(r3x, ["x"], 2), 1)
    assert v.per_e[1] is False
    assert v.outcome == "failed-at-all"


# --- one criterion implies the next at each exponent ---------------------------


@pytest.mark.parametrize(
    "a_texts,t",
    [(["x*y"], Fraction(1)), (["x*y"], Fraction(1, 2)), (["x"], Fraction(2, 3)), (["x", "y"], Fraction(3, 2))],
)
def test_exponent_level_ordering(r3xy, a_texts, t):
    pr = pair(r3xy, a_texts, t)
    strong = strong_fedder(pr, 3).per_e
    sharp = sharp_fedder(pr, 3).per_e
    classic = classic_fpure(pr, 3).per_e
    for e in (1, 2, 3):
        if e in strong and strong[e]:
            assert sharp.get(e, True)
        if e in sharp and sharp[e]:
            assert classic[e]


def test_monotone_in_t(r3xy):
    pr = pair(r3xy, ["x*y"], 1)
    v = sharp_fedder(pr, 4)
    assert v.proven
    for smaller in (Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)):
        v2 = sharp_fedder(pair(r3xy, ["x*y"], smaller), v.witness_e)
        assert v2.proven and v2.witness_e <= v.witness_e


def test_sharp_equals_classic_at_integrality_exponent(r3xy):
    from fpurity.purity import CLASSIC, SHARP, _run_criterion

    for t in (Fraction(1, 2), Fraction(3, 4), Fraction(5, 8), Fraction(3, 2)):
        e0 = denominator_order(t, 3)
        assert e0 is not None
        pr = pair(r3xy, ["x*y"], t)
        sharp_at_e0 = _run_criterion(pr, SHARP, [e0]).per_e[e0]
        classic_at_e0 = _run_criterion(pr, CLASSIC, [e0]).per_e[e0]
        assert sharp_at_e0 == classic_at_e0


# --- principal consistency ------------------------------------------------------


def assert_sharp_forces_classic(pr, e_max):
    """For a principal pair, a sharp proof forces the classic condition at
    every e."""
    assert pr.principal_modulo_defining()
    assert sharp_fedder(pr, e_max).proven
    classic = classic_fpure(pr, e_max)
    assert classic.per_e == {e: True for e in range(1, e_max + 1)}


def test_principal_sharp_implies_classic_monomial(r3xy):
    assert_sharp_forces_classic(pair(r3xy, ["x*y"], 1), 4)


def test_principal_sharp_implies_classic_half(r3x):
    assert_sharp_forces_classic(pair(r3x, ["x"], Fraction(1, 2)), 4)


def test_principal_check_trivial_pair(r3xy):
    assert_sharp_forces_classic(pair(r3xy, ["1"], 1), 3)


def test_principal_check_rejects_non_principal(r3xy, r3xyz):
    # the corollary needs a principal pair ideal; (x, y) is not, while
    # (x, x^2 - y*z) over S/(x^2 - y*z) is
    assert not pair(r3xy, ["x", "y"], 1).principal_modulo_defining()
    assert pair(r3xyz, ["x", "x^2 - y*z"], 1, defining_texts=["x^2 - y*z"]).principal_modulo_defining()


# --- one split: (S, (f)^(1/(q-1))) is sharply F-pure when f escapes m^[q] ---------


def single_split(f, e):
    """The pair (S, (f)^(1/(p^e - 1))) and its sharp verdict through e."""
    ring = f.ring
    built = PairSpec(ring, Ideal.zero(ring), Ideal(ring, [f]), Fraction(1, ring.p**e - 1))
    return built, sharp_fedder(built, e)


def test_split_from_monomial(r3xy):
    built, verdict = single_split(p("x*y", r3xy), 1)
    assert verdict.proven
    assert built.t == Fraction(1, 2)


def test_split_fails_inside_bracket(r3xy):
    _, verdict = single_split(p("x^3", r3xy), 1)
    assert not verdict.proven
    assert verdict.outcome == "inconclusive"


def test_split_unit(r3xy):
    _, verdict = single_split(r3xy.one(), 2)
    assert verdict.proven


# --- witnesses -------------------------------------------------------------------


def test_witness_reverifies(r3xy, r3xyz):
    cases = [
        (pair(r3xy, ["x*y"], 1), 2),
        (pair(r3xyz, ["1"], 1, defining_texts=["x^2 - y*z"]), 2),
        (pair(r3xy, ["x*y"], Fraction(1, 2)), 2),
    ]
    for pr, e_max in cases:
        v = sharp_fedder(pr, e_max)
        assert v.proven
        assert verify_witness(pr, v)
        q = pr.ring.p**v.witness_e
        assert not membership(v.witness_poly, bracket_power(maximal_ideal(pr.ring), q))


def test_battery_is_all_proven():
    for pr in battery_pairs():
        assert sharp_fedder(pr, 4).proven


def test_sharp_matches_closed_form_for_principal_monomials(r3xy):
    # independent oracle: for a = (x^a1 y^a2) over the ambient ring, the
    # escape at e happens iff N*a1 < q and N*a2 < q with N = ceil(t(q-1))
    import random
    from fpurity.purity import SHARP, _run_criterion
    from fpurity.ceilarith import ceil_mul

    rng = random.Random(97)
    for _ in range(40):
        exps = (rng.randrange(0, 4), rng.randrange(0, 4))
        if exps == (0, 0):
            continue
        t = Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
        pr = PairSpec(r3xy, Ideal.zero(r3xy), Ideal(r3xy, [r3xy.monomial(exps)]), t)
        for e in range(1, 4):
            # one e per run: a sharp run stops at its first escape
            got = _run_criterion(pr, SHARP, [e]).per_e
            q = 3**e
            N = ceil_mul(t, q - 1)
            assert got[e] == all(N * a < q for a in exps)


# --- the escape test ---------------------------------------------------------------


def _escaping_pair(pair, N, q):
    """The first (u, v), u over a'^N and v over the full colon, with u*v
    outside m^[q], found by forming every product and asking
    ``membership``: the oracle for the Frobenius-box test and the bound."""
    cond = fedder_colon(pair.defining, q)
    powered = ideal_power(pair.a_preimage, N)
    mq = bracket_power(maximal_ideal(pair.ring), q)
    for u in powered.generators:
        for v in cond.generators:
            if not membership(u * v, mq):
                return u, v
    return None


def _assert_same_escape(got, expected):
    """``_escape_witness`` returns the oracle's pair: the same product u*v,
    with u a generator of a'^N and v one of the full colon."""
    assert (got is None) == (expected is None)
    if got is not None:
        assert got[0] * got[1] == expected[0] * expected[1]
        assert got == expected


# (variables, defining ideal, largest q): in four variables the oracle's
# products past q = 9 take seconds
ESCAPE_DEFINING = {
    "ambient": ("x,y,z", (), 27),
    "cone": ("x,y,z", ("x^2 - y*z",), 27),
    "quadric-ci": ("x,y,z,w", ("x*y - z*w", "x*z - y*w"), 9),
}


def _escape_cases(prime, name):
    names, defining, _ = ESCAPE_DEFINING[name]
    ring = parse_ring(f"p={prime}; vars={names}")
    rng = random.Random(f"escape:{prime}:{name}")
    variables = ring.variables
    for _ in range(4):
        # one or two generators, monomials or binomials; pair() adds the
        # defining generators to a'
        gens = []
        for _ in range(rng.randint(1, 2)):
            terms = [
                "*".join(f"{rng.choice(variables)}^{rng.randint(1, 2)}" for _ in range(2))
                for _ in range(rng.randint(1, 2))
            ]
            gens.append(" + ".join(terms))
        yield pair(ring, gens, Fraction(1, rng.randint(1, 4)), defining)


@pytest.mark.parametrize("name", ESCAPE_DEFINING)
@pytest.mark.parametrize("prime", [2, 3, 5])
def test_box_escape_matches_membership_loop(prime, name):
    outcomes = set()
    q = prime
    while q <= ESCAPE_DEFINING[name][2]:
        for pr in _escape_cases(prime, name):
            for N in (0, 1, ceil_mul(pr.t, q - 1)):
                got = _escape_witness(pr, N, q)
                _assert_same_escape(got, _escaping_pair(pr, N, q))
                outcomes.add(got is None)
        q *= prime
    # in characteristic 2 the quadrics are not F-pure: nothing escapes
    assert outcomes == ({True} if (prime, name) == (2, "quadric-ci") else {True, False})


def _kernel_cases(prime):
    """Pairs the seeded escape cases never draw: a' with two or three
    non-monomial generators (the lazy product order), a' with a constant
    generator, and a' with a generator inside I besides I's own."""
    ring = parse_ring(f"p={prime}; vars=x,y,z")
    cone = ["x^2 - y*z"]
    yield pair(ring, ["x + y^2", "y + z^2", "x*z + y*z"], Fraction(1, 2))
    yield pair(ring, ["x + y", "y*z + z^2"], Fraction(1, 5), cone)
    yield pair(ring, ["1", "x"], Fraction(1, 2), cone)
    yield pair(ring, ["x^3 - x*y*z", "y + z"], Fraction(1, 5), cone)


@pytest.mark.parametrize("prime, top", [(2, 8), (3, 9), (5, 5)])
def test_box_escape_matches_membership_loop_on_kernel_cases(prime, top):
    from fpurity.purity import CLASSIC, SHARP, STRONG, _escape_bound, _exponent, _run_criterion

    outcomes = set()
    classic_zero = False
    for pr in _kernel_cases(prime):
        e, q = 1, prime
        while q <= top:
            exponents = {_exponent(c, pr.t, q) for c in (CLASSIC, SHARP, STRONG)}
            # the largest N the degree bound lets through to the products
            reach = max(N for N in range(3 * q) if _escape_bound(pr, N, q) >= 0)
            for N in sorted(exponents | {0, 1, q, reach}):
                got = _escape_witness(pr, N, q)
                _assert_same_escape(got, _escaping_pair(pr, N, q))
                outcomes.add(got is None)
            classic = _run_criterion(pr, CLASSIC, [e])
            N = _exponent(CLASSIC, pr.t, q)
            classic_zero |= N == 0
            expected = _escaping_pair(pr, N, q)
            assert classic.per_e[e] == (expected is not None)
            assert classic.witness_factors == expected
            e, q = e + 1, q * prime
    assert classic_zero
    assert outcomes == {True, False}


def test_escape_witness_forms_no_power(monkeypatch):
    # the escape test enumerates products of a' itself; a'^N is never built
    from fpurity import ideals, purity

    calls = []
    for module in (ideals, purity):
        monkeypatch.setattr(module, "ideal_power", lambda *args: calls.append(args))
    found = 0
    for pr in itertools.chain(_kernel_cases(3), _escape_cases(3, "cone")):
        for q in (3, 9):
            for N in (0, 1, ceil_mul(pr.t, q - 1)):
                found += _escape_witness(pr, N, q) is not None
    assert found > 0
    assert calls == []


def test_box_escape_forms_one_product_and_no_membership(monkeypatch):
    # with the colon, the exponent N and the escaping factor u fixed, the
    # loop itself asks membership nothing and multiplies nothing in full;
    # it forms u in full once, for the pair it returns, and the criterion
    # run then forms the one product u*v of the escaping pair
    from fpurity import poly, purity
    from fpurity.ideals import ProductWalk
    from fpurity.purity import SHARP, _run_criterion

    cone = pair(parse_ring("p=3; vars=x,y,z"), ["x", "y"], 1, ["x^2 - y*z"])
    quadrics = pair(parse_ring("p=3; vars=x,y,z,w"), ["x", "y"], 1, ["x*y - z*w", "x*z - y*w"])
    cases = [
        (cone, 3, 2, True), (cone, 9, 5, True), (cone, 3, 3, False),
        (quadrics, 9, 0, True), (quadrics, 3, 1, False),
    ]
    full = ProductWalk.product

    def product(walk, exponents):
        calls["product"] += 1
        return full(walk, exponents)

    for pr, q, N, escapes in cases:
        cond = fedder_colon(pr.defining, q)
        calls = {"membership": 0, "poly_mul": 0, "product": 0}
        monkeypatch.setattr(purity, "fedder_colon", lambda I, q, bound=None: cond)
        monkeypatch.setattr(purity, "_exponent", lambda criterion, t, q: N)
        monkeypatch.setattr(ProductWalk, "product", product)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(purity, "membership", counted("membership", membership))
        monkeypatch.setattr(poly, "poly_mul", counted("poly_mul", poly.poly_mul))
        got = _escape_witness(pr, N, q)
        loop_calls = dict(calls)
        calls.update(membership=0, poly_mul=0, product=0)
        e = {3: 1, 9: 2}[q]
        verdict = _run_criterion(pr, SHARP, [e])
        monkeypatch.undo()
        assert (got is not None) == escapes
        _assert_same_escape(got, _escaping_pair(pr, N, q))
        assert loop_calls == {"membership": 0, "poly_mul": 0, "product": int(escapes)}
        assert calls == {"membership": 0, "poly_mul": int(escapes), "product": int(escapes)}
        assert verdict.witness_factors == got


def test_box_escape_keeps_the_iteration_order(monkeypatch):
    # u runs over a'^N outside, v over the colon inside: at q = 3, y*x^2
    # escapes first; running v outside would give x*y^2 instead. a'^1 runs
    # y, x: the monomial route's grevlex order, and the generator order of
    # the product route
    from fpurity import purity

    ring = parse_ring("p=3; vars=x,y")
    colon = Ideal(ring, [p("y^2", ring), p("x^2", ring)])
    monkeypatch.setattr(purity, "fedder_colon", lambda I, q, bound=None: colon)
    for a, first in ((["x", "y"], "y"), (["y", "x + x*y"], "y"), (["x + x*y", "y"], "x + x*y")):
        pr = pair(ring, a, 1)
        assert pr.a_preimage.is_monomial == (a == ["x", "y"])
        assert ideal_power(pr.a_preimage, 1).generators[0] == p(first, ring)
        u, v = _escape_witness(pr, 1, 3)
        if first == "y":
            assert u * v == p("x^2*y", ring)
            assert (u, v) == (p("y", ring), p("x^2", ring))
        else:
            assert u * v == p("x*y^2 + x*y^3", ring)
            assert (u, v) == (p("x + x*y", ring), p("y^2", ring))


# --- the degree bound ----------------------------------------------------------


def _w_degree(f, weights):
    return sum(e * w for e, w in zip(f.lead_monomial(), weights))


def test_escape_bound_keeps_a_witness_at_exactly_the_bound():
    # the witness factor v has W-degree exactly D, once on each branch of
    # the colon: principal, complete intersection, elimination, and
    # elimination in a non-standard grading. A bound one lower loses it.
    from fpurity.ideals import positive_grading
    from fpurity.purity import _escape_bound

    r3 = parse_ring("p=3; vars=x,y,z")
    r3w = parse_ring("p=3; vars=x,y,z,w")
    cases = [
        (pair(r3, ["x", "y", "z"], 1, ["x^2 - y*z"]), 2, 3),
        (pair(r3w, ["1"], 1, ["x*y - z*w", "x*z - y*w"]), 0, 3),
        (pair(r3w, ["x", "y", "z", "w"], 1, ["x*z - y^2", "x*w - y*z", "y*w - z^2"]), 1, 3),
        (pair(r3w, ["1"], 1, ["2*x*z*w + z^2*w + x*y", "z^2 + 2*w^2"]), 0, 3),
    ]
    for pr, N, q in cases:
        weights = positive_grading(pr.defining)
        u, v = _escaping_pair(pr, N, q)
        assert _w_degree(v, weights) == _escape_bound(pr, N, q)
        _assert_same_escape(_escape_witness(pr, N, q), (u, v))
    assert positive_grading(cases[-1][0].defining) == (1, 2, 1, 1)


def test_escape_below_the_lowest_degree_forms_nothing(monkeypatch):
    # a' = (x) at t = n + 1 over a standard-graded I: N = 4(q - 1) exceeds
    # the 3(q - 1) degrees a monomial outside m^[q] can have, so D < 0
    from fpurity import ideals, purity
    from fpurity.purity import _escape_bound

    ring = parse_ring("p=3; vars=x,y,z")
    pr = pair(ring, ["x"], 4, ["x^2 - y*z"])
    calls = []
    for module, name in (
        (ideals, "_buchberger"), (purity, "fedder_colon"), (purity, "ProductWalk")
    ):
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    for e in (1, 2):
        q = 3**e
        N = ceil_mul(pr.t, q - 1)
        assert _escape_bound(pr, N, q) < 0
        assert _escape_witness(pr, N, q) is None
    assert sharp_fedder(pr, 2).e_tested == (1, 2)
    assert calls == []


def test_empty_bounded_colon_forms_no_power(monkeypatch):
    # t = 2 over the quadric cone at q = 3: N = 4 leaves D = 3*2 - 4 = 2 >= 0,
    # but the colon (f^2) starts in degree 4, so its part up to D is empty
    from fpurity import purity
    from fpurity.purity import _escape_bound

    ring = parse_ring("p=3; vars=x,y,z")
    pr = pair(ring, ["x"], 2, ["x^2 - y*z"])
    q = 3
    N = ceil_mul(pr.t, q - 1)
    bound = _escape_bound(pr, N, q)
    assert bound >= 0
    assert fedder_colon(pr.defining, q, bound).is_zero()
    # the full colon agrees: no product escapes m^[q]
    mq = bracket_power(maximal_ideal(ring), q)
    full = fedder_colon(pr.defining, q)
    powered = ideal_power(pr.a_preimage, N)
    assert all(membership(u * v, mq) for u in powered.generators for v in full.generators)
    calls = []
    monkeypatch.setattr(purity, "ProductWalk", lambda *args: calls.append(args))
    assert _escape_witness(pr, N, q) is None
    assert calls == []


def _quasi_homogeneous_pairs(prime):
    """Seeded pairs over 4-variable ideals of two generators, each a sum of
    two or three monomials of one W-degree for seeded weights in {1, 2},
    kept when ``positive_grading`` finds a grading other than all ones;
    a' alternates between the unit ideal and two seeded monomials."""
    from fpurity.ideals import positive_grading

    ring = parse_ring(f"p={prime}; vars=x,y,z,w")
    rng = random.Random(f"quasi-homogeneous:{prime}")
    found = 0
    while found < 4:
        weights = [rng.randint(1, 2) for _ in range(4)]
        target = rng.randint(3, 4)
        monos = [
            m for m in itertools.product(range(target + 1), repeat=4)
            if sum(e * w for e, w in zip(m, weights)) == target
        ]
        gens = []
        for _ in range(2):
            chosen = rng.sample(monos, min(len(monos), rng.randint(2, 3)))
            gens.append(ring.poly({m: rng.randrange(1, prime) for m in chosen}))
        I = Ideal(ring, gens)
        if positive_grading(I) in (None, (1, 1, 1, 1)) or I.is_unit():
            continue
        found += 1
        a = ["1"] if found % 2 else [rng.choice("xyzw"), rng.choice(["x*y", "z*w", "x*w"])]
        yield pair(ring, a, Fraction(1, rng.randint(2, 4)), [str(g) for g in gens])


# q = 9 in four variables takes the membership oracle seconds
@pytest.mark.parametrize("prime, qs", [(2, (2, 4)), (3, (3,))], ids=["2", "3"])
def test_bounded_escape_matches_the_full_colon_in_weighted_gradings(prime, qs):
    outcomes = set()
    for pr in _quasi_homogeneous_pairs(prime):
        for q in qs:
            for N in (0, 1, ceil_mul(pr.t, q - 1)):
                got = _escape_witness(pr, N, q)
                _assert_same_escape(got, _escaping_pair(pr, N, q))
                outcomes.add(got is None)
    assert outcomes == {True, False}


# --- rechecking witnesses by their factors ---------------------------------------


def _verdict_exponent(verdict, pair):
    from fpurity.purity import _exponent

    return _exponent(verdict.criterion, pair.t, verdict.witness_q)


def _verify_by_full_colon(pair, verdict):
    """The product recheck: the witness lies in a'^N * (I^[q] : I), with the
    full colon and a Groebner basis of the product, and escapes m^[q]. The
    oracle for the factor recheck of ``verify_witness``."""
    q = verdict.witness_q
    N = _verdict_exponent(verdict, pair)
    product = ideal_power(pair.a_preimage, N).times(fedder_colon(pair.defining, q))
    escapes = not membership(verdict.witness_poly, bracket_power(maximal_ideal(pair.ring), q))
    return membership(verdict.witness_poly, product) and escapes


def _doctored(verdict, u, v, witness=None):
    """A copy of a proven verdict carrying the factors (u, v) and the
    witness u*v, or the given witness."""
    witness = u * v if witness is None else witness
    return replace(verdict, witness_poly=witness, witness_factors=(u, v))


# one fixed pair per colon branch: principal, complete intersection and
# elimination in the standard grading, and a complete intersection in the
# grading (1, 2, 1, 1)
BRANCH_PAIRS = {
    "principal": ("x,y,z", ["x", "y", "z"], 1, ["x^2 - y*z"]),
    "complete-intersection": ("x,y,z,w", ["1"], 1, ["x*y - z*w", "x*z - y*w"]),
    "elimination": (
        "x,y,z,w", ["x", "y", "z", "w"], Fraction(1, 2), ["x*z - y^2", "x*w - y*z", "y*w - z^2"]
    ),
    "weighted": ("x,y,z,w", ["1"], 1, ["2*x*z*w + z^2*w + x*y", "z^2 + 2*w^2"]),
}


def _branch_pair(name):
    names, a, t, defining = BRANCH_PAIRS[name]
    return pair(parse_ring(f"p=3; vars={names}"), a, t, defining)


@pytest.mark.parametrize("name", BRANCH_PAIRS)
def test_proven_verdicts_carry_factors_that_reverify(name):
    pr = _branch_pair(name)
    sharp = sharp_fedder(pr, 1)
    assert sharp.proven
    for verdict in (sharp, strong_fedder(pr, 1)):
        if not verdict.proven:
            continue
        u, v = verdict.witness_factors
        assert u * v == verdict.witness_poly
        assert u in ideal_power(pr.a_preimage, _verdict_exponent(verdict, pr)).generators
        assert v in fedder_colon(pr.defining, verdict.witness_q).generators
        assert verify_witness(pr, verdict)


def _random_form(rng, variables, degree, terms):
    return " + ".join(
        f"{rng.randint(1, 2)}*" + "*".join(rng.choice(variables) for _ in range(degree))
        for _ in range(terms)
    )


def _seeded_branch_pairs(prime, branch):
    """Endless seeded pairs whose defining ideal takes the given colon
    branch: a principal quadric, two quadrics of height 2, the 2x2 minors
    of a 2x3 matrix of variables (height below 3), or a quasi-homogeneous
    ideal; a' is the unit ideal, one variable or all of them."""
    if branch == "weighted":
        yield from _quasi_homogeneous_pairs(prime)
        return
    from fpurity.ideals import _height

    ring = parse_ring(f"p={prime}; vars={'x,y,z' if branch == 'principal' else 'x,y,z,w'}")
    variables = ring.variables
    rng = random.Random(f"recheck:{prime}:{branch}")
    while True:
        if branch == "principal":
            defining = [_random_form(rng, variables, 2, 3)]
        elif branch == "complete-intersection":
            defining = [_random_form(rng, variables, 2, rng.randint(2, 3)) for _ in range(2)]
        else:
            m = [[rng.choice(variables) for _ in range(3)] for _ in range(2)]
            defining = [
                f"{m[0][i]}*{m[1][j]} - {m[0][j]}*{m[1][i]}" for i, j in ((0, 1), (0, 2), (1, 2))
            ]
        a = rng.choice([["1"], [rng.choice(variables)], list(variables)])
        pr = pair(ring, a, Fraction(1, rng.randint(1, 3)), defining)
        I = pr.defining
        if I.is_zero() or I.is_monomial or I.is_unit():
            continue
        c = len(I.generators)
        ci = c >= 2 and _height(I) == c
        if (branch, c == 1, ci) in (
            ("principal", True, False),
            ("complete-intersection", False, True),
            ("elimination", False, False),
        ):
            yield pr


@pytest.mark.parametrize("branch", BRANCH_PAIRS)
@pytest.mark.parametrize("prime", [2, 3])
def test_factor_recheck_agrees_with_the_full_colon_on_seeded_pairs(prime, branch):
    # the first four proven verdicts among seeded pairs of each branch
    proven = 0
    for pr in itertools.islice(_seeded_branch_pairs(prime, branch), 60):
        for criterion in (sharp_fedder, strong_fedder):
            verdict = criterion(pr, 2 if prime == 2 else 1)
            if verdict.proven:
                proven += 1
                assert verify_witness(pr, verdict) is True
                assert _verify_by_full_colon(pr, verdict) is True
        if proven >= 4:
            break
    assert proven >= 2


@pytest.mark.parametrize("name", BRANCH_PAIRS)
def test_factor_recheck_agrees_with_the_full_colon_on_generator_pairs(name):
    # every pair of a generator of a'^N and one of the full colon, whether
    # or not its product escapes: both rechecks reduce to the escape
    pr = _branch_pair(name)
    verdict = sharp_fedder(pr, 1)
    q = verdict.witness_q
    powered = ideal_power(pr.a_preimage, _verdict_exponent(verdict, pr))
    cond = fedder_colon(pr.defining, q)
    outcomes = set()
    for u in powered.generators[:6]:
        for v in cond.generators[:6]:
            doctored = _doctored(verdict, u, v)
            got = verify_witness(pr, doctored)
            assert got == _verify_by_full_colon(pr, doctored)
            outcomes.add(got)
    assert True in outcomes


@pytest.mark.parametrize("name", BRANCH_PAIRS)
def test_recheck_rejects_a_factor_outside_the_colon(name):
    # v = 1 is outside I^[q] : I when I is nonzero; u alone still escapes
    pr = _branch_pair(name)
    verdict = sharp_fedder(pr, 1)
    u, _ = verdict.witness_factors
    one = pr.ring.one()
    mq = bracket_power(maximal_ideal(pr.ring), verdict.witness_q)
    assert not membership(u, mq)
    assert verify_witness(pr, _doctored(verdict, u, one)) is False


def test_recheck_rejects_a_factor_outside_the_power():
    # a' = (x, y, z) + I at N = 2: the unit is outside a'^2, and the colon
    # generator f^2 alone escapes m^[3]
    pr = _branch_pair("principal")
    verdict = sharp_fedder(pr, 1)
    _, v = verdict.witness_factors
    assert not membership(v, bracket_power(maximal_ideal(pr.ring), 3))
    assert not membership(pr.ring.one(), ideal_power(pr.a_preimage, 2))
    assert verify_witness(pr, _doctored(verdict, pr.ring.one(), v)) is False


@pytest.mark.parametrize("name", BRANCH_PAIRS)
def test_recheck_rejects_factors_that_do_not_multiply_to_the_witness(name):
    pr = _branch_pair(name)
    verdict = sharp_fedder(pr, 1)
    u, v = verdict.witness_factors
    x = pr.ring.var("x")
    assert verify_witness(pr, _doctored(verdict, u, v, witness=u * v * x)) is False
    assert verify_witness(pr, _doctored(verdict, u, v * x, witness=u * v)) is False


@pytest.mark.parametrize("name", BRANCH_PAIRS)
def test_recheck_rejects_a_witness_inside_the_bracket_power(name):
    # u * x^q stays in a'^N and makes the product land in m^[q]
    pr = _branch_pair(name)
    verdict = sharp_fedder(pr, 1)
    u, v = verdict.witness_factors
    inside = u * pr.ring.var("x") ** verdict.witness_q
    assert membership(inside, ideal_power(pr.a_preimage, _verdict_exponent(verdict, pr)))
    assert verify_witness(pr, _doctored(verdict, inside, v)) is False


def test_recheck_needs_the_factors():
    pr = _branch_pair("principal")
    verdict = sharp_fedder(pr, 1)
    with pytest.raises(ValueError, match="factors"):
        verify_witness(pr, replace(verdict, witness_factors=None))
    with pytest.raises(ValueError, match="proven"):
        verify_witness(pr, sharp_fedder(pair(pr.ring, ["x"], 9, ["x^2 - y*z"]), 1))


def test_recheck_computes_no_colon(monkeypatch):
    from fpurity import ideals, purity

    verdicts = [(pr, sharp_fedder(pr, 1)) for pr in map(_branch_pair, BRANCH_PAIRS)]
    calls = []
    for module, name in (
        (ideals, "fedder_colon"), (purity, "fedder_colon"), (ideals, "colon"),
        (ideals, "intersect"),
    ):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kw: calls.append(name))
    for pr, verdict in verdicts:
        assert verify_witness(pr, verdict) is True
    assert calls == []


@pytest.mark.parametrize("text,e", [("x*y", 1), ("x^2*y + y^3", 1), ("1", 2), ("x + y^2", 2)])
def test_single_split_verdict_reverifies(r3xy, text, e):
    built, verdict = single_split(p(text, r3xy), e)
    assert verdict.proven
    assert verdict.witness_factors == (p(text, r3xy), r3xy.one())
    assert verify_witness(built, verdict) is True
    assert _verify_by_full_colon(built, verdict) is True
