import itertools
import math
import time
from fractions import Fraction

import pytest

from fpurity import (
    Ideal,
    PairSpec,
    ResourceCapExceeded,
    bracket_power,
    fpt_bounds,
    fpt_estimate,
    ideal_power,
    maximal_ideal,
    membership,
    nu_table,
    nu_value,
    parse_poly,
    parse_ring,
    sharp_fedder,
    strong_fedder,
)

from fpurity.poly import _packed_pow

from conftest import box, tuple_pow


def ideal(texts, ring):
    return Ideal(ring, [parse_poly(t, ring) for t in texts])


# --- nu values -----------------------------------------------------------------


def test_nu_variable(r3x):
    assert nu_value(ideal(["x"], r3x), 9) == 8


def test_nu_square(r3x):
    assert nu_value(ideal(["x^2"], r3x), 9) == 4


def test_nu_maximal_ideal(r3xy):
    assert nu_value(ideal(["x", "y"], r3xy), 3) == 4


def test_nu_rejects_units(r3xy):
    with pytest.raises(ValueError, match="contained in m"):
        nu_value(ideal(["x + 1"], r3xy), 3)


def test_nu_matches_closed_form_for_principal_monomials(r3xy):
    # independent oracle: for f = x^a1 y^a2, f^s escapes (x^q, y^q) iff
    # s*aj <= q-1 for every j, so nu = min_j (q-1)//aj
    import random

    rng = random.Random(41)
    for _ in range(30):
        exps = (rng.randrange(0, 5), rng.randrange(0, 5))
        if exps == (0, 0):
            continue
        for q in (3, 9, 27):
            expected = min((q - 1) // a for a in exps if a > 0)
            got = nu_value(Ideal(r3xy, [r3xy.monomial(exps)]), q)
            assert got == expected


# --- interval bounds --------------------------------------------------------------


def test_bounds_square(r3x):
    record = fpt_bounds(ideal(["x^2"], r3x), 2)
    assert record.nu == 4
    assert (record.lo, record.hi) == (Fraction(4, 9), Fraction(5, 9))
    assert record.lo <= Fraction(1, 2) <= record.hi


def test_bounds_char2_monomial(r2xy):
    record = fpt_bounds(ideal(["x*y"], r2xy), 2)
    assert record.nu == 3
    assert (record.lo, record.hi) == (Fraction(3, 4), Fraction(1))


def test_bounds_variable(r3x):
    for e in (1, 2, 3):
        record = fpt_bounds(ideal(["x"], r3x), e)
        q = 3**e
        assert (record.lo, record.hi) == (Fraction(q - 1, q), Fraction(1))


def test_bounds_non_principal_widen_by_generator_count(r3xy):
    # (x, y) needs the mu/q slack: the principal-style (nu+1)/q upper bound
    # would exclude the true threshold 2
    record = fpt_bounds(ideal(["x", "y"], r3xy), 1)
    assert record.nu == 4
    assert record.lo == Fraction(4, 3)
    assert record.hi == Fraction(2)


def test_nu_scaling_sandwich(r3x, r3xy):
    for ring, texts in ((r3x, ["x^2"]), (r3xy, ["x*y"]), (r3xy, ["x^2*y"])):
        a = ideal(texts, ring)
        records = nu_table(a, 4)
        nu = {r.e: r.nu for r in records}
        for e in (1, 2, 3):
            for d in (1, 2):
                if e + d > 4:
                    continue
                assert 3**d * nu[e] <= nu[e + d] <= 3**d * (nu[e] + 1)


def test_interval_nesting(r3xy):
    records = nu_table(ideal(["x^2*y"], r3xy), 4)
    lo = max(r.lo for r in records)
    hi = min(r.hi for r in records)
    assert lo <= hi
    for a, b in zip(records, records[1:]):
        assert max(a.lo, b.lo) <= min(a.hi, b.hi)


# --- estimates and certificates -----------------------------------------------------


def test_estimate_square_mustata(r3x):
    est = fpt_estimate(ideal(["x^2"], r3x), 3)
    cert = est.certificate
    assert cert is not None
    assert cert.kind == "mustata-converse"
    assert cert.t_star == Fraction(1, 2)
    assert cert.e_star == 1
    assert cert.exact and est.label == "exact"
    assert est.lo <= Fraction(1, 2) <= est.hi


def test_estimate_monomial_sharp(r3xy):
    est = fpt_estimate(ideal(["x*y"], r3xy), 3)
    cert = est.certificate
    assert cert is not None
    assert cert.kind == "sharp-fedder"
    assert cert.t_star == Fraction(1)
    assert cert.exact and est.label == "exact"


def test_estimate_maximal_ideal(r3xy):
    est = fpt_estimate(ideal(["x", "y"], r3xy), 3)
    cert = est.certificate
    assert cert is not None
    assert cert.kind == "sharp-fedder"
    assert cert.t_star == Fraction(2)


def test_certified_value_is_sharp_and_nothing_above_is(r3x):
    ring = r3x
    a = ideal(["x^2"], ring)
    est = fpt_estimate(a, 3)
    t_star = est.certificate.t_star
    assert sharp_fedder(PairSpec(ring, Ideal.zero(ring), a, t_star), 3).proven
    for delta in (Fraction(1, 26), Fraction(1, 13), Fraction(3, 26)):
        above = t_star + delta
        if above > est.hi:
            continue
        verdict = sharp_fedder(PairSpec(ring, Ideal.zero(ring), a, above), 3)
        assert not verdict.proven


def test_certificate_denominator_bookkeeping(r3x, r3xy):
    # with  t*(p^e - 1)  integral,  t* * p^e  is integral only for integer t*
    for ring, texts, e_max in ((r3x, ["x^2"], 3), (r3xy, ["x*y"], 3)):
        est = fpt_estimate(ideal(texts, ring), e_max)
        cert = est.certificate
        assert (cert.t_star * (ring.p**cert.e_star - 1)).denominator == 1
        p_pow_t = cert.t_star * ring.p**cert.e_star
        if p_pow_t.denominator == 1:
            assert cert.t_star.denominator == 1


def test_estimate_below_true_threshold_is_lower_bound():
    # fpt(x^2) = 1/2 over F_2[x] has denominator divisible by p, so no
    # candidate can hit it exactly. The single-exponent integrality pattern
    # fires spuriously at 3/7 (nu(8) = 3 = (3/7)*7) and must be rejected by
    # the multi-exponent check; what survives is an honest proven lower
    # bound at 3/7, not an exactness claim.
    ring = parse_ring("p=2; vars=x")
    est = fpt_estimate(ideal(["x^2"], ring), 3)
    assert est.lo <= Fraction(1, 2) <= est.hi
    cert = est.certificate
    assert cert is not None
    assert cert.kind == "sharp-fedder"
    assert cert.t_star == Fraction(3, 7)
    assert not cert.exact
    assert est.label == "lower-bound"


def _candidates_by_definition(lo, hi, p, e_max):
    """The positive rationals in [lo, hi] whose reduced denominator divides
    some p^e - 1, e <= e_max, from every denominator up to p^e_max - 1."""
    found = set()
    for den in range(1, p**e_max):
        for k in range(max(math.ceil(lo * den), 1), math.floor(hi * den) + 1):
            r = Fraction(k, den)
            if any((p**e - 1) % r.denominator == 0 for e in range(1, e_max + 1)):
                found.add(r)
    return sorted(found, reverse=True)


def test_candidates_match_their_definition(monkeypatch):
    # seeded intervals, p in {2, 3, 5, 7}: the same set in the same order,
    # and the cap raised iff the set has more than CANDIDATE_CAP elements
    import random

    from fpurity import fpt

    rng = random.Random("candidates")
    capped = set()
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7))
        e_max = rng.randint(1, {2: 6, 3: 4, 5: 3, 7: 2}[p])
        lo = Fraction(rng.randrange(0, 40), rng.randint(1, 24))
        hi = lo + Fraction(rng.randrange(0, 12), rng.randint(1, 24))
        want = _candidates_by_definition(lo, hi, p, e_max)
        cap = rng.choice((fpt.CANDIDATE_CAP, max(len(want) - 1, 0), len(want)))
        monkeypatch.setattr(fpt, "CANDIDATE_CAP", cap)
        capped.add(len(want) > cap)
        if len(want) > cap:
            with pytest.raises(ResourceCapExceeded, match="fpt_candidate_cap"):
                fpt._candidates(lo, hi, p, e_max)
        else:
            assert fpt._candidates(lo, hi, p, e_max) == want, (lo, hi, p, e_max)
    assert capped == {True, False}


# --- threshold consistency ------------------------------------------------------------


def assert_strong_below(a, t, eps):
    """Sharp purity of (S, a^t) forces strong purity of (S, a^(t - eps)),
    proven by the first multiple of the sharp witness exponent e0 at which
    eps * p^e exceeds t."""
    ring = a.ring
    sharp = sharp_fedder(PairSpec(ring, Ideal.zero(ring), a, t), 4)
    assert sharp.proven
    e0, e_need = sharp.witness_e, 1
    while eps * ring.p**e_need <= t:
        e_need += 1
    e_run = e0 * -(-e_need // e0)
    assert strong_fedder(PairSpec(ring, Ideal.zero(ring), a, t - eps), e_run).proven


def test_consistency_monomial(r3xy):
    assert_strong_below(ideal(["x*y"], r3xy), Fraction(1), Fraction(1, 3))


def test_consistency_variable(r3x):
    assert_strong_below(ideal(["x"], r3x), Fraction(1), Fraction(1, 2))


# --- the box kernel against the old route ------------------------------------------


def nu_oracle(a, q):
    """nu by the route the box kernel replaced: every generator product of
    a^s in full from tuple powers (``tuple_pow``), membership in m^[q],
    binary search over [0, n(q-1)]."""
    mq = bracket_power(maximal_ideal(a.ring), q)
    gens, powers = a.generators, {}

    def power(idx, k):
        if (idx, k) not in powers:
            powers[idx, k] = tuple_pow(gens[idx], k)
        return powers[idx, k]

    def contained(s):
        for combo in itertools.combinations_with_replacement(range(len(gens)), s):
            h = a.ring.one()
            for idx in sorted(set(combo)):
                h = h * power(idx, combo.count(idx))
            if not membership(h, mq):
                return False
        return True

    lo, hi = 0, a.ring.nvars * (q - 1) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if contained(mid):
            hi = mid
        else:
            lo = mid
    return lo


def random_poly(rng, ring, max_terms=3, max_deg=3):
    """A nonzero polynomial in m with up to max_terms terms."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(1, max_deg)
        cuts = sorted(rng.randint(0, deg) for _ in range(ring.nvars - 1))
        mono = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))
        terms[mono] = rng.randrange(1, ring.p)
    return ring.poly(terms)


# (p, variables, q values); every q <= 27
DIFF_CASES = [
    (2, "x,y", (2, 4, 8, 16)),
    (2, "x,y,z", (2, 4, 8)),
    (3, "x,y", (3, 9, 27)),
    (5, "x,y", (5, 25)),
]


@pytest.mark.parametrize("p_, names, qs", DIFF_CASES)
def test_nu_principal_matches_old_route(p_, names, qs):
    import random

    ring = parse_ring(f"p={p_}; vars={names}")
    rng = random.Random(1000 + p_ * 10 + len(names))
    for _ in range(12):
        a = Ideal(ring, [random_poly(rng, ring, max_terms=4)])
        for q in qs:
            assert nu_value(a, q) == nu_oracle(a, q), (a, q)


@pytest.mark.parametrize("p_, names, qs", DIFF_CASES)
def test_nu_ideals_match_old_route(p_, names, qs):
    import random

    ring = parse_ring(f"p={p_}; vars={names}")
    rng = random.Random(2000 + p_ * 10 + len(names))
    for k in range(8):
        # alternate two and three generators; single-term generators make
        # some of these monomial ideals, which take their own route
        gens = [random_poly(rng, ring, max_terms=2) for _ in range(2 + k % 2)]
        a = Ideal(ring, gens)
        for q in qs[:2] if len(gens) == 3 else qs:
            assert nu_value(a, q) == nu_oracle(a, q), (a, q)


def _brute_top(a, q, budget):
    """The largest |k| with g_1^k_1 * ... * g_r^k_r nonzero in S/m^[q], over
    every exponent vector k: the products are formed on tuples
    (``poly_mul``), one generator factor at a time, each truncated to the
    box, and a vector whose partial product vanishes is not extended, since
    m^[q] is an ideal. None past ``budget`` products."""
    gens, best, formed = a.generators, -1, 0

    def extend(j, used, partial):
        nonlocal best, formed
        if j == len(gens):
            best = max(best, used)
            return
        kj = 0
        while not partial.is_zero() and formed <= budget:
            extend(j + 1, used + kj, partial)
            partial = partial * gens[j]
            partial = a.ring.poly({m: c for m, c in partial.terms.items() if max(m) < q})
            formed, kj = formed + 1, kj + 1

    extend(0, 0, a.ring.one())
    return best if formed <= budget else None


@pytest.mark.parametrize("p_", [2, 3, 5, 7])
def test_the_frontier_walk_finds_the_largest_escaping_product(p_):
    # nu(q) = max |k| over the escaping exponent vectors, a down-set:
    # nu_value, the bare walk ProductWalk(a, q).top(-1) with no window, the
    # walk from a floor and escapes(N) all agree with the brute-force
    # maximum, and with nu_oracle where its products are few; monomial
    # draws, which nu_value bisects instead, are redrawn
    import random

    from fpurity.ideals import ProductWalk

    rng = random.Random(f"frontier:{p_}")
    qs = [p_**e for e in range(1, 6) if p_**e <= 49]
    drawn, oracled, shapes = 0, 0, set()
    while drawn < 10:
        ring = parse_ring(f"p={p_}; vars={rng.choice(('x,y', 'x,y,z'))}")
        q = rng.choice(qs)
        mu = rng.randint(1, 4)
        a = Ideal(ring, [random_poly(rng, ring, max_terms=3, max_deg=4) for _ in range(mu)])
        top = None if a.is_monomial else _brute_top(a, q, 600)
        if top is None:
            continue
        drawn += 1
        shapes.add((len(a.generators), ring.nvars, q))
        walk = ProductWalk(a, q)
        assert nu_value(a, q) == walk.top(-1) == top, (a, q)
        assert walk.top(top - 1) == top and walk.top(top + 2) == top + 2, (a, q)
        for N in sorted({0, 1, top - 1, top, top + 1, top + 2, rng.randint(0, 2 * top + 2)}):
            if N >= 0:
                assert walk.escapes(N) == (N <= top), (a, q, N)
        mu = len(a.generators)
        if q <= 27 and math.comb(mu + ring.nvars * (q - 1), mu - 1) <= 400:
            oracled += 1
            assert nu_oracle(a, q) == top, (a, q)
    assert oracled >= 3 and len({mu for mu, _, _ in shapes}) >= 3, shapes
    assert max(q for _, _, q in shapes) >= p_ * p_, shapes


def test_nu_principal_window():
    import random

    rng = random.Random(3)
    for p_, names, e_max in ((2, "x,y", 5), (3, "x,y", 4), (5, "x,y", 3), (3, "x,y,z", 3)):
        ring = parse_ring(f"p={p_}; vars={names}")
        for _ in range(6):
            a = Ideal(ring, [random_poly(rng, ring, max_terms=4, max_deg=5)])
            nu = [r.nu for r in nu_table(a, e_max)]
            for lower, upper in zip(nu, nu[1:]):
                assert p_ * lower <= upper <= p_ * lower + p_ - 1, (a, nu)


@pytest.mark.parametrize(
    "texts",
    [["x^3"], ["x^3*y + y^4"], ["x^3", "y^4"], ["x^3 + y^3", "x^4"], ["x^3 + y^5", "x^4*y"]],
)
def test_nu_zero_when_a_lies_in_the_bracket_power(texts, r3xy):
    # a^1 inside m^[q] leaves only a^0 = (1), which never is inside it
    a = ideal(texts, r3xy)
    assert nu_value(a, 3) == 0 == nu_oracle(a, 3)
    assert nu_value(a, 1) == 0


def test_box_power_zero_is_one(r3xy):
    f = parse_poly("x^2 + y", r3xy)
    for q in (1, 3, 9):
        lay, packed = box(f, q)
        assert lay.unpack(_packed_pow(packed, 0, 3, lay, q), ordered=False) == r3xy.one()


def test_nu_rejects_q_not_a_power_of_p(r3xy):
    with pytest.raises(ValueError, match="not a power"):
        nu_value(ideal(["x*y"], r3xy), 6)


def test_nu_product_cap(r3xy, monkeypatch):
    a = ideal(["x + y", "x*y + y^2", "x^2"], r3xy)
    assert nu_value(a, 9) == nu_oracle(a, 9)
    # the cap lives with the product walk that nu, the criteria and the powers share
    monkeypatch.setattr("fpurity.ideals.MAX_POWER_PRODUCTS", 5)
    with pytest.raises(ResourceCapExceeded, match="max_power_products"):
        nu_value(a, 9)


def test_the_box_walk_cap_names_its_layer_and_level(r3xy, monkeypatch):
    # the frontier walk forms products of every total |k| at once, so the
    # box-side message names the walk and the level q, not one a^N; the
    # enumeration behind escapes and the witness search shares it
    from fpurity.ideals import ProductWalk

    a = ideal(["x + y", "x*y + y^2", "x^2"], r3xy)
    monkeypatch.setattr("fpurity.ideals.MAX_POWER_PRODUCTS", 5)
    message = (
        "resource cap exceeded: max_power_products (ideals.ProductWalk: more than 5 "
        "products of 3 generators formed modulo m^[{}])"
    )
    for run, q in ((lambda: nu_value(a, 9), 3), (lambda: list(ProductWalk(a, 9).products(6)), 9)):
        with pytest.raises(ResourceCapExceeded) as caught:
            run()
        assert str(caught.value) == message.format(q)


def test_nu_box_term_cap(r2xy, monkeypatch):
    from fpurity.cli import EXIT_CAP, run

    # the cusp's box powers grow about fourfold a level; without the cap
    # --emax 30 would run for hours and out of memory
    a = ideal(["x^3 + y^2"], r2xy)
    assert nu_value(a, 2**10) == 511
    monkeypatch.setattr("fpurity.poly.MAX_BOX_TERMS", 300)
    with pytest.raises(ResourceCapExceeded, match="max_box_terms"):
        nu_value(a, 2**10)
    for command in ("nu", "fpt"):
        code, text = run([command, "--ring", "p=2; vars=x,y", "--a", "x^3 + y^2", "--emax", "30"])
        assert code == EXIT_CAP
        assert text.startswith("error: resource cap exceeded: max_box_terms (a product in S/m^[")


def test_monomial_power_pair_cap(r3xy, monkeypatch):
    import json

    from fpurity import poly
    from fpurity.cli import EXIT_CAP, run

    # squaring a 12,930-generator power of (x*y, y*z, x^2) in S/m^[243] would
    # form 83,611,846 pairs before pruning (55 s uncapped); the cap refuses the
    # step before it is formed, and --emax 4 keeps its table
    argv = ["nu", "--ring", "p=3; vars=x,y,z", "--a", "x*y, y*z, x^2", "--emax"]
    started = time.perf_counter()
    code, text = run(argv + ["5"])
    assert time.perf_counter() - started < 10
    assert code == EXIT_CAP
    assert text == (
        f"error: resource cap exceeded: max_power_pairs (poly._minimal_power: a step of "
        f"83611846 pairs for a^360 exceeds {poly.MAX_POWER_PAIRS})"
    )
    code, text = run(argv + ["4", "--json"])
    assert code == 0
    assert [(row["q"], row["nu"]) for row in json.loads(text)["nu_table"]] == [
        ("3", "3"), ("9", "12"), ("27", "39"), ("81", "120")
    ]
    # in S too, and before any pair is formed: 3 generators square to 6 pairs
    a = ideal(["x^2", "x*y", "y^3"], r3xy)
    want = ideal_power(a, 2).generators
    pruned = []
    prune = poly.minimal_packed
    monkeypatch.setattr(poly, "minimal_packed", lambda *args: pruned.append(1) or prune(*args))
    monkeypatch.setattr(poly, "MAX_POWER_PAIRS", 5)
    with pytest.raises(ResourceCapExceeded, match=r"max_power_pairs \(poly._minimal_power: "):
        ideal_power(a, 2)
    assert pruned == []
    monkeypatch.setattr(poly, "MAX_POWER_PAIRS", 6)
    assert ideal_power(a, 2).generators == want


# --- the sharp certificate read off the nu table ---------------------------------


def fpt_estimate_oracle(a, e_max):
    """fpt_estimate with the route it replaced: a full ``sharp_fedder`` run
    over the pair (S, a^t*) for every candidate t* that the principal
    integrality pattern does not settle."""
    from fpurity.ceilarith import denominator_order
    from fpurity.fpt import (
        CERT_MUSTATA,
        CERT_SHARP,
        LABEL_EXACT,
        LABEL_INTERVAL,
        LABEL_LOWER_BOUND,
        FptCertificate,
        FptEstimate,
        _candidates,
    )

    records = nu_table(a, e_max)
    lo = max(r.lo for r in records)
    hi = min(r.hi for r in records)
    p = a.ring.p
    for t_star in _candidates(lo, hi, p, e_max):
        if len(a.generators) == 1 and t_star < 1:
            e_star = denominator_order(t_star, p, e_cap=e_max)
            if e_star is not None and e_star <= e_max:
                exponents = range(e_star, max(e_max, 2 * e_star) + 1, e_star)
                if all(nu_value(a, p**e) == t_star * (p**e - 1) for e in exponents):
                    certificate = FptCertificate(t_star, e_star, CERT_MUSTATA, exact=True)
                    return FptEstimate(lo, hi, records, certificate, LABEL_EXACT)
        pair = PairSpec(a.ring, Ideal.zero(a.ring), a, t_star)
        if sharp_fedder(pair, e_max).proven:
            e_star = denominator_order(t_star, p, e_cap=e_max)
            certificate = FptCertificate(t_star, e_star, CERT_SHARP, exact=t_star == hi)
            label = LABEL_EXACT if t_star == hi else LABEL_LOWER_BOUND
            return FptEstimate(lo, hi, records, certificate, label)
    return FptEstimate(lo, hi, records, None, LABEL_INTERVAL)


# (p, variables, e_max for principal a, e_max for two or three generators);
# the oracle's powers of three generators at q = 125 take minutes
ESTIMATE_CASES = [(2, "x,y", 3, 3), (3, "x,y", 3, 3), (5, "x,y", 3, 2), (3, "x,y,z", 3, 3)]


@pytest.mark.parametrize("p_, names, e_principal, e_ideal", ESTIMATE_CASES)
def test_fpt_estimate_matches_the_sharp_fedder_route(p_, names, e_principal, e_ideal):
    import random

    ring = parse_ring(f"p={p_}; vars={names}")
    rng = random.Random(f"estimate:{p_}:{names}")
    kinds = set()
    for k in range(9):
        ngens = k % 3 + 1
        a = Ideal(ring, [random_poly(rng, ring, max_terms=3) for _ in range(ngens)])
        e_max = e_principal if len(a.generators) == 1 else e_ideal
        got = fpt_estimate(a, e_max)
        assert got == fpt_estimate_oracle(a, e_max), (a, e_max)
        kinds.add(got.certificate.kind if got.certificate else None)
    assert "sharp-fedder" in kinds


def test_fpt_estimate_runs_no_criterion(monkeypatch):
    # the sharp proof is ceil(t(q-1)) <= nu(q) on the table already built:
    # no pair, no colon, no power of a (fpt imports neither sharp_fedder
    # nor PairSpec, so it can reach them only through purity)
    import fpurity.fpt
    import fpurity.ideals
    import fpurity.purity

    assert not hasattr(fpurity.fpt, "sharp_fedder") and not hasattr(fpurity.fpt, "PairSpec")
    calls = []
    for module, name in (
        (fpurity.purity, "sharp_fedder"),
        (fpurity.purity, "fedder_colon"),
        (fpurity.ideals, "fedder_colon"),
        (fpurity.purity, "ideal_power"),
        (fpurity.ideals, "ideal_power"),
        (fpurity.purity, "PairSpec"),
    ):
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    r3x, r3xy = parse_ring("p=3; vars=x"), parse_ring("p=3; vars=x,y")
    labels = [
        fpt_estimate(ideal(texts, ring), 3).label
        for texts, ring in ((["x"], r3x), (["x^2"], r3x), (["x", "y"], r3xy), (["x^2 + y^3"], r3xy))
    ]
    assert calls == []
    assert labels == ["exact", "exact", "exact", "lower-bound"]


# --- known wrong answers, pinned until the certified labels land -----------------


@pytest.mark.xfail(strict=True, reason="mustata-converse labels a lower bound exact (ROADMAP item 1)")
def test_an_exact_label_lies_in_every_finer_interval():
    # f = x*y^2 + x^3*y over F_3: nu(3) = 1 = (1/2)(3 - 1) makes --emax 1
    # certify 1/2 exact, but --emax 3 bounds the threshold to [14/27, 5/9]
    import json

    from fpurity.cli import EXIT_OK, run

    def report(emax):
        code, text = run(["fpt", "--ring", "p=3; vars=x,y", "--a", "x*y^2 + x^3*y",
                          "--emax", str(emax), "--json"])
        assert code == EXIT_OK, text
        return json.loads(text)

    wide = report(3)["interval"]
    lo, hi = Fraction(wide["lo"]), Fraction(wide["hi"])
    assert (lo, hi) == (Fraction(14, 27), Fraction(5, 9))
    narrow = report(1)
    if narrow["label"] == "exact":
        assert lo <= Fraction(narrow["certificate"]["t_star"]) <= hi
