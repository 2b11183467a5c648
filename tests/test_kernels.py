"""Each fast kernel of the test-ideal chain, the Fedder colon and the
Groebner engine against the code it replaced, kept here as the oracle,
plus guards on the work those kernels leave out."""

import functools
import hashlib
import heapq
import importlib.util
import itertools
import operator
import random
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fpurity import (
    ExponentOverflowError,
    Ideal,
    ParseError,
    ResourceCapExceeded,
    bracket_power,
    colon,
    ideal_contains,
    ideal_equals,
    ideal_power,
    intersect,
    parse_poly,
    parse_poly_list,
    parse_rational,
    parse_ring,
    root_power,
)
from fpurity import ideals, parser, poly, testideal
from fpurity.ceilarith import ceil_mul, denominator_order, exponent_range
from fpurity.field import PrimeField, is_prime
from fpurity.ideals import _height, fedder_colon
from fpurity.poly import (
    PolyRing,
    SparsePolynomial,
    frobenius_image,
    grevlex_key,
    minimal_packed,
    mono_mul,
    poly_pow,
)

from conftest import elim_key, tuple_pow


def ideal(texts, ring):
    return Ideal(ring, [parse_poly(t, ring) for t in texts])


# --- the replaced code -------------------------------------------------------------


def mono_divides(a, b):
    """True iff x^a divides x^b."""
    return all(u <= v for u, v in zip(a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def _minimal_monomials(monos):
    """The minimal monomials of monos in grevlex order, pruned pairwise on
    exponent tuples."""
    monos = set(monos)
    kept = [m for m in monos if not any(u != m and mono_divides(u, m) for u in monos)]
    return sorted(kept, key=grevlex_key)


def _bucketed_root(I, q):
    """root_power's generic path: every term bucketed by its exponents mod q."""
    ring = I.ring
    pieces, seen = [], set()
    for g in I.generators:
        buckets = {}
        for mono, c in g.terms.items():
            residue = tuple(e % q for e in mono)
            buckets.setdefault(residue, {})[tuple(e // q for e in mono)] = c
        for residue in sorted(buckets, key=grevlex_key):
            piece = SparsePolynomial(ring, buckets[residue])
            if piece not in seen:
                seen.add(piece)
                pieces.append(piece)
    return Ideal(ring, pieces)


def _tuple_power(a, N):
    """ideal_power's general path on exponent tuples: every degree-N product
    of generator powers, in combinations_with_replacement order, each once.
    Monomial and principal a give the same generators as their own paths."""
    ring, p = a.ring, a.ring.p
    powers = []
    for g in a.generators:
        row = [ring.one(), g]
        for k in range(2, N + 1):
            row.append(frobenius_image(row[k // p], p) if k % p == 0 else row[-1] * g)
        powers.append(row)
    kept, seen = [], set()
    for combo in itertools.combinations_with_replacement(range(len(powers)), N):
        h = None
        for idx, run in itertools.groupby(combo):
            piece = powers[idx][len(list(run))]
            h = piece if h is None else h * piece
        if h not in seen:
            seen.add(h)
            kept.append(h)
    return Ideal(ring, kept)


def _quadratic_minimal_packed(keys, guards):
    """minimal_packed before the staircase: each key against all kept ones."""
    kept = []
    for v in sorted(keys):
        raised = v | guards
        if not any((raised - u) & guards == guards for u in kept):
            kept.append(v)
    return kept


def _full_chain(a, t, e_cap=12):
    """test_ideal before the unit tail: power_root at every e, even after an
    entry is the unit ideal."""
    ring = a.ring
    e_floor = denominator_order(t, ring.p) or 1
    chain, previous = [], None
    for e in exponent_range(e_cap):
        q = ring.p**e
        entry = ideals.power_root(a, ceil_mul(t, q), q)
        assert previous is None or ideal_contains(entry, previous)
        chain.append((e, entry))
        previous = entry
        if len(chain) >= 3:
            e_star, base = chain[-3]
            if e_star >= e_floor and ideal_equals(base, chain[-1][1]):
                return testideal.TestIdealResult(base, e_star, e_floor, chain)
    raise ResourceCapExceeded("test_ideal_e_cap", f"no stabilization by e={e_cap}")


class TupleSteps:
    """The tuple kernel's reduction-step counter, capped like the engine's."""

    def __init__(self):
        self.steps = 0
        self.limit = ideals.MAX_REDUCTION_STEPS

    def tick(self):
        self.steps += 1
        if self.steps > self.limit:
            raise ideals.ResourceCapExceeded("max_reduction_steps", f"{self.limit} steps")


def _descending_key(key):
    """The order key ``grevlex_key`` or ``elim_key`` negated, so a min-heap
    pops the largest term.

    Grevlex: (-deg, reversed exponents). Elimination: the first exponent
    negated, then the grevlex key of the rest negated the same way; the
    total degree stands in for the degree of the rest, which it orders
    alike once the first exponents agree.
    """
    if key is grevlex_key:
        return lambda m: (-sum(m), m[::-1])
    return lambda m: (-m[0], -sum(m), m[:0:-1])


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def monic(f):
    """f scaled to lead coefficient 1, keeping its cached lead."""
    inv = f.ring.field.inv(f.lead_coeff())
    if inv == 1:
        return f
    p = f.ring.p
    return SparsePolynomial(f.ring, {m: c * inv % p for m, c in f.terms.items()}, f._lead)


def tuple_reducer(g):
    """A divisor's (terms, lead, inverse lead coefficient) row."""
    return g.terms, g.lead_monomial(), g.ring.field.inv(g.lead_coeff())


def tuple_normal_form(f, reducers, counter, key=grevlex_key):
    """The reduction on exponent tuples that the packed kernel replaced:
    the largest remaining term in the order of ``key`` comes off a heap on
    the negated key, and the first divisor that divides it wins."""
    ring = f.ring
    hkey = _descending_key(key)
    p = ring.p
    work = dict(f.terms)
    heap = [(hkey(m), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.get(m)
        if c is None:
            continue
        counter.tick()
        for gterms, glm, ginv in reducers:
            if mono_divides(glm, m):
                factor = (c * ginv) % p
                shift = mono_div(m, glm)
                for tm, tc in gterms.items():
                    t = mono_mul(tm, shift)
                    old = work.get(t, 0)
                    s = (old - factor * tc) % p
                    if s:
                        work[t] = s
                        if not old:
                            heapq.heappush(heap, (hkey(t), t))
                    else:
                        del work[t]
                break
        else:
            remainder[m] = c
            del work[m]
    return SparsePolynomial(ring, remainder, next(iter(remainder), None))


def _tuple_s_poly(f, g):
    """S(f, g) of two monic polynomials."""
    lcm = mono_lcm(f.lead_monomial(), g.lead_monomial())

    def shifted(h):
        shift = mono_div(lcm, h.lead_monomial())
        return SparsePolynomial(h.ring, {mono_mul(m, shift): c for m, c in h.terms.items()})

    return shifted(f) - shifted(g)


def _w_degree(m, weights):
    return sum(e * w for e, w in zip(m, weights))


def tuple_buchberger(gens, ring, graded=None, counter=None, key=grevlex_key):
    """Buchberger's algorithm on exponent tuples, as the packed
    ``ideals._buchberger`` runs it: the same pair heap, criteria, graded
    truncation and interreduction, so bases and step counts must agree.
    ``key`` is the monomial order (``grevlex_key`` or ``elim_key``); every
    basis element caches its lead in that order."""
    counter = counter or TupleSteps()
    if graded is not None:
        weights, bound = graded
        gens = [g for g in gens if _w_degree(g.lead_monomial(), weights) <= bound]
    basis, table = [], []
    for g in gens:
        h = tuple_normal_form(g, table, counter, key)
        if not h.is_zero():
            if h.is_constant():
                return [ring.one()]
            basis.append(monic(h))
            table.append(tuple_reducer(basis[-1]))
    leads = [g.lead_monomial() for g in basis]
    heap, queued = [], set()

    def add_pairs(k):
        for i in range(k):
            lcm = mono_lcm(leads[i], leads[k])
            if graded is None:
                heapq.heappush(heap, (key(lcm), i, k))
            else:
                degree = _w_degree(lcm, weights)
                if degree > bound:
                    continue
                heapq.heappush(heap, ((degree, key(lcm)), i, k))
            queued.add((i, k))

    for k in range(1, len(basis)):
        add_pairs(k)
    while heap:
        _, i, j = heapq.heappop(heap)
        queued.discard((i, j))
        lmi, lmj = leads[i], leads[j]
        lcm = mono_lcm(lmi, lmj)
        if lcm == mono_mul(lmi, lmj):
            continue
        if any(
            k != i and k != j
            and mono_divides(lmk, lcm)
            and (min(i, k), max(i, k)) not in queued
            and (min(j, k), max(j, k)) not in queued
            for k, lmk in enumerate(leads)
        ):
            continue
        h = tuple_normal_form(_tuple_s_poly(basis[i], basis[j]), table, counter, key)
        if h.is_zero():
            continue
        if h.is_constant():
            return [ring.one()]
        basis.append(monic(h))
        table.append(tuple_reducer(basis[-1]))
        leads.append(basis[-1].lead_monomial())
        add_pairs(len(basis) - 1)
    return tuple_interreduced(basis, ring, counter, key)


def tuple_interreduced(basis, ring, counter=None, key=grevlex_key):
    """Minimal leads, then each tail reduced against the others; the leads
    are the cached ones of the basis, in the order of ``key``."""
    counter = counter or TupleSteps()
    minimal = []
    for g in sorted(basis, key=lambda g: key(g.lead_monomial())):
        if not any(mono_divides(h.lead_monomial(), g.lead_monomial()) for h in minimal):
            minimal.append(g)
    rows = [tuple_reducer(g) for g in minimal]
    reduced = [
        monic(tuple_normal_form(g, rows[:idx] + rows[idx + 1 :], counter, key))
        for idx, g in enumerate(minimal)
    ]
    return sorted(reduced, key=lambda g: key(g.lead_monomial()))


def tuple_exact_div(g, f):
    """g / f when f divides g exactly, else None, on exponent tuples."""
    ring = g.ring
    p = ring.p
    hkey = _descending_key(grevlex_key)
    flm, finv = f.lead_monomial(), ring.field.inv(f.lead_coeff())
    work = dict(g.terms)
    heap = [(hkey(m), m) for m in work]
    heapq.heapify(heap)
    quotient = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.get(m)
        if c is None:
            continue
        if not mono_divides(flm, m):
            return None
        factor = (c * finv) % p
        shift = mono_div(m, flm)
        quotient[shift] = factor
        for tm, tc in f.terms.items():
            t = mono_mul(tm, shift)
            old = work.get(t, 0)
            s = (old - factor * tc) % p
            if s:
                work[t] = s
                if not old:
                    heapq.heappush(heap, (hkey(t), t))
            else:
                del work[t]
    return SparsePolynomial(ring, quotient, next(iter(quotient), None))


def tuple_power_mod(digit, q, divisors):
    """prod_(i<e) Frob^i(digit) reduced modulo the divisors after each factor."""
    ring = digit.ring
    rows = [tuple_reducer(g) for g in divisors]
    counter = TupleSteps()
    power, qi = ring.one(), 1
    while qi < q:
        power = tuple_normal_form(power * frobenius_image(digit, qi), rows, counter)
        qi *= ring.p
    return power


def tuple_intersect(J, K, graded=None):
    """J meet K on exponent tuples: the lcms of two monomial ideals, (g)
    for (g) meet (f) with f dividing g (nothing for a graded g above the
    bound), else t eliminated from t*J + (1-t)*K by the tuple kernel."""
    ring = J.ring
    if J.is_zero() or K.is_zero():
        return Ideal.zero(ring)
    if J.has_constant_generator():
        return K
    if K.has_constant_generator():
        return J
    if J.is_monomial and K.is_monomial:
        lcms = [mono_lcm(u, v) for u in J.monomial_exponents() for v in K.monomial_exponents()]
        return Ideal(ring, [ring.monomial(m) for m in lcms])
    if len(J.generators) == 1 and len(K.generators) == 1:
        (g,), (f,) = J.generators, K.generators
        if graded is not None and _w_degree(g.lead_monomial(), graded[0]) > graded[1]:
            return Ideal.zero(ring)
        if tuple_exact_div(g, f) is not None:
            return J
    ext = PolyRing(ring.field, ("t",) + ring.variables)

    def embed(f, tdeg):
        return SparsePolynomial(ext, {(tdeg,) + m: c for m, c in f.terms.items()})

    gens = [embed(g, 1) for g in J.generators]
    gens += [embed(h, 0) - embed(h, 1) for h in K.generators]
    if graded is not None:
        weights, bound = graded
        graded = ((0, *weights), bound)
    basis = tuple_buchberger(gens, ext, graded, key=elim_key)
    kept = [
        SparsePolynomial(ring, {m[1:]: c for m, c in b.terms.items()})
        for b in basis if all(m[0] == 0 for m in b.terms)
    ]
    return Ideal(ring, kept)


def tuple_colon(J, I, graded=None):
    """J : I as R_k = (J meet f_k*R_(k-1)) / f_k on exponent tuples, each
    step an Ideal of polynomials: the loop the packed colon replaced."""
    ring = J.ring
    if I.is_zero() or J.has_constant_generator():
        return Ideal.unit(ring)
    if I.has_constant_generator():
        return J
    result = Ideal.unit(ring)
    for f in I.generators:
        raised = Ideal(ring, [f * g for g in result.generators])
        step = graded
        if graded is not None:
            step = (graded[0], graded[1] + _w_degree(f.lead_monomial(), graded[0]))
        quotients = [tuple_exact_div(g, f) for g in tuple_intersect(J, raised, step).generators]
        assert all(quotient is not None for quotient in quotients)
        result = Ideal(ring, quotients)
    if len(I.generators) > 1 and not result.is_monomial:
        result = Ideal(ring, tuple_interreduced(list(result.generators), ring))
    if graded is not None:
        weights, bound = graded
        result = Ideal(
            ring, [g for g in result.generators if _w_degree(g.lead_monomial(), weights) <= bound]
        )
    return result


def tuple_fedder_colon(I, q, graded=None):
    """fedder_colon on exponent tuples: for a complete intersection, one
    tuple Buchberger run on I^[q] and prod_(i<e) Frob^i(P^(p-1)) reduced by
    ``tuple_power_mod``, P = f_1 * ... * f_c; else the tuple colon."""
    ring, gens, Iq = I.ring, I.generators, bracket_power(I, q)
    if I.is_monomial or len(gens) < 2 or I.is_unit() or _height(I) != len(gens):
        return tuple_colon(Iq, I, graded)
    inputs = list(Iq.generators)
    product = functools.reduce(operator.mul, gens)
    if graded is None or (q - 1) * _w_degree(product.lead_monomial(), graded[0]) <= graded[1]:
        divisors = [frobenius_image(g, q) for g in tuple_buchberger(list(gens), ring)]
        inputs.append(tuple_power_mod(tuple_pow(product, ring.p - 1), q, divisors))
    return Ideal(ring, tuple_buchberger(inputs, ring, graded))


# the engine's packed entry points and their tuple stand-ins
TUPLE_KERNEL = {
    "_buchberger": tuple_buchberger,
    "colon": tuple_colon,
    "fedder_colon": tuple_fedder_colon,
}


def tuple_membership(g, I):
    """g in I by the tuple kernel: g reduced against I's tuple basis."""
    if g.is_zero():
        return True
    if I.is_zero():
        return False
    rows = [tuple_reducer(b) for b in tuple_buchberger(list(I.generators), I.ring)]
    return tuple_normal_form(g, rows, TupleSteps()).is_zero()


def _random_monomial_ideal(rng, ring, top):
    monos = [
        tuple(rng.randrange(top) for _ in range(ring.nvars)) for _ in range(rng.randrange(1, 7))
    ]
    return Ideal(ring, [ring.monomial(m) for m in monos])


# --- monomial roots and the trusted constructor ----------------------------------------


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_monomial_root_matches_bucketing(prime):
    units = 0
    for names in ("x,y", "x,y,z"):
        ring = parse_ring(f"p={prime}; vars={names}")
        rng = random.Random(f"root:{prime}:{names}")
        for _ in range(40):
            I = _random_monomial_ideal(rng, ring, 30)
            for q in (prime, prime**2, prime**3):
                got, want = root_power(I, q), _bucketed_root(I, q)
                assert got.generators == want.generators, (I, q)
                assert got.is_monomial == want.is_monomial
                units += got.has_constant_generator()
    assert units  # some roots become the unit ideal


def test_trusted_constructor_matches_the_checked_one():
    rng = random.Random(7)
    for names in ("x", "x,y", "x,y,z"):
        ring = parse_ring(f"p=3; vars={names}")
        for _ in range(60):
            monos = [
                tuple(rng.randrange(5) for _ in range(ring.nvars))
                for _ in range(rng.randrange(1, 9))
            ]
            checked = Ideal(ring, [ring.monomial(m) for m in monos])
            minimal = _minimal_monomials(monos)
            rng.shuffle(minimal)
            lay = ideals._layout(ring, ideals._width(max(map(sum, minimal))))
            trusted = Ideal._from_minimal(lay, map(lay.field_key, minimal))
            assert trusted.generators == checked.generators
            assert trusted.is_monomial and checked.is_monomial
            assert trusted.has_constant_generator() == checked.has_constant_generator()


def test_monomial_results_are_already_minimal():
    # what ideal_power, intersect and the monomial colon hand to the trusted
    # constructor survives the checked one unchanged
    rng = random.Random(8)
    for names in ("x,y", "x,y,z"):
        ring = parse_ring(f"p=2; vars={names}")
        for _ in range(30):
            a, b = (_random_monomial_ideal(rng, ring, 4) for _ in range(2))
            results = [ideal_power(a, rng.randrange(2, 9)), intersect(a, b)]
            if not a.has_constant_generator() and not b.has_constant_generator():
                results.append(colon(a, Ideal(ring, [b.generators[0]])))
            for got in results:
                assert Ideal(ring, list(got.generators)).generators == got.generators


# --- the staircase ---------------------------------------------------------------------


def _packed_keys(rng, nfields, width, count):
    keys = set()
    for _ in range(count):
        exps = [rng.randrange(2 ** (width - 1)) for _ in range(nfields)]
        keys.add(sum(e << (width * i) for i, e in enumerate(exps)))
    guards = sum(1 << (width * i + width - 1) for i in range(nfields))
    return keys, guards


@pytest.mark.parametrize("nfields", [1, 2, 3, 4])
def test_staircase_matches_the_quadratic_loop(nfields):
    rng = random.Random(f"staircase:{nfields}")
    for _ in range(300):
        width = rng.randrange(2, 7)
        keys, guards = _packed_keys(rng, nfields, width, rng.randrange(1, 40))
        assert minimal_packed(keys, guards) == _quadratic_minimal_packed(keys, guards)


def test_staircase_matches_the_quadratic_loop_on_drawn_keys():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        st.integers(1, 4),
        st.integers(2, 6),
        st.lists(st.lists(st.integers(0, 31), min_size=4, max_size=4), min_size=1, max_size=30),
    )
    def check(nfields, width, rows):
        top = 2 ** (width - 1)
        keys = {sum((e % top) << (width * i) for i, e in enumerate(r[:nfields])) for r in rows}
        guards = sum(1 << (width * i + width - 1) for i in range(nfields))
        assert minimal_packed(keys, guards) == _quadratic_minimal_packed(keys, guards)

    check()


# --- hashing ---------------------------------------------------------------------------------


def test_equal_polynomials_hash_alike_whatever_the_term_order():
    ring = parse_ring("p=5; vars=x,y,z")
    rng = random.Random(5)
    for _ in range(50):
        items = [
            (tuple(rng.randrange(4) for _ in range(3)), rng.randrange(1, 5))
            for _ in range(rng.randrange(1, 8))
        ]
        items = list(dict(items).items())
        f = SparsePolynomial(ring, dict(items))
        g = SparsePolynomial(ring, dict(reversed(items)))
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1
    assert ring.one() != parse_ring("p=5; vars=x,y,w").one()


# --- the complete-intersection power of the Fedder colon ------------------------------------


def _inhomogeneous_complete_intersections(prime):
    ring = parse_ring(f"p={prime}; vars=x,y,z")
    rng = random.Random(f"fedder-power:{prime}")
    found = 0
    while found < 3:
        gens = []
        for _ in range(2):
            terms = {(0, 0, 0): rng.randrange(0, prime)}
            for _ in range(rng.randrange(2, 4)):
                terms[tuple(rng.randrange(3) for _ in range(3))] = rng.randrange(1, prime)
            gens.append(ring.poly(terms))
        I = Ideal(ring, gens)
        if (
            len(I.generators) == 2
            and not I.is_monomial
            and not I.is_unit()
            and ideals.positive_grading(I) is None
            and _height(I) == 2
        ):
            found += 1
            yield I


@pytest.mark.parametrize("prime, qs", [(2, (2, 4)), (3, (3,)), (5, (5,))])
def test_fedder_power_matches_the_elimination_colon(prime, qs, monkeypatch):
    # the power is built from P^(p-1) and Frobenius images, never as P^(q-1)
    exponents = []
    run = ideals._packed_pow
    monkeypatch.setattr(
        ideals, "_packed_pow", lambda f, s, *args: exponents.append(s) or run(f, s, *args)
    )
    for I in _inhomogeneous_complete_intersections(prime):
        for q in qs:
            exponents.clear()
            got = fedder_colon(I, q)
            assert exponents == [prime - 1]
            assert got.generators == colon(bracket_power(I, q), I).generators, (I, q)


# fedder runs past the quotients catalog's e <= 2, and the sha256 of
# repr(run(argv)): a complete intersection graded and not, and a strong
# criterion that re-verifies its witness
_FEDDER_GUARD_ROWS = [
    (
        'fedder --ring "p=3; vars=x,y,z,w" --ideal "x*y - z*w, x*z - y^2 + w^2" --emax 3 --json',
        "a959489d3c83a0bd86fc2ab69ee3180058b58d20eeabd0e5aac92e780ef120b2",
    ),
    (
        'fedder --ring "p=3; vars=x,y,z" --ideal "x^2 + y^3 + x*y*z, y*z + x^3" --emax 3 --json',
        "90eca77b9fc806a3db827d0b127fbcfcc4ddff4c0a9cadece88d2e34ad5669e1",
    ),
    (
        'strong-fedder --ring "p=5; vars=x,y,z" --ideal "x^2 + y^3 + x*y*z, y*z + x^3" '
        '--a "x, y" --t 1/3 --emax 2 --verify-witness --json',
        "1a3c8306ff0d1f70092939ca11812158f708eb8e2c78f3eeca48870ddd773043",
    ),
]


def test_fedder_runs_past_the_catalog_keep_their_bytes():
    from fpurity.cli import run

    for argv, digest in _FEDDER_GUARD_ROWS:
        start = time.perf_counter()
        out = run(shlex.split(argv))
        assert time.perf_counter() - start < 2, argv
        assert hashlib.sha256(repr(out).encode()).hexdigest() == digest, argv


def test_the_complete_intersection_colon_is_one_packed_run(monkeypatch):
    # between packing I and unpacking the result no polynomial is built:
    # one SparsePolynomial per generator of the result, no tuple product
    ring = parse_ring("p=3; vars=x,y,z,w")
    I = ideal(["x*y - z*w", "x*z - y^2 + w^2"], ring)
    assert _height(I) == 2
    built = []
    init = SparsePolynomial.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(SparsePolynomial, "__init__", counting)
    monkeypatch.setattr(ideals, "frobenius_image", lambda *args: pytest.fail("tuple Frobenius"))
    monkeypatch.setattr(poly, "poly_mul", lambda *args: pytest.fail("tuple product"))
    for q in (3, 9, 27):
        built.clear()
        got = fedder_colon(I, q)
        assert len(built) == len(got.generators) > 2


def test_complete_intersection_exponents_past_the_cap_still_raise():
    # I^[3] of (x^(2^62) + y, y*z + x) reaches x^(3 * 2^62); the generators
    # of (x^a + y, x^a*z + y^2) fit at q = 9, the power's Frobenius factor
    # x^(4a * 3) does not
    ring = parse_ring("p=3; vars=x,y,z")
    I = Ideal(ring, [parse_poly(f"x^{2**62} + y", ring), parse_poly("y*z + x", ring)])
    assert _height(I) == 2
    with pytest.raises(ExponentOverflowError, match=rf"in \({3 * 2**62}, 0, 0\)$"):
        fedder_colon(I, 3)
    a = 10**18
    I = Ideal(ring, [parse_poly(f"x^{a} + y", ring), parse_poly(f"x^{a}*z + y^2", ring)])
    assert _height(I) == 2 and 9 * a <= poly.EXP_LIMIT < 12 * a
    with pytest.raises(ExponentOverflowError, match=rf"in \({12 * a}, 0, 6\)$"):
        fedder_colon(I, 9)


def test_a_complete_intersection_power_past_the_term_cap_exits_early():
    # P = (x^2 + y^3 + x*y*z)(y*z + x^3) has 6 terms, and no positive grading
    # leaves P^1008 out: over F_1009 its term bound passes MAX_BOX_TERMS
    from fpurity.cli import EXIT_CAP, run

    argv = 'fedder --ring "p=1009; vars=x,y,z" --ideal "x^2 + y^3 + x*y*z, y*z + x^3" --emax 1 --json'
    start = time.perf_counter()
    code, text = run(shlex.split(argv))
    assert time.perf_counter() - start < 1
    assert code == EXIT_CAP
    assert text.startswith("error: resource cap exceeded: max_box_terms (a 6-term P^1008 ")


@pytest.mark.parametrize("prime", [13, 19])
def test_a_complete_intersection_product_past_the_term_cap_exits_early(prime):
    # the same P at e = 2: P^(p-1) stays within its term bound, but the product of
    # the reduced power and Frob(P^(p-1)) would have |power| * |digit| terms,
    # past MAX_BOX_TERMS, and is never formed
    from fpurity.cli import EXIT_CAP, run

    argv = f'fedder --ring "p={prime}; vars=x,y,z" --ideal "x^2 + y^3 + x*y*z, y*z + x^3" --emax 2 --json'
    start = time.perf_counter()
    code, text = run(shlex.split(argv))
    assert time.perf_counter() - start < 1
    assert code == EXIT_CAP
    assert text.startswith("error: resource cap exceeded: max_box_terms (a product of ")


def test_fedder_power_reduction_keeps_the_generators():
    # (x^2 + y + 1, yz + x) over F_5 at q = 25: the full power has 5,625 terms
    ring = parse_ring("p=5; vars=x,y,z")
    I = ideal(["x^2 + y + 1", "y*z + x"], ring)
    assert _height(I) == 2
    power = poly_pow(I.generators[0] * I.generators[1], 24)
    unreduced = ideals._buchberger(list(bracket_power(I, 25).generators) + [power], ring)
    assert fedder_colon(I, 25).generators == tuple(unreduced)


# --- work guards ---------------------------------------------------------------------------------


def _counted_prunes(monkeypatch):
    # powers prune in poly (_minimal_power), roots in ideals
    prunes = []
    run = poly.minimal_packed
    for module in (poly, ideals):
        monkeypatch.setattr(
            module, "minimal_packed", lambda keys, guards: prunes.append(1) or run(keys, guards)
        )

    def unexpected(*args):
        raise AssertionError("a monomial result went through a checked pruning pass")

    monkeypatch.setattr(Ideal, "__init__", unexpected)
    return prunes


def test_monomial_power_and_root_prune_once(monkeypatch):
    # 14 = 0b1110: three squares and two products by a, one prune each,
    # then one prune for the root
    ring = parse_ring("p=3; vars=x,y,z")
    a = ideal(["x^2*y", "y^3", "x*z^2", "z^3"], ring)
    prunes = _counted_prunes(monkeypatch)
    power = ideal_power(a, 14)
    assert len(prunes) == 5
    root = root_power(power, 9)
    assert len(prunes) == 6
    entry = ideals.power_root(a, 14, 9)
    assert len(prunes) == 12
    monkeypatch.undo()
    assert root.generators == entry.generators == _bucketed_root(power, 9).generators


# --- chain entries against the tuple oracles ------------------------------------------------


def _monomial_base(rng, ring):
    while True:
        a = _random_monomial_ideal(rng, ring, 4)
        if 2 <= len(a.generators) <= 4 and not a.has_constant_generator():
            return a


def _chain_bases(prime):
    """(a, label) for every shape of a the chain powers."""
    rng = random.Random(f"chain:{prime}")
    for names in ("x,y", "x,y,z", "x,y,z,w"):
        ring = parse_ring(f"p={prime}; vars={names}")
        for _ in range(3):
            yield _monomial_base(rng, ring), "monomial"
    ring = parse_ring(f"p={prime}; vars=x,y,z")
    yield ideal(["x^2*y^3"], ring), "principal monomial"
    yield ideal(["x^3 - 2*y^2 + x*z"], ring), "principal"
    yield ideal(["x^2 - y^3", "z^2"], ring), "binomial and monomial"
    yield ideal(["x^2 + y*z", "y^2", "x*z - y"], ring), "three generators"


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_chain_entries_match_the_tuple_oracles(prime):
    # N below q, at q and above it, with and without p dividing N
    for a, label in _chain_bases(prime):
        for q in (prime, prime**2):
            for N in sorted({1, 2, q - 1, q, q + 1, q + prime}):
                got = ideals.power_root(a, N, q)
                want = _bucketed_root(_tuple_power(a, N), q)
                assert got.generators == want.generators, (label, a, N, q)
                assert got.is_monomial == want.is_monomial


def test_capped_and_overflowing_powers_raise_before_any_product():
    ring = parse_ring("p=3; vars=x,y,z")
    # C(318, 2) = 50403 products of degree 316
    a = ideal(["x + y", "y*z", "z^2 - x"], ring)
    message = (
        "resource cap exceeded: max_power_products (50403 degree-316 products of 3 "
        "generators exceed 50000; use a principal or monomial fast path or a smaller exponent)"
    )
    for run in (lambda: ideal_power(a, 316), lambda: ideals.power_root(a, 316, 3)):
        with pytest.raises(ResourceCapExceeded) as caught:
            run()
        assert str(caught.value) == message
    big = ideal([f"x^{2**62}", "x*y"], ring)
    for run in (lambda: ideal_power(big, 2), lambda: ideals.power_root(big, 2, 3)):
        message = rf"^exponent {2**63} of a\^2 exceeds 2\^63-1$"
        with pytest.raises(ExponentOverflowError, match=message):
            run()
    general = ideal([f"x^{2**62} + y", "x*y"], ring)
    with pytest.raises(ExponentOverflowError):
        ideal_power(general, 2)


def _walk_bases(rng, prime):
    """Seeded nonzero proper a over 2 or 3 variables with 1 to 3
    generators, exponents below 3: monomial, or with 1- and 2-term
    generators."""
    while True:
        ring = parse_ring(f"p={prime}; vars=" + ",".join("xyz"[: rng.choice((2, 3))]))
        monomial = rng.random() < 0.4
        gens = [
            ring.poly({
                tuple(rng.randrange(3) for _ in range(ring.nvars)): rng.randrange(1, prime)
                for _ in range(1 if monomial else rng.randrange(1, 3))
            })
            for _ in range(rng.randrange(1, 4))
        ]
        a = Ideal(ring, gens)
        if not a.is_zero() and not a.has_constant_generator():
            return a


def _oracle_products(a, N):
    """The products of a^N on exponent tuples: every g_1^k_1 * ... *
    g_r^k_r from ``tuple_pow``, in combinations_with_replacement order; for
    monomial a, its minimal generators in grevlex order."""
    gens = a.generators
    products = []
    for combo in itertools.combinations_with_replacement(range(len(gens)), N):
        h = a.ring.one()
        for j in sorted(set(combo)):
            h = h * tuple_pow(gens[j], combo.count(j))
        products.append(h)
    if not a.is_monomial:
        return products
    monos = sorted({next(iter(h.terms)) for h in products}, key=grevlex_key)
    minimal = [m for m in monos if not any(u != m and all(map(operator.le, u, m)) for u in monos)]
    return [a.ring.monomial(m) for m in minimal]


def _truncated(h, q):
    return h.ring.poly({m: c for m, c in h.terms.items() if max(m) < q})


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_the_product_walk_matches_the_tuple_products(prime):
    # in S the products are those of tuple_pow, in order; in the box
    # S/m^[q] they are those truncated, the vanishing ones dropped; a^N
    # escapes iff some product does, and the witness is the first escaping
    # product u in that order, each cofactor v tried inside u
    rng = random.Random(f"walk:{prime}")
    qs = (prime, prime**2) if prime < 5 else (prime,)
    for _ in range(12):
        a = _walk_bases(rng, prime)
        ring = a.ring
        cofactors = [ring.one()]
        if rng.random() < 0.5:
            cofactors = [parse_poly(f"x^{prime**2 - 1}*y", ring), parse_poly("x + y^2", ring)]
        for q in qs:
            box = ideals.ProductWalk(a, q)
            for N in sorted({1, 2, q - 1, q, q + 1, rng.randrange(1, 3 * q + 1), 3 * q} - {0}):
                want = _oracle_products(a, N)
                walk = ideals.ProductWalk(a)
                if a.is_monomial:
                    keys = list(walk.products(N))
                    assert sorted(map(walk.lay.exponents, keys)) == sorted(m.lead_monomial() for m in want)
                    got_box = {box.lay.exponents(m) for m in box.products(N)}
                    assert got_box == {m.lead_monomial() for m in want if max(m.lead_monomial()) < q}
                else:
                    got = [walk.lay.unpack(h) for h in walk.products(N)]
                    assert got == want, (a, N)
                    got_box = [box.lay.unpack(h) for h in box.products(N)]
                    assert got_box == [t for t in (_truncated(h, q) for h in want) if not t.is_zero()]
                assert box.escapes(N) == any(not _truncated(h, q).is_zero() for h in want), (a, q, N)
                first = next(
                    ((u, v) for u in want for v in cofactors if not _truncated(u * v, q).is_zero()), None
                )
                assert box.witness(N, cofactors) == first, (a, q, N)


def test_the_chain_builds_no_ideal_power_or_root(monkeypatch):
    # every entry comes from the packed kernel, not from a^N as an ideal
    def unexpected(*args):
        raise AssertionError("test_ideal formed a^N as an ideal")

    for module in (ideals, testideal):
        for name in ("ideal_power", "root_power"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unexpected)
    ring = parse_ring("p=3; vars=x,y,z")
    for texts, t in ((["x^2", "y*z"], Fraction(2, 3)), (["z^3 - 2*y^4", "x^2"], Fraction(1))):
        assert testideal.test_ideal(ideal(texts, ring), t).chain


# --- the chain's unit tail against the full chain -------------------------------------------


def _unit_tail_cases(prime):
    """(a, t) over monomial, binomial and three-generator a, graded or not,
    inside m or not, with t with and without p in its denominator, plus (x, y)
    at a t whose chain reaches (1) before its floor."""
    rng = random.Random(f"unit-tail:{prime}")
    r2 = parse_ring(f"p={prime}; vars=x,y")
    r3 = parse_ring(f"p={prime}; vars=x,y,z")
    c = lambda: rng.randrange(1, prime)
    i, j, k = (rng.randrange(2, 5) for _ in range(3))
    bases = [
        _monomial_base(rng, r2),
        _monomial_base(rng, r3),
        ideal([f"x^{i} - {c()}*y^{j}"], r2),
        ideal([f"x^{i} - {c()}*y^{j}", f"z^{k}"], r3),
        ideal(["x^2 + y*z", "y^2", "x*z - y"], r3),
        ideal([f"x^2 + y^3 + {c()}*x*y"], r2),
        ideal(["x*y + x^3*y^3", f"y^{j}"], r2),
        ideal(["y + 1", "y"], r2),
        ideal([f"x^2*y + {c()}", "x^3"], r2),
        ideal(["x^3*y^3 + 1", "x*y^2"], r2),
    ]
    plain = [t for t in map(Fraction, ("1/2", "2/3", "1", "3/2", "4/3")) if t.denominator % prime]
    divided = [Fraction(1, prime), Fraction(prime + 1, prime), Fraction(prime + 1, prime**2)]
    for a in bases:
        choices = (plain, divided)
        if len(a.generators) == 3:
            # keep the full chain of three generators short: at p = 5 it trips
            # the product cap past a floor of 1 and takes seconds above t = 1
            choices = [
                [t for t in ts if t <= 1 and denominator_order(t, prime) in (1, None)]
                for ts in choices
            ]
        for ts in choices:
            yield a, rng.choice(ts)
    early = {2: Fraction(1, 3), 3: Fraction(1, 4), 5: Fraction(1, 3)}[prime]
    yield ideal(["x", "y"], r2), early


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_chains_with_a_unit_tail_match_the_full_chain(prime):
    kinds = set()
    for a, t in _unit_tail_cases(prime):
        got, want = testideal.test_ideal(a, t), _full_chain(a, t)
        assert (got.stabilized_at, got.e_floor) == (want.stabilized_at, want.e_floor), (a, t)
        assert len(got.chain) == len(want.chain), (a, t)
        pairs = [(got.tau, want.tau)] + [(g, w) for (_, g), (_, w) in zip(got.chain, want.chain)]
        for have, oracle in pairs:
            if oracle.is_unit():
                assert have.generators == (a.ring.one(),), (a, t)
            else:
                assert have.generators == oracle.generators, (a, t)
        units = [e for e, entry in want.chain if entry.is_unit()]
        if units:
            early = units[0] < want.e_floor
            kinds.add("unit before the floor" if early else "unit from the floor on")
            if any(not want.chain[e - 1][1].has_constant_generator() for e in units):
                kinds.add("unit without a constant generator")
        else:
            kinds.add("no unit")
    assert kinds >= {
        "no unit",
        "unit before the floor",
        "unit from the floor on",
        "unit without a constant generator",
    }


def test_the_chain_stops_powering_after_its_first_unit_entry(monkeypatch):
    calls = []
    run = testideal.power_root
    monkeypatch.setattr(testideal, "power_root", lambda a, N, q: calls.append(q) or run(a, N, q))
    for prime in (2, 3, 5):
        for a, t in _unit_tail_cases(prime):
            calls.clear()
            result = testideal.test_ideal(a, t)
            units = [e for e, entry in result.chain if entry.is_unit()]
            computed = units[0] if units else len(result.chain)
            assert calls == [prime**e for e in range(1, computed + 1)], (a, t)


# --- the packed Groebner kernel against the tuple kernel ------------------------------------


def _elim_buchberger(gens, ring, graded=None):
    """``ideals._buchberger``'s run for polynomials in (t, x_1, ..., x_n),
    on the elimination layout of F_p[x_1, ..., x_n]: packed by that
    layout's key, interreduced on one step counter as ``_buchberger`` does,
    unpacked into the ring by its exponent tuples."""
    base = PolyRing(ring.field, ring.variables[1:])

    def run(w):
        lay, counter = ideals._layout(base, w, elim=True), ideals._StepCounter()
        packed = [{lay.key(m): c for m, c in g.terms.items()} for g in gens]
        basis = ideals._packed_buchberger(packed, lay, graded, counter)
        if basis == [{0: 1}]:
            return [ring.one()]
        return [
            SparsePolynomial(
                ring, {lay.exponents(m): c for m, c in h.items()}, lay.exponents(next(iter(h)))
            )
            for h in ideals._interreduce(basis, lay, counter)
        ]

    return ideals._widening(run, ideals._top_degree(gens))


def _packed_run(gens, ring, graded=None, elim=False):
    """ideals._buchberger's basis and the step count of its final run; with
    elim, the run under the elimination order of the first variable."""
    counters = []
    real = ideals._StepCounter
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "_StepCounter", lambda: counters.append(real()) or counters[-1])
        if elim:
            basis = _elim_buchberger(list(gens), ring, graded)
        else:
            basis = ideals._buchberger(list(gens), ring, graded)
    return basis, counters[-1].steps


def _assert_same_run(gens, ring, graded=None, elim=False):
    got, steps = _packed_run(gens, ring, graded, elim)
    counter = TupleSteps()
    want = tuple_buchberger(list(gens), ring, graded, counter, elim_key if elim else grevlex_key)
    assert [list(g.terms.items()) for g in got] == [list(g.terms.items()) for g in want]
    assert [g._lead for g in got] == [g._lead for g in want]
    assert steps == counter.steps
    return got


def test_packed_buchberger_matches_the_tuple_kernel_on_drawn_inputs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def case(draw):
        prime = draw(st.sampled_from([2, 3, 5]))
        elim = draw(st.sampled_from([False, True]))
        ring = parse_ring(f"p={prime}; vars=t,x,y")
        coeff = st.integers(1, prime - 1)
        count = draw(st.integers(1, 4))
        if not draw(st.booleans()):
            term = st.tuples(st.tuples(*[st.integers(0, 3)] * 3), coeff)
            gens = [ring.poly(dict(draw(st.lists(term, min_size=1, max_size=4)))) for _ in range(count)]
            return ring, gens, None, elim
        # graded: W-homogeneous inputs, weight 0 on t only under elimination
        weights = draw(st.sampled_from([(1, 1, 1), (1, 2, 3), (2, 1, 1)]))
        if elim:
            weights = (0,) + weights[1:]
        gens = []
        for _ in range(count):
            d = draw(st.integers(1, 6))
            monos = [
                m for m in itertools.product(range(4), repeat=3) if _w_degree(m, weights) == d
            ]
            if monos:
                chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
                gens.append(ring.poly({m: draw(coeff) for m in chosen}))
        return ring, gens, (weights, draw(st.integers(0, 10))), elim

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
    @hypothesis.given(case())
    def check(drawn):
        ring, gens, graded, elim = drawn
        try:
            tuple_buchberger(list(gens), ring, graded, key=elim_key if elim else grevlex_key)
        except ideals.ResourceCapExceeded:
            # an elimination run that blows up trips the cap in both kernels
            with pytest.raises(ideals.ResourceCapExceeded, match="max_reduction_steps"):
                _packed_run(gens, ring, graded, elim)
            return
        _assert_same_run(gens, ring, graded, elim)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "MAX_REDUCTION_STEPS", 1000)
        check()


# --- field widths and the exponent cap ------------------------------------------------------


def _widths(monkeypatch):
    """The field widths of every layout the engine builds from here on."""
    widths = []
    real = ideals._layout
    monkeypatch.setattr(
        ideals, "_layout", lambda ring, w, elim=False: widths.append(w) or real(ring, w, elim)
    )
    return widths


def test_a_run_past_the_first_width_reruns_wider(monkeypatch):
    # reducing t^10 - y by t - x^100 under elimination forms x^1000, past
    # the fields sized for the inputs' top degree 100
    ring = parse_ring("p=3; vars=t,x,y")
    gens = [parse_poly(text, ring) for text in ("t - x^100", "t^10 - y")]
    widths = _widths(monkeypatch)
    basis = _assert_same_run(gens, ring, elim=True)
    assert widths[0] < widths[-1] and 2 ** (widths[0] - 1) <= 1000 < 2 ** (widths[-1] - 1)
    assert any(g.terms.get((0, 1000, 0)) for g in basis)


def test_bracket_powers_at_a_large_q_match_the_tuple_kernel(monkeypatch):
    # a basis cached at I's width is packed again wider for a member of
    # degree 3 * 3^10, and I^[3^10] plus a cubic runs at its own width
    ring = parse_ring("p=3; vars=x,y,z")
    I = ideal(["x^2 - y*z", "x*y + z^2"], ring)
    q = 3**10
    widths = _widths(monkeypatch)
    assert ideals.membership(parse_poly("x^3 - x*y*z", ring), I)
    member = frobenius_image(parse_poly("(x^2 - y*z)*(x + y)", ring), q)
    assert ideals.membership(member, I)
    assert max(widths) > min(widths)
    Iq = bracket_power(I, q)
    _assert_same_run(list(Iq.generators) + [parse_poly("x*y*z", ring)], ring)
    for g in (member, Iq.generators[0] * parse_poly("x + y", ring), ring.monomial((q, q, 1))):
        assert ideals.membership(g, Iq) is tuple_membership(g, Iq)


def test_an_exponent_past_the_cap_still_raises():
    # x^(2^62) y^(2^62) reduced by x^(2^61) - y^(2^61) reaches y^(2^63)
    ring = parse_ring("p=3; vars=x,y")
    big = 2**61
    I = Ideal(ring, [ring.poly({(big, 0): 1, (0, big): 2})])
    g = ring.monomial((2 * big, 2 * big))
    with pytest.raises(ExponentOverflowError):
        tuple_normal_form(g, [tuple_reducer(b) for b in I.groebner()], TupleSteps())
    with pytest.raises(ExponentOverflowError):
        ideals.membership(g, I)
    # a member whose reduction stays at 2^62 is decided
    assert ideals.membership(I.generators[0] * ring.monomial((0, big)), I)


# --- the packed colon against the tuple colon -----------------------------------------------


def _form(rng, ring, weights, d, terms=3):
    """A seeded W-homogeneous polynomial of W-degree d (zero if none)."""
    monos = [
        m for m in itertools.product(range(d + 1), repeat=ring.nvars) if _w_degree(m, weights) == d
    ]
    chosen = rng.sample(monos, min(len(monos), terms))
    return ring.poly({m: rng.randrange(1, ring.p) for m in chosen})


def _colon_cases(prime):
    """Seeded (J, I, graded) for the colon: I with 1, 2 or 3 generators,
    some monomial; J monomial, principal (a multiple of some f_k, or not)
    or general; in the standard grading, a weighted one, or none."""
    ring = parse_ring(f"p={prime}; vars=x,y,z")
    rng = random.Random(f"colon:{prime}")
    for r, kind, weights, _ in itertools.product(
        (1, 2, 3), ("monomial", "principal", "general"), ((1, 1, 1), (1, 2, 3)), range(2)
    ):
        def form(d, terms=3):
            while True:
                f = _form(rng, ring, weights, d, terms)
                if not f.is_zero():
                    return f

        monomial_I = kind == "monomial" and rng.random() < 0.5
        I = Ideal(ring, [form(rng.randint(1, 3), 1 if monomial_I else 3) for _ in range(r)])
        if kind == "monomial":
            J = Ideal(ring, [form(rng.randint(2, 5), 1) for _ in range(rng.randint(1, 3))])
        elif kind == "principal":
            factor = I.generators[0] if rng.random() < 0.7 else ring.one()
            J = Ideal(ring, [factor * form(rng.randint(1, 3))])
        else:
            J = Ideal(ring, [form(rng.randint(2, 4)) for _ in range(rng.randint(2, 3))])
        degrees = [_w_degree(g.lead_monomial(), weights) for g in J.generators]
        yield J, I, None
        yield J, I, (weights, rng.randint(min(degrees) - 2, max(degrees) + 1))


def _assert_same_colon(J, I, graded=None):
    got, want = colon(J, I, graded), tuple_colon(J, I, graded)
    assert [list(g.terms.items()) for g in got.generators] == [
        list(g.terms.items()) for g in want.generators
    ], (J, I, graded)
    assert got.is_monomial == want.is_monomial
    return got


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_colon_matches_the_tuple_colon_on_seeded_inputs(prime, monkeypatch):
    # term for term, over every route: lcms, (g) against a divisor, and
    # elimination, with and without a degree bound
    routes = set()
    calls = []
    for name in ("_eliminated", "_try_exact_div"):
        real = getattr(ideals, name)
        monkeypatch.setattr(
            ideals, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    for J, I, graded in _colon_cases(prime):
        calls.clear()
        _assert_same_colon(J, I, graded)
        routes.add(
            "elimination" if "_eliminated" in calls
            else "division" if "_try_exact_div" in calls else "lcms or bound"
        )
    assert routes == {"elimination", "division", "lcms or bound"}


def _elimination_cases(prime):
    """Seeded (ring, J, K, graded) for ``_eliminated``: 1 to 3 generators a
    side in 2 or 3 variables, arbitrary or W-homogeneous with a bound."""
    rng = random.Random(f"elimination:{prime}")
    for case in range(16):
        ring = parse_ring(f"p={prime}; vars={'x,y' if case % 2 else 'x,y,z'}")
        n = ring.nvars
        weights = None if case % 4 < 2 else rng.choice([(1,) * n, (1, 2, 3)[:n], (2, 1, 1)[:n]])

        def draw():
            if weights is None:
                monos = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randint(1, 3))]
            else:
                d = rng.randint(1, 5)
                monos = [m for m in itertools.product(range(6), repeat=n) if _w_degree(m, weights) == d]
                monos = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
            return ring.poly({m: rng.randrange(1, prime) for m in monos})

        J = [g for g in (draw() for _ in range(rng.randint(1, 3))) if not g.is_zero()]
        K = [g for g in (draw() for _ in range(rng.randint(1, 3))) if not g.is_zero()]
        if J and K:
            yield ring, J, K, weights and (weights, rng.randint(2, 12))


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_eliminated_interreduces_exactly_the_t_free_part(prime):
    # the elimination basis as built, then interreduced in full, keeps the
    # same t-free elements as interreducing only them: no lead with t
    # divides a t-free term, and the t-free elements already form a
    # Groebner basis of J meet K
    cases = 0
    for ring, J, K, graded in _elimination_cases(prime):

        def run(w):
            lay = ideals._layout(ring, w)
            packed = [[lay.pack(g) for g in side] for side in (J, K)]
            elay = ideals._layout(ring, w, elim=True)
            t = 1 << elay.shifts[0]
            gens = [{m + t: c for m, c in g.items()} for g in packed[0]]
            gens += [{**h, **{m + t: prime - c for m, c in h.items()}} for h in packed[1]]
            egraded = graded and ((0, *graded[0]), graded[1])
            counter = ideals._StepCounter()
            built = ideals._packed_buchberger(gens, elay, egraded, counter)
            full = ideals._interreduce(built, elay, counter)
            want = [h for h in full if next(iter(h)) < t]
            got = ideals._eliminated(*packed, lay, graded)
            return [list(h.items()) for h in got], [list(h.items()) for h in want]

        got, want = ideals._widening(run, ideals._top_degree(J + K) + 1)
        assert got == want, (J, K, graded)
        cases += 1
    assert cases >= 12


def test_colon_matches_the_tuple_colon_on_zero_and_unit_ideals():
    for prime in (2, 3, 5):
        ring = parse_ring(f"p={prime}; vars=x,y,z")
        I = ideal(["x*y - z^2", "x + y"], ring)
        J = ideal(["x^3", "y^2*z - x*z^2"], ring)
        zero, unit = Ideal.zero(ring), Ideal.unit(ring)
        for J_, I_, want in [
            (zero, I, "zero"), (J, zero, "unit"), (unit, I, "unit"), (J, unit, J),
            (J, ideal(["x", "1"], ring), J), (zero, ideal(["x"], ring), "zero"),
            # the unit ideal without a constant generator, and f_1 inside J,
            # which makes R_1 the unit ideal mid-loop
            (ideal(["x", "x + 1"], ring), I, "unit"), (J, ideal(["x^3", "y - z"], ring), None),
            (ideal(["x^2 - y", "x*y"], ring), ideal(["x^2 - y", "z"], ring), None),
        ]:
            got = _assert_same_colon(J_, I_)
            if want == "zero":
                assert got.is_zero()
            elif want == "unit":
                assert got.has_constant_generator()
            elif want is not None:
                assert got.generators == want.generators
        cases = [(zero, I), (J, zero), (unit, I), (J, unit), (J, ideal(["x^3", "y - z"], ring))]
        for J_, I_ in cases:
            for bound in range(5):
                _assert_same_colon(J_, I_, ((1, 1, 1), bound))


def test_a_colon_past_the_first_width_reruns_the_whole_loop_wider(monkeypatch):
    # J = (x^14, ..., v^14) : (x, y, z, w, f) has the socle monomial
    # (xyzwv)^13 of degree 65; the fields sized for degree 15 hold 63, so
    # the fifth step overflows after four steps at the first width
    ring = parse_ring("p=3; vars=x,y,z,w,v")
    J = ideal(["x^14", "y^14", "z^14", "w^14", "v^14"], ring)
    widths = []
    real = ideals._colon_step

    def step(J, R, f, lay, graded):
        widths.append(lay.w)
        return real(J, R, f, lay, graded)

    monkeypatch.setattr(ideals, "_colon_step", step)
    for last in ("v", "v + x"):
        widths.clear()
        got = _assert_same_colon(J, ideal(["x", "y", "z", "w", last], ring))
        assert widths == [7] * 5 + [14] * 5
        assert ring.monomial((13,) * 5) in got.generators


# --- the Fedder colons of the quotients benchmark ---------------------------------------------


def _bench_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fedder_colons_of_the_quotients_pass_match_the_tuple_kernel(monkeypatch):
    # every (I, q, graded) a seed-23 quotients pass asks fedder_colon for,
    # recomputed with the tuple kernel behind the engine's packed entry
    # points, gives the same generators term for term
    from fpurity import purity
    from fpurity.cli import EXIT_OK, run

    workloads = _bench_workloads()
    calls = {}
    real = purity.fedder_colon

    def recording(I, q, graded=None):
        got = real(I, q, graded)
        calls.setdefault((I.ring, tuple(I.generators), q, graded), got)
        return got

    monkeypatch.setattr(purity, "fedder_colon", recording)
    for argv in itertools.islice(workloads.stream("quotients", 23), workloads.pass_length("quotients")):
        assert run(argv + ["--json"])[0] == EXIT_OK, argv
    monkeypatch.undo()
    assert len({key[1] for key in calls}) >= 5 and any(key[3] is not None for key in calls)
    for name, stand_in in TUPLE_KERNEL.items():
        monkeypatch.setattr(ideals, name, stand_in)
    monkeypatch.setattr(ideals, "_normal_form", lambda *args: pytest.fail("packed reduction"))
    for (ring, gens, q, graded), got in calls.items():
        want = ideals.fedder_colon(Ideal(ring, gens), q, graded)
        assert [list(g.terms.items()) for g in got.generators] == [
            list(g.terms.items()) for g in want.generators
        ], (gens, q, graded)


# --- the text parser ----------------------------------------------------------------------


class _Scanner:
    """The parser before the one-pass token list: a character scanner and
    recursive descent, every sum and product formed as a polynomial."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def try_consume(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def integer(self):
        self.skip_ws()
        m = re.compile(r"[0-9]+").match(self.text, self.pos)
        if not m:
            raise ParseError("expected an integer", self.pos)
        value = int(m.group())
        if value >= 2**63:
            raise ParseError("integer literal exceeds 64 bits", self.pos)
        self.pos = m.end()
        return value

    def ident(self):
        self.skip_ws()
        m = re.compile(r"[a-z][a-zA-Z0-9_]*").match(self.text, self.pos)
        if not m:
            raise ParseError("expected an identifier", self.pos)
        self.pos = m.end()
        return m.group()

    def require_end(self):
        self.skip_ws()
        if self.pos < len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)


def _scanner_ring(text):
    sc = _Scanner(text)
    sc.skip_ws()
    key_pos = sc.pos
    if sc.ident() != "p":
        raise ParseError("expected 'p='", key_pos)
    sc.expect("=")
    p_pos = sc.pos
    p = sc.integer()
    if not is_prime(p):
        raise ParseError(f"{p} is not prime", p_pos)
    sc.expect(";")
    key_pos = sc.pos
    if sc.ident() != "vars":
        raise ParseError("expected 'vars='", key_pos)
    sc.expect("=")
    names = []
    while True:
        name_pos = sc.pos
        name = sc.ident()
        if name in names:
            raise ParseError(f"duplicate variable {name!r}", name_pos)
        names.append(name)
        if not sc.try_consume(","):
            break
    sc.require_end()
    return PolyRing(PrimeField(p), tuple(names))


def _scan_sum(sc, ring):
    negate = sc.try_consume("-")
    acc = _scan_term(sc, ring)
    if negate:
        acc = -acc
    while True:
        if sc.try_consume("+"):
            acc = acc + _scan_term(sc, ring)
        elif sc.try_consume("-"):
            acc = acc - _scan_term(sc, ring)
        else:
            return acc


def _scan_term(sc, ring):
    acc = _scan_factor(sc, ring)
    while sc.try_consume("*"):
        acc = acc * _scan_factor(sc, ring)
    return acc


def _scan_factor(sc, ring):
    ch = sc.peek()
    if ch == "(":
        sc.expect("(")
        base = _scan_sum(sc, ring)
        sc.expect(")")
    elif ch.isdigit():
        base = ring.const(sc.integer())
    else:
        name_pos = sc.pos
        name = sc.ident()
        if name not in ring.variables:
            raise ParseError(f"unknown variable {name!r}", name_pos)
        base = ring.var(name)
    if sc.try_consume("^"):
        exp_pos = sc.pos
        if sc.peek() == "-":
            raise ParseError("negative exponent", exp_pos)
        return base ** sc.integer()
    return base


def _scanner_poly_list(text, ring):
    sc = _Scanner(text)
    polys = [_scan_sum(sc, ring)]
    while sc.try_consume(","):
        polys.append(_scan_sum(sc, ring))
    sc.require_end()
    return polys


def _scanner_poly(text, ring):
    sc = _Scanner(text)
    poly = _scan_sum(sc, ring)
    sc.require_end()
    return poly


def _scanner_rational(text):
    sc = _Scanner(text)
    sc.skip_ws()
    start = sc.pos
    negate = sc.try_consume("-")
    num = sc.integer()
    den = 1
    if sc.try_consume("/"):
        den_pos = sc.pos
        den = sc.integer()
        if den == 0:
            raise ParseError("zero denominator", den_pos)
    sc.require_end()
    value = Fraction(-num if negate else num, den)
    if value <= 0:
        raise ParseError("exponent must be positive", start)
    return value


def _outcome(parse, *args):
    """What parse returns, or the type, message and position it raises."""
    try:
        value = parse(*args)
    except (ParseError, ExponentOverflowError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    if isinstance(value, list):
        return [list(f.terms.items()) for f in value]
    if isinstance(value, SparsePolynomial):
        return list(value.terms.items())
    return value


_SPACES = ["", "", "", " ", "  ", "\t", "\n", " "]


def _valid_poly_text(rng, names, depth=0):
    """A sum of terms: leading minus, integer powers, coefficients at and
    past p, terms that cancel, nested and powered parentheses, whitespace."""

    def ws():
        return rng.choice(_SPACES)

    def factor():
        roll = rng.random()
        if roll < 0.2:
            base = str(rng.choice([0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 49, 2**63 - 1]))
        elif roll < 0.3 and depth < 2:
            base = "(" + ws() + _valid_poly_text(rng, names, depth + 1) + ws() + ")"
        else:
            base = rng.choice(names)
        if rng.random() < 0.4:
            top = 3 if base.startswith("(") else rng.choice([5, 12, 2**62])
            base += ws() + "^" + ws() + str(rng.randrange(top + 1))
        return base

    terms = []
    for _ in range(rng.randint(1, 4)):
        term = (ws() + "*" + ws()).join(factor() for _ in range(rng.randint(1, 3)))
        terms.append(term)
        if rng.random() < 0.2:
            terms.append(term)  # the same term again, so that it cancels or doubles
    text = terms[0]
    for term in terms[1:]:
        text += ws() + rng.choice("+-") + ws() + term
    return ("-" + ws() if rng.random() < 0.3 else "") + ws() + text + ws()


_BREAKERS = list("()^*+-,/;=xyzXA_0129² \t\u00a0\u2003") + ["w", "xy", "^-", "**", "()", "9" * 20]


def _malformed(rng, text):
    """text with one to three characters or fragments inserted, deleted or replaced."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        roll = rng.random()
        if roll < 0.4 or not text:
            text = text[:i] + rng.choice(_BREAKERS) + text[i:]
        elif roll < 0.7:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(_BREAKERS) + text[i + 1:]
    return text


_PARSER_CASES = [
    "", " ", "-", "+x", "x +", "x*", "*x", "x^", "x^-1", "x^ -1", "x ^ - 1", "x^y", "x^2^3",
    "(x", "x)", "()", "(x+y", "((x)", "x y", "xy", "w", "X", "_x", "2x", "x²", "x^²", "²",
    "x,", ",x", "x,,y", "x/y", "1/0", str(2**63), f"x^{2**63}", f"x^{2**63 - 1}*x",
    f"x^{2**62}*x^{2**62}", f"0*x^{2**62}*x^{2**62}", f"x^{2**62}*0*x^{2**62}",
    f"(x + y)*x^{2**63 - 1}*y", f"y*x^{2**63 - 1}*(x + 1)", f"3*x^{2**62}*x^{2**62}",
    "0^0", "0^0*x", "(0)^0", "3^0 + 3", "-(x - y)^3*(x + y)", " \t\n", "x + y",
]
_RING_CASES = [
    "p=3; vars=x,y", " p = 5 ; vars = a , b ", "p=4; vars=x", "p= 4; vars=x", "q=3; vars=x",
    "p3; vars=x", "p=3 vars=x", "p=3; var=x", "p=3;  vars=x", "p=3; vars=x,x", "p=3; vars=x, x",
    "p=3; vars=", "p=3; vars=x,", "p=3; vars=x y", "p=; vars=x", f"p={2**63}; vars=x", "p=1; vars=x",
    "p=2; vars=X", "p=2; vars=1x", "p=2; vars=x;", "", "p", "p=", "p=3", "p=3;",
]
_RATIONAL_CASES = [
    "", "1", "5/6", "4/6", " 7 ", "0", "-0", "-1/2", "- 1/2", "1/0", "1 / 0", "0/0", "1/", "/2",
    "1/2/3", "x", "1.5", "+1", "--1", str(2**63), f"1/{2**63}", f"{2**63 - 1}/{2**63 - 1}", "²",
]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_one_pass_parser_matches_the_scanner(seed):
    # equal polynomials with their terms in the same order, or the same
    # error type, message and position, on valid and malformed text
    rng = random.Random(seed)
    for prime, names in [(2, ["x", "y"]), (3, ["x", "y", "z"]), (7, ["x", "y1", "z_2"])]:
        ring = parse_ring(f"p={prime}; vars={','.join(names)}")
        texts = [_valid_poly_text(rng, names) for _ in range(150)]
        texts += [_malformed(rng, t) for t in texts[:150]]
        lists = [", ".join(rng.sample(texts, 3)) for _ in range(50)]
        if seed == 1:
            texts += _PARSER_CASES
        for text in texts:
            assert _outcome(parse_poly, text, ring) == _outcome(_scanner_poly, text, ring), text
        for text in texts + lists + [_malformed(rng, t) for t in lists]:
            assert _outcome(parse_poly_list, text, ring) == _outcome(
                _scanner_poly_list, text, ring
            ), text
    rings = _RING_CASES + [_malformed(rng, t) for t in _RING_CASES for _ in range(4)]
    for text in rings:
        assert _outcome(parse_ring, text) == _outcome(_scanner_ring, text), text
    rationals = _RATIONAL_CASES + [_malformed(rng, t) for t in _RATIONAL_CASES for _ in range(4)]
    for text in rationals:
        assert _outcome(parse_rational, text) == _outcome(_scanner_rational, text), text


def test_a_sum_of_plain_terms_is_parsed_without_polynomial_arithmetic(monkeypatch):
    ring = parse_ring("p=5; vars=x,y,z")
    rng = random.Random(4)
    text = " + ".join(
        f"{rng.randrange(1, 5)}*x^{rng.randrange(60)}*y^{rng.randrange(60)}*z^{rng.randrange(60)}"
        for _ in range(2000)
    )
    want = _scanner_poly(text, ring)

    def unexpected(*args):
        pytest.fail("polynomial arithmetic in the parser")

    monkeypatch.setattr(SparsePolynomial, "__add__", unexpected)
    monkeypatch.setattr(SparsePolynomial, "__sub__", unexpected)
    monkeypatch.setattr(SparsePolynomial, "__mul__", unexpected)
    monkeypatch.setattr(parser, "poly_mul", unexpected)
    assert parse_poly(text, ring) == want
    assert parse_poly_list(f"{text}, {text}", ring) == [want, want]


def test_large_powers_of_sums_are_refused_before_they_are_formed():
    ring = parse_ring("p=2; vars=x,y,z")
    # over F_2, (x + y + z)^(2^k - 1) has 3^k terms
    assert len(parse_poly(f"(x + y + z)^{2**8 - 1}", ring).terms) == 3**8
    for text in [f"(x + y + z)^{2**20 - 1}", f"(x + y)*(x + y + z)^{2**8 - 1}*(x + z)^{2**8 - 1}"]:
        with pytest.raises(ResourceCapExceeded, match="max_parsed_terms"):
            parse_poly(text, ring)


def test_a_dense_power_past_the_digit_bound_is_parsed():
    # over F_1009 the one digit 30 bounds (1 + ... + x^9)^30 by C(39, 9) > 2 * 10^8
    # terms, the dense bound by its 271 monomials
    ring = parse_ring("p=1009; vars=x,y")
    base = " + ".join(f"x^{i}" for i in range(10))
    got = parse_poly(f"({base})^30", ring)
    assert got == tuple_pow(parse_poly(base, ring), 30) and len(got.terms) == 271


def test_first_powers_ask_no_term_bound(monkeypatch):
    # a factor to the first power is the factor itself: nothing to bound
    ring = parse_ring("p=3; vars=x,y,z")
    calls = []
    bound = parser.power_term_bound
    monkeypatch.setattr(parser, "power_term_bound", lambda *args: calls.append(args) or bound(*args))
    got = parse_poly("(x + y)*(x + z)^1 + ((2*y*z))^1 - (x^2)", ring)
    assert got == parse_poly("x*y + x*z", ring)  # 3*y*z = 0 over F_3
    assert calls == []
    parse_poly("(x + y)^2", ring)
    assert calls == [(2, 1, 2, 2, 3)]
