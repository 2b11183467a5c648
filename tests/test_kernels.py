"""Each fast kernel of the test-ideal chain and the Fedder colon against
the code it replaced, kept here as the oracle, plus guards on the work
those kernels leave out."""

import random

import pytest

from fpurity import (
    Ideal,
    bracket_power,
    colon,
    ideal_power,
    intersect,
    parse_poly,
    parse_ring,
    root_power,
)
from fpurity import ideals
from fpurity.ideals import _height, _minimal_monomials, fedder_colon
from fpurity.poly import SparsePolynomial, grevlex_key, minimal_packed, poly_pow


def ideal(texts, ring):
    return Ideal(ring, [parse_poly(t, ring) for t in texts])


# --- the replaced code -------------------------------------------------------------


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


def _quadratic_minimal_packed(keys, guards):
    """minimal_packed before the staircase: each key against all kept ones."""
    kept = []
    for v in sorted(keys):
        raised = v | guards
        if not any((raised - u) & guards == guards for u in kept):
            kept.append(v)
    return kept


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
            minimal = list(_minimal_monomials(monos))
            rng.shuffle(minimal)
            trusted = Ideal._from_minimal(ring, minimal)
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


@pytest.mark.parametrize("nfields", [1, 2, 3])
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
        st.integers(1, 3),
        st.integers(2, 6),
        st.lists(st.lists(st.integers(0, 31), min_size=3, max_size=3), min_size=1, max_size=30),
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
    run = ideals.poly_pow
    monkeypatch.setattr(ideals, "poly_pow", lambda f, s: exponents.append(s) or run(f, s))
    for I in _inhomogeneous_complete_intersections(prime):
        for q in qs:
            exponents.clear()
            got = fedder_colon(I, q)
            assert exponents == [prime - 1]
            assert got.generators == colon(bracket_power(I, q), I).generators, (I, q)


def test_fedder_power_reduction_keeps_the_generators():
    # (x^2 + y + 1, yz + x) over F_5 at q = 25: the full power has 5,625 terms
    ring = parse_ring("p=5; vars=x,y,z")
    I = ideal(["x^2 + y + 1", "y*z + x"], ring)
    assert _height(I) == 2
    power = poly_pow(I.generators[0] * I.generators[1], 24)
    unreduced = ideals._buchberger(list(bracket_power(I, 25).generators) + [power], ring)
    assert fedder_colon(I, 25).generators == tuple(unreduced)


# --- work guards ---------------------------------------------------------------------------------


def test_monomial_power_and_root_prune_once(monkeypatch):
    ring = parse_ring("p=3; vars=x,y,z")
    a = ideal(["x^2*y", "y^3", "x*z^2", "z^3"], ring)
    prunes = []
    run = ideals._minimal_monomials
    monkeypatch.setattr(ideals, "_minimal_monomials", lambda monos: prunes.append(1) or run(monos))

    def checked(*args):
        raise AssertionError("a monomial result went through the checked constructor")

    monkeypatch.setattr(Ideal, "__init__", checked)
    power = ideal_power(a, 14)
    assert prunes == []  # minimal_packed's passes leave it minimal
    root = root_power(power, 9)
    assert prunes == [1]
    monkeypatch.undo()
    assert root.generators == _bucketed_root(power, 9).generators
