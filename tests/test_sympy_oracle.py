"""Differential tests of the Groebner engine against sympy over GF(p).

sympy is an optional oracle, not a dependency: the module is skipped when
it is missing. Reduced Groebner bases are canonical, so the engine's basis
of an ideal, an intersection or a colon must equal sympy's reduced grevlex
basis of the same ideal, computed independently. Intersections on the sympy
side come from elimination under lex with t first, and colons from
J : I = intersection over f in I of (J meet (f)) / f, each quotient by
sympy's own division.

``fedder_colon`` is checked against the engine's own elimination colon,
which the tests above tie to sympy, and against sympy directly on the
benchmark shapes.
"""

from __future__ import annotations

import random

import pytest

sympy = pytest.importorskip("sympy")

from fpurity import (  # noqa: E402
    Ideal,
    bracket_power,
    colon,
    fedder_colon,
    intersect,
    parse_poly_list,
    parse_ring,
)
from fpurity.ideals import _height  # noqa: E402

def to_sympy(f, gens):
    return sympy.Poly.from_dict(dict(f.terms), *gens, modulus=f.ring.p).as_expr()


def monic_terms(poly_dict, p):
    """A polynomial as a frozenset of (monomial, coefficient) terms, made
    monic by its leading coefficient under grevlex."""
    terms = {m: c % p for m, c in poly_dict.items() if c % p}
    lead = max(terms, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))
    inv = pow(terms[lead], -1, p)
    return frozenset((m, c * inv % p) for m, c in terms.items())


def engine_basis(I):
    return {monic_terms(g.terms, I.ring.p) for g in I.groebner()}


def sympy_basis(exprs, gens, p):
    G = sympy.groebner(exprs, *gens, modulus=p, order="grevlex")
    return {monic_terms(g.as_dict(), p) for g in G.polys}


def sympy_intersect(A, B, gens, p):
    t = sympy.Symbol("t_elim")
    G = sympy.groebner(
        [t * a for a in A] + [(1 - t) * b for b in B], t, *gens, modulus=p, order="lex"
    )
    return [g for g in G.exprs if not g.has(t)]


def sympy_colon(J, I, gens, p):
    result = None
    for f in I:
        meet = sympy_intersect(J, [f], gens, p)
        part = []
        for g in meet:
            (quotient,), remainder = sympy.reduced(g, [f], *gens, modulus=p, order="grevlex")
            assert remainder == 0
            part.append(quotient)
        result = part if result is None else sympy_intersect(result, part, gens, p)
    return result


def ideal_of(ring, text):
    return Ideal(ring, parse_poly_list(text, ring))


def random_ideal(rng, ring, ngens, nterms, max_exp):
    """ngens generators of up to nterms terms, exponents up to max_exp."""
    gens = []
    for _ in range(ngens):
        terms = {
            tuple(rng.randint(0, max_exp) for _ in range(ring.nvars)): rng.randrange(1, ring.p)
            for _ in range(nterms)
        }
        gens.append(ring.poly(terms))
    return Ideal(ring, gens)


def ring_and_gens(p, n):
    names = "xyzw"[:n]
    ring = parse_ring(f"p={p}; vars={','.join(names)}")
    return ring, sympy.symbols(" ".join(names))


CASES = [(p, n) for p in (2, 3, 5, 7) for n in (3, 4)]
# exponent bound per variable count; keeps sympy's side of the file fast
MAX_EXP = {3: 2, 4: 1}


@pytest.mark.parametrize("p, n", CASES)
def test_random_groebner_bases_match_sympy(p, n):
    ring, gens = ring_and_gens(p, n)
    rng = random.Random(f"gb:{p}:{n}")
    for ngens in (2, 3):
        I = random_ideal(rng, ring, ngens, 3, MAX_EXP[n])
        expected = sympy_basis([to_sympy(g, gens) for g in I.generators], gens, p)
        assert engine_basis(I) == expected


@pytest.mark.parametrize("p, n", CASES)
def test_random_intersections_match_sympy(p, n):
    ring, gens = ring_and_gens(p, n)
    rng = random.Random(f"meet:{p}:{n}")
    J, K = random_ideal(rng, ring, 2, 2, 1), random_ideal(rng, ring, 2, 2, 1)
    meet = sympy_intersect(
        [to_sympy(g, gens) for g in J.generators], [to_sympy(g, gens) for g in K.generators],
        gens, p,
    )
    assert engine_basis(intersect(J, K)) == sympy_basis(meet, gens, p)


@pytest.mark.parametrize("p, n", CASES)
def test_random_colons_match_sympy(p, n):
    ring, gens = ring_and_gens(p, n)
    rng = random.Random(f"colon:{p}:{n}")
    J, I = random_ideal(rng, ring, 2, 2, 1), random_ideal(rng, ring, 2, 2, 1)
    quotient = sympy_colon(
        [to_sympy(g, gens) for g in J.generators], [to_sympy(g, gens) for g in I.generators],
        gens, p,
    )
    assert engine_basis(colon(J, I)) == sympy_basis(quotient, gens, p)


@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("p, n", CASES)
def test_random_colons_by_more_generators_match_sympy(p, n, r):
    # the sequential colon folds one generator of I in per elimination;
    # sympy intersects the r single colons independently. J = I*K + (g)
    # keeps the colon from collapsing to J: it contains K
    ring, gens = ring_and_gens(p, n)
    rng = random.Random(f"colon:{p}:{n}:{r}")
    I, K = random_ideal(rng, ring, r, 2, 1), random_ideal(rng, ring, 1, 2, 1)
    J = I.times(K).plus(random_ideal(rng, ring, 1, 2, 1))
    quotient = sympy_colon(
        [to_sympy(g, gens) for g in J.generators], [to_sympy(g, gens) for g in I.generators],
        gens, p,
    )
    assert engine_basis(colon(J, I)) == sympy_basis(quotient, gens, p)


# Defining ideals of the shapes the Fedder criteria run on in the benchmark,
# with the colon I^[p] : I those criteria compute.
SHAPES = [
    ("herzog", 2, 3, "x*z - y^2, x^3 - y*z, x^2*y - z^2"),
    ("twisted-cubic", 3, 4, "x*z - y^2, x*w - y*z, y*w - z^2"),
    ("quadric-ci", 3, 4, "x*y - z*w, x*z - y*w"),
]


@pytest.mark.parametrize("name, p, n, text", SHAPES, ids=[s[0] for s in SHAPES])
def test_benchmark_shapes_match_sympy(name, p, n, text):
    ring, gens = ring_and_gens(p, n)
    I = ideal_of(ring, text)
    I_exprs = [to_sympy(g, gens) for g in I.generators]
    assert engine_basis(I) == sympy_basis(I_exprs, gens, p)
    Iq = bracket_power(I, p)
    quotient = sympy_colon([to_sympy(g, gens) for g in Iq.generators], I_exprs, gens, p)
    assert engine_basis(colon(Iq, I)) == sympy_basis(quotient, gens, p)
    assert engine_basis(fedder_colon(I, p)) == sympy_basis(quotient, gens, p)


# --- fedder_colon against the elimination colon ------------------------------


def random_quadric(rng, ring):
    terms = {}
    while len(terms) < 2:
        m = [0] * ring.nvars
        for _ in range(2):
            m[rng.randrange(ring.nvars)] += 1
        terms[tuple(m)] = rng.randrange(1, ring.p)
    return ring.poly(terms)


def seeded_complete_intersection(p, n):
    """The first seeded pair of binomial quadrics whose ideal has height 2."""
    ring, _ = ring_and_gens(p, n)
    rng = random.Random(f"fedder-ci:{p}:{n}")
    while True:
        I = Ideal(ring, [random_quadric(rng, ring), random_quadric(rng, ring)])
        if len(I.generators) == 2 and not I.is_monomial and _height(I) == 2:
            return I


def assert_fedder_colon_matches(I, q):
    assert fedder_colon(I, q).generators == colon(bracket_power(I, q), I).generators


@pytest.mark.parametrize("p, n", [(p, n) for p in (2, 3, 5) for n in (3, 4)])
def test_fedder_colon_on_seeded_complete_intersections(p, n):
    I = seeded_complete_intersection(p, n)
    for q in (p, p * p):
        assert_fedder_colon_matches(I, q)


# q runs over p and p^2 up to 9: the elimination colons of these shapes at
# q = 25 take up to 5.5 s; the seeded complete intersections cover q = 25
FEDDER_SHAPES = {
    "quadric-ci": ("x,y,z,w", "x*y - z*w, x*z - y*w"),
    "scaled-quadric-ci": ("x,y,z,w", "2*x*y - z*w, x*z + 2*y*w"),
    "non-homogeneous-ci": ("x,y,z", "x^2 + y + 1, y*z + x"),
    "twisted-cubic": ("x,y,z,w", "x*z - y^2, x*w - y*z, y*w - z^2"),
    "herzog": ("x,y,z", "x*z - y^2, x^3 - y*z, x^2*y - z^2"),
    "xy-xz": ("x,y,z", "x*y, x*z"),
    "height-one-binomials": ("x,y,z", "x*y + x*z, x^2 + x*z^2"),
    "unit": ("x,y,z", "x*y + 1, x*y"),
    "principal": ("x,y,z", "x^2 + y*z"),
    "monomial": ("x,y,z", "x^2*y, y*z^3, x*z"),
}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", FEDDER_SHAPES)
def test_fedder_colon_on_fixed_ideals(name, p):
    names, text = FEDDER_SHAPES[name]
    ring = parse_ring(f"p={p}; vars={names}")
    I = ideal_of(ring, text)
    for q in (p, p * p):
        if q <= 9:
            assert_fedder_colon_matches(I, q)
