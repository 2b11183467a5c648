"""Relations between answers that every correct engine satisfies, checked
on seeded small inputs with no outside oracle.

- nu: nu(p*q) >= p*nu(q), since the Frobenius image of an element of a^nu
  that escapes m^[q] is an element of a^(p*nu) that escapes m^[pq]; and
  nu(q) <= n(q - 1), since a^N sits in m^N, inside m^[q] past n(q - 1).
  For principal a = (f), also nu(p*q) <= p*nu(q) + p - 1, since
  f^(nu(q) + 1) lies in m^[q], so its p-th power f^(p*nu(q) + p) lies in
  m^[pq]; there each nu is the bare walk ``ProductWalk(a, q).top(-1)``,
  which no window from the level below guides.
- Symmetry: permuting the variables fixes m and m^[q], so it leaves every
  nu value and every Fedder verdict (outcome and per-e escapes) unchanged.
- Sharp Fedder: a^ceil(t(q-1)/2) contains a^ceil(t(q-1)), so a sharp escape
  at t and q is an escape at t/2 and the same q.
- Flavors: N_classic <= N_sharp <= N_strong, so at each e a strong escape
  is a sharp escape and a sharp escape a classic one; every proven verdict
  passes ``verify_witness``, which computes no colon.

Inputs: 2 or 3 variables with p in {2, 3, 5, 7}; a with 1 to 3
generators of at most 3 terms and exponents below 3 inside m, over S or
over a hypersurface S/(f) with a' = a + (f). The flavor relations
also run over S/I for I with two or three generators, drawn here: Herzog
monomial curves, 2x2 minors of 2x3 matrices of linear forms and two
quadrics, with a = (1) or a variable, p in {2, 3} and e <= 2, so that the
Fedder colon runs its eliminations. An input that hits a resource cap is
skipped, and the test asks that few are and names them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from fpurity import (
    Ideal,
    PairSpec,
    ResourceCapExceeded,
    nu_table,
    parse_poly,
    parse_ring,
    sharp_fedder,
    strong_fedder,
    verify_witness,
)
from fpurity.ideals import ProductWalk
from fpurity.purity import CLASSIC, SHARP, STRONG, _run_criterion

SHAPES = [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (5, 3), (7, 3)]  # (p, n)
HYPERSURFACES = {2: ["x^2 + y^3", "x*y"], 3: ["x*y - z^2", "x^3 + y^3 + z^3", "x^2*y + z^2"]}


def _draw_poly(rng, ring):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = [rng.randrange(3) for _ in range(ring.nvars)]
        if not any(mono):
            mono[rng.randrange(ring.nvars)] = 1  # inside m
        terms[tuple(mono)] = rng.randrange(1, ring.p)
    return ring.poly(terms)


def _draw_pairs(seed, count):
    """(ring, a, pair) triples: a nonzero a inside m over S or S/(f), and
    the pair (S/I, a'^t) with t drawn from a few small fractions."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        prime, n = rng.choice(SHAPES)
        ring = parse_ring(f"p={prime}; vars={'x,y,z'[:2 * n - 1]}")
        a = Ideal(ring, [_draw_poly(rng, ring) for _ in range(rng.randint(1, 3))])
        if a.is_zero():
            continue
        defining = Ideal.zero(ring)
        if rng.random() < 0.5:
            defining = Ideal(ring, [parse_poly(rng.choice(HYPERSURFACES[n]), ring)])
        t = rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2, 3), Fraction(2)))
        out.append((ring, a, PairSpec(ring, defining, a.plus(defining), t)))
    return out


def _permuted(ring, perm):
    """The ring with its variables in the order perm, and the map of a
    polynomial into it."""
    image = parse_ring(f"p={ring.p}; vars={','.join(ring.variables[i] for i in perm)}")

    def move(f):
        return image.poly({tuple(m[i] for i in perm): c for m, c in f.terms.items()})

    return image, move


def _permuted_pair(pair, perm):
    ring, move = _permuted(pair.ring, perm)

    def ideal(I):
        return Ideal(ring, [move(g) for g in I.generators])

    return PairSpec(ring, ideal(pair.defining), ideal(pair.a_preimage), pair.t)


def test_nu_tables_grow_by_frobenius_and_stay_below_the_pigeonhole_bound():
    skipped = checked = principal = 0
    for ring, a, _ in _draw_pairs("relations:nu", 80):
        try:
            table = nu_table(a, 3 if ring.p <= 3 else 2)
        except ResourceCapExceeded:
            skipped += 1
            continue
        checked += 1
        for row in table:
            assert 0 <= row.nu <= ring.nvars * (row.q - 1), (a, row)
        for low, high in zip(table, table[1:]):
            assert high.nu >= ring.p * low.nu, (a, low, high)
        if len(a.generators) == 1 and not a.is_monomial:
            principal += 1
            nus = [ProductWalk(a, row.q).top(-1) for row in table]
            assert nus == [row.nu for row in table], (a, table)
            for low, high in zip(nus, nus[1:]):
                assert high <= ring.p * low + ring.p - 1, (a, nus)
    assert skipped <= 2 and checked >= 78 and principal >= 10


def test_permuting_the_variables_keeps_nu_and_fedder_verdicts():
    skipped = 0
    for ring, a, pair in _draw_pairs("relations:symmetry", 28):
        perm = list(range(ring.nvars))
        random.Random(str(a)).shuffle(perm)
        if perm == sorted(perm):
            perm = perm[1:] + perm[:1]
        image, move = _permuted(ring, perm)
        moved = _permuted_pair(pair, perm)
        try:
            nus = [row.nu for row in nu_table(a, 2)]
            verdicts = [run(pair, 2) for run in (sharp_fedder, strong_fedder)]
        except ResourceCapExceeded:
            skipped += 1
            continue
        assert [row.nu for row in nu_table(Ideal(image, map(move, a.generators)), 2)] == nus
        for run, verdict in zip((sharp_fedder, strong_fedder), verdicts):
            got = run(moved, 2)
            assert (got.outcome, got.per_e, got.witness_e) == (
                verdict.outcome, verdict.per_e, verdict.witness_e
            ), (pair, perm)
            if got.proven:
                assert verify_witness(moved, got)
    assert skipped <= 2


def test_a_sharp_escape_at_t_is_one_at_half_t_and_the_same_q():
    proven = 0
    for _, _, pair in _draw_pairs("relations:sharp", 90):
        try:
            verdict = sharp_fedder(pair, 2)
        except ResourceCapExceeded:
            continue
        if not verdict.proven:
            continue
        proven += 1
        half = PairSpec(pair.ring, pair.defining, pair.a_preimage, pair.t / 2)
        again = _run_criterion(half, SHARP, [verdict.witness_e])
        assert again.proven and again.witness_e == verdict.witness_e, pair
        assert verify_witness(half, again)
        assert sharp_fedder(half, verdict.witness_e).proven
    assert proven >= 20


# --- non-principal quotients --------------------------------------------------
#
# Defining ideals with two or three generators, so that the Fedder colon
# I^[q] : I runs an elimination per generator (Herzog curves, 2x2 minors)
# or Fedder's complete-intersection power (two quadrics). N_classic <=
# N_sharp <= N_strong and a'^N shrinks as N grows, so per e a strong escape
# is a sharp one and a sharp escape a classic one.


def _minors(m):
    return [m[0][i] * m[1][j] - m[0][j] * m[1][i] for i, j in ((0, 1), (0, 2), (1, 2))]


def _units(ring):
    return [tuple(int(i == j) for i in range(ring.nvars)) for j in range(ring.nvars)]


def _linear(rng, ring):
    """A linear form of one or two terms, as in a scroll's matrix."""
    units = rng.sample(_units(ring), rng.randint(1, 2))
    return ring.poly({m: rng.randrange(1, ring.p) for m in units})


def _quadric(rng, ring):
    units = _units(ring)
    monos = [tuple(map(sum, zip(u, v))) for i, u in enumerate(units) for v in units[i:]]
    return ring.poly({m: rng.randrange(ring.p) for m in rng.sample(monos, 3)})


def _defining(rng, prime):
    """A seeded I: a Herzog curve's 2x2 minors of [[x^a1, y^b1, z^c1],
    [y^b2, z^c2, x^a2]], the minors of a 2x3 matrix of linear forms, or
    two quadrics; None when fewer than two generators survive or all are
    monomials."""
    kind = rng.choice(("herzog", "minors", "quadrics"))
    ring = parse_ring(f"p={prime}; vars={'x,y,z' if kind == 'herzog' else 'x,y,z,w'}")
    if kind == "herzog":
        x, y, z = (ring.var(v) for v in "xyz")
        a1, b1, c1, b2, c2, a2 = (rng.randint(1, 2) for _ in range(6))
        gens = _minors([[x**a1, y**b1, z**c1], [y**b2, z**c2, x**a2]])
    elif kind == "minors":
        gens = _minors([[_linear(rng, ring) for _ in range(3)] for _ in range(2)])
    else:
        gens = [_quadric(rng, ring), _quadric(rng, ring)]
    I = Ideal(ring, gens)
    if len(I.generators) < 2 or I.is_monomial:
        return None
    return kind, I


def _quotient_pairs(seed, count):
    """(kind, pair) over S/I with a = (1) or a variable, t a small fraction."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        drawn = _defining(rng, rng.choice((2, 3)))
        if drawn is None:
            continue
        kind, I = drawn
        ring = I.ring
        g = ring.one() if rng.random() < 0.4 else ring.var(rng.choice(ring.variables))
        a = Ideal(ring, [g])
        t = rng.choice((Fraction(1, 2), Fraction(1), Fraction(2, 3), Fraction(3, 2)))
        out.append((kind, PairSpec(ring, I, a.plus(I), t)))
    return out


def test_fedder_relations_hold_over_non_principal_quotients(monkeypatch):
    from fpurity import ideals

    eliminations = []
    eliminate = ideals._eliminated
    monkeypatch.setattr(
        ideals, "_eliminated", lambda *args: eliminations.append(1) or eliminate(*args)
    )
    skipped, kinds, proven = [], set(), 0
    for kind, pair in _quotient_pairs("relations:quotients", 32):
        perm = list(range(pair.ring.nvars))
        random.Random(str(pair.defining)).shuffle(perm)
        if perm == sorted(perm):
            perm = perm[1:] + perm[:1]
        moved = _permuted_pair(pair, perm)
        for e in (1, 2):
            try:
                verdicts = {C: _run_criterion(pair, C, [e]) for C in (CLASSIC, SHARP, STRONG)}
            except ResourceCapExceeded:
                skipped.append((kind, pair, e))
                continue
            kinds.add(kind)
            escapes = {C: v.per_e[e] for C, v in verdicts.items()}
            assert escapes[SHARP] or not escapes[STRONG], (pair, e)
            assert escapes[CLASSIC] or not escapes[SHARP], (pair, e)
            for C, verdict in verdicts.items():
                if C != CLASSIC and verdict.proven:
                    proven += 1
                    assert verify_witness(pair, verdict), (pair, C, e)
                again = _run_criterion(moved, C, [e])
                assert (again.outcome, again.per_e) == (verdict.outcome, verdict.per_e), perm
    assert eliminations, "no draw reached the elimination colon"
    assert kinds == {"herzog", "minors", "quadrics"}
    assert proven >= 5
    assert len(skipped) <= 2, skipped
