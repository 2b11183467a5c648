"""Ideal arithmetic: bracket powers, colon ideals, membership, powers,
p^e-th roots, and Groebner bases over F_p[x_1, ..., x_n].

The monomial order is grevlex in the ring's declared variable order.
Every verdict built on this module is an ideal-membership fact, so the
order choice only affects running time. All tie-breaking is by input
index and the reduced basis is canonical, which makes every operation
deterministic.

Groebner bases come from Buchberger's algorithm with the pairs in a heap
ordered by lcm, pruned by the coprime-leads and chain criteria. All of
its arithmetic runs on packed monomials (``_Layout``): one int per
monomial, a field per exponent plus one for a degree, laid out so that a
product is one addition, a divisibility test one subtraction and mask,
and the ring order the integer order after one XOR. One loop,
``_normal_form``, reduces for Buchberger and its interreduction, for
``all_members``, for the Fedder complete-intersection power and,
recording a quotient, for exact division. It takes the largest remaining
term from a heap of packed keys, against a table of divisor rows that one
Buchberger run builds once and extends as the basis grows. A run returns
its basis as built, and interreduction runs only where a reduced basis is
read: ``Ideal.groebner``, the complete-intersection Fedder colon, once at
the end of a colon by two or more generators, and on the t-free part of
the elimination behind an intersection or a principal colon. Polynomials
are packed on entry and unpacked on exit; ``SparsePolynomial`` keeps
exponent tuples outside the packed kernels. Field widths come from the
inputs' degrees, and a run in which a formed monomial reaches a field's
guard bit starts again with wider fields.

Colons run one intersection per generator of the divisor ideal on packed
keys and one step counter from start to end, each by elimination of an
extra variable t, whose field the elimination layout puts above a grevlex
key's, unless both sides are monomial or the target is principal and
divisible by the other side; the Fedder colon I^[q] : I of a complete
intersection ``fedder_colon`` takes from Fedder's lemma as one packed run
in the ring itself.

For an ideal that is homogeneous in positive integer weights W
(``positive_grading``), Buchberger can stop at a W-degree: with pairs taken
by degree, the run is a Groebner basis in every degree up to the bound,
because homogeneous S-polynomials and remainders keep the degree of their
lcm, and interreduced it is the full reduced basis up to the bound.
Giving t weight 0 makes t*J + (1-t)*K homogeneous as well, so
eliminations truncate the same way. ``fedder_colon`` uses this
to return only the low-degree generators the escape test can use, and
``all_members``, the one membership kernel, to decide several memberships
against one basis truncated at their top degree, as built, when the ideal
has more than one generator and no cached basis; ``membership`` and
``ideal_contains`` are its one-line callers.

Ideal powers and p^e-th roots run on packed monomials too, with one path
each. One walk, ``ProductWalk``, forms the generator products of a^N with
the packed product and power, in S or in the box S/m^[q]: ``ideal_power``,
``power_root``, ``nu_value`` and the Fedder witness search all ask it, and
its one cap, ``MAX_POWER_PRODUCTS``, counts the products up front in S and
as they are formed in the box. ``_root`` splits every term of a product
into its residue and quotient modulo q, field by field, and orders the
residues by key. The test-ideal chain takes each entry (a^N)^[1/q] from the
two in one pass (``power_root``), so a^N is never built as an ideal, and
``root_power`` is its N = 1.
Monomial powers and roots stay monomial: a^N by square-and-multiply
(``_minimal_power``, truncated in the box), each step pruned once by
``minimal_packed``, and its root by dividing every field and pruning once
more.

Monomial ideals are recognized at construction and stored by their unique
minimal monomial generators; most operations have a fast path for them.
Runaway instances hit explicit resource caps and raise ResourceCapExceeded
instead of spinning.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from fractions import Fraction
from operator import mul, sub
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ExponentOverflowError, ResourceCapExceeded, RingMismatchError
from .poly import (
    EXP_LIMIT,
    MAX_BOX_TERMS,
    Monomial,
    PolyRing,
    SparsePolynomial,
    _Layout,
    _layout,
    _minimal_power,
    _Overflow,
    _check_power,
    _packed_mul,
    _packed_pow,
    _top_degree,
    _width,
    check_q,
    frobenius_image,
    minimal_packed,
    power_term_bound,
)


# Resource caps that turn runaway instances into clean errors; a tripped
# cap raises ResourceCapExceeded under its name in lower case.
MAX_BASIS = 10_000
MAX_REDUCTION_STEPS = 10_000_000
MAX_POWER_PRODUCTS = 50_000


class _StepCounter:
    """The reduction steps of one run, capped in total; ``layer`` names it."""

    __slots__ = ("steps", "layer")

    def __init__(self, layer: str):
        self.steps, self.layer = 0, layer


class Ideal:
    """An ideal of a polynomial ring, given by a finite generator list.

    Immutable value. The reduced Groebner basis is computed on first use
    and cached. Monomial generators are kept minimal, with coefficient 1
    and in the ring order; a lone monomial with coefficient 1 is kept as is.
    """

    __slots__ = ("ring", "generators", "is_monomial", "_basis")

    def __init__(self, ring: PolyRing, generators: Iterable[SparsePolynomial]):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
            if not g.is_zero():
                gens.append(g)
        if any(g.is_constant() for g in gens):
            gens = [ring.one()]
        self.ring = ring
        monomial = bool(gens) and all(g.is_monomial() for g in gens)
        if monomial and (len(gens) > 1 or 1 not in gens[0].terms.values()):
            monos = [next(iter(g.terms)) for g in gens]
            lay = _layout(ring, _width(max(map(sum, monos))))
            gens = _monomials(lay, minimal_packed(set(map(lay.field_key, monos)), lay.eguards))
        self.generators = tuple(gens)
        self.is_monomial = monomial
        self._basis = None

    @classmethod
    def _from_minimal(cls, lay: _Layout, keys: Iterable[int]) -> "Ideal":
        """The monomial ideal of exponent-field keys of lay, trusted to be
        distinct and minimal: they are sorted, not pruned again."""
        self = object.__new__(cls)
        self.ring = lay.ring
        self.generators = _monomials(lay, keys)
        self.is_monomial = bool(self.generators)
        self._basis = None
        return self

    @classmethod
    def zero(cls, ring: PolyRing) -> "Ideal":
        return cls(ring, [])

    @classmethod
    def unit(cls, ring: PolyRing) -> "Ideal":
        return cls(ring, [ring.one()])

    def is_zero(self) -> bool:
        return not self.generators

    def has_constant_generator(self) -> bool:
        return bool(self.generators) and self.generators[0].is_constant()

    def is_unit(self) -> bool:
        basis = self.generators if self.is_monomial else self.groebner()
        return len(basis) == 1 and basis[0].is_constant()

    def groebner(self) -> tuple[SparsePolynomial, ...]:
        """The reduced Groebner basis, cached after the first computation."""
        if self._basis is None:
            if self.is_monomial or self.is_zero() or self.has_constant_generator():
                self._basis = self.generators
            else:
                self._basis = tuple(_buchberger(list(self.generators), self.ring))
        return self._basis

    def monomial_exponents(self) -> tuple[Monomial, ...]:
        if not self.is_monomial:
            raise ValueError("not a monomial ideal")
        return tuple(g.lead_monomial() for g in self.generators)

    def plus(self, other: "Ideal") -> "Ideal":
        self._check_ring(other)
        return Ideal(self.ring, self.generators + other.generators)

    def times(self, other: "Ideal") -> "Ideal":
        self._check_ring(other)
        return Ideal(self.ring, [u * v for u in self.generators for v in other.generators])

    def _check_ring(self, other: "Ideal"):
        if self.ring != other.ring:
            raise RingMismatchError("ideals over different rings")

    def __repr__(self):
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(repr(g) for g in self.generators) + ")"


# ---------------------------------------------------------------------------
# field widths of packed monomials


def _widening(run, degree: int):
    """run(w) from the width for the degree, doubling the width that
    overflowed until no formed monomial does."""
    w = _width(degree)
    while True:
        try:
            return run(w)
        except _Overflow as exc:
            w = 2 * exc.args[0]


# ---------------------------------------------------------------------------
# reduction and Buchberger

# a divisor's (packed terms, packed lead, inverse lead coefficient)
_Row = tuple[list[tuple[int, int]], int, int]


def _row(h: dict[int, int], lead: int, p: int) -> _Row:
    return list(h.items()), lead, pow(h[lead], -1, p)


def _monic(h: dict[int, int], p: int) -> dict[int, int]:
    """h scaled to lead coefficient 1; its terms listed largest first."""
    inv = pow(next(iter(h.values())), -1, p)
    return h if inv == 1 else {m: c * inv % p for m, c in h.items()}


def _normal_form(
    work: dict[int, int],
    table: Sequence[_Row],
    lay: _Layout,
    counter: "_StepCounter",
    quotient: Optional[dict[int, int]] = None,
) -> dict[int, int]:
    """Fully reduce ``work``, a packed polynomial that is used up, modulo the
    table's divisor rows (first divisor wins); the remainder comes back
    with its terms largest first.

    The largest remaining term is reduced at each step; a heap of the terms
    XOR ``lay.desc`` yields it, with an entry pushed whenever a term enters
    the work dict. An entry whose term is no longer there is skipped and
    not counted, so the steps are those of picking the maximum by a scan.
    A step only adds terms below the one it handles, so a handled term
    never comes back.

    With ``quotient`` each step also records its shift and factor there, a
    term of the quotient by the table's one divisor, and the first term
    that divisor does not divide ends the run as the remainder.
    """
    p = lay.ring.p
    guards, limit, desc = lay.guards, lay.limit, lay.desc
    heap = [m ^ desc for m in lay.check(work)]
    heapq.heapify(heap)
    push, pop, get = heapq.heappush, heapq.heappop, work.get
    steps, cap = counter.steps, MAX_REDUCTION_STEPS
    remainder: dict[int, int] = {}
    while heap:
        m = pop(heap) ^ desc
        c = get(m)
        if c is None:
            continue
        steps += 1
        if steps > cap:
            raise ResourceCapExceeded("max_reduction_steps", f"{counter.layer}: {cap} steps")
        raised = m | guards
        for gterms, glm, ginv in table:
            if (raised - glm) & guards == guards:
                factor = c * ginv % p
                shift = m - glm
                if quotient is not None:
                    quotient[shift] = factor
                for tm, tc in gterms:
                    t = tm + shift
                    old = get(t, 0)
                    s = (old - factor * tc) % p
                    if s:
                        work[t] = s
                        if not old:
                            if t & limit:
                                lay.check((t,))
                            push(heap, t ^ desc)
                    else:
                        del work[t]
                break
        else:
            remainder[m] = c
            del work[m]
            if quotient is not None:
                break
    counter.steps = steps
    return remainder


# (weights, bound): truncate at that weighted degree
_Graded = tuple[Sequence[int], int]


def _buchberger(
    gens: list[SparsePolynomial], ring: PolyRing, graded: Optional[_Graded] = None
) -> list[SparsePolynomial]:
    """Reduced Groebner basis: Buchberger's algorithm (``_packed_buchberger``)
    and then interreduction (``_interreduce``), on packed monomials.

    Pair selection follows the normal strategy (smallest lcm in the ring
    order), ties broken by generator index, so runs are reproducible; the
    queued pairs sit in a heap keyed by (lcm key, i, j). A selected pair
    is skipped without reduction when its leads are coprime (Buchberger's
    first criterion) or by the chain criterion: some other element k has
    a lead dividing lcm(i, j) and neither (i, k) nor (j, k) is still
    queued, so S(i, j) already has a standard representation built from
    those of S(i, k) and S(j, k) (Buchberger 1979; Gebauer-Moeller 1988).

    ``graded = (weights, bound)`` truncates the run by degree. The inputs
    must be homogeneous for the nonnegative integer weights, which may be 0
    on an elimination variable. Inputs of weighted degree above the bound
    are dropped, pairs are keyed by (weighted degree of the lcm, lcm key,
    i, j), and a pair whose lcm lies above the bound is never queued. The
    truncated run is a Groebner basis in every degree up to the bound: every
    S-polynomial and remainder of homogeneous polynomials is homogeneous of
    the degree of its lcm, and an element of degree d has a standard
    representation through pairs of degree at most d alone (the DegreeLimit
    of Macaulay2). Interreduced, it is exactly the set of reduced-basis
    elements of weighted degree at most the bound.
    """

    def run(w: int) -> list[SparsePolynomial]:
        lay, counter = _layout(ring, w), _StepCounter("ideals.groebner")
        basis = _packed_buchberger([lay.pack(g) for g in gens], lay, graded, counter)
        if basis == [{0: 1}]:
            return [ring.one()]
        return [lay.unpack(h) for h in _interreduce(basis, lay, counter)]

    return _widening(run, _top_degree(gens))


def _packed_buchberger(
    gens: list[dict[int, int]], lay: _Layout, graded: Optional[_Graded], counter: _StepCounter
) -> list[dict[int, int]]:
    """``_buchberger``'s run on packed polynomials, counted on ``counter``: the
    Groebner basis as built, monic, terms largest first; [{0: 1}] for (1)."""
    p, guards, limit, asc = lay.ring.p, lay.guards, lay.limit, lay.asc
    if graded is not None:
        bound = graded[1]
        degree = lay.weighted(graded[0])
        # homogeneous inputs: any term has the degree of the lead
        gens = [g for g in gens if degree(next(iter(g))) <= bound]
    basis: list[dict[int, int]] = []
    table: list[_Row] = []

    def admit(h: dict[int, int]) -> bool:
        """Keep a nonzero remainder; False when it is a constant."""
        if next(iter(h)) == 0:
            return False
        basis.append(_monic(h, p))
        table.append(_row(basis[-1], next(iter(h)), p))
        return True

    for g in gens:
        h = _normal_form(g, table, lay, counter)
        if h and not admit(h):
            return [{0: 1}]

    leads = [row[1] for row in table]
    heap: list[tuple] = []
    queued: set[tuple[int, int]] = set()

    def add_pairs(k: int):
        lk = leads[k]
        for i in range(k):
            lcm = lay.lcm(leads[i], lk)
            if graded is None:
                key = lcm ^ asc
            else:
                d = degree(lcm)
                if d > bound:
                    continue
                key = (d, lcm ^ asc)
            if lcm & limit:
                lay.check((lcm,))
            heapq.heappush(heap, (key, i, k, lcm))
            queued.add((i, k))

    for k in range(1, len(basis)):
        add_pairs(k)
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        queued.discard((i, j))
        lmi, lmj = leads[i], leads[j]
        if lcm == lmi + lmj:
            continue  # coprime leads: S-polynomial reduces to zero
        raised = lcm | guards
        if any(
            (raised - lmk) & guards == guards
            and k != i and k != j
            and (min(i, k), max(i, k)) not in queued
            and (min(j, k), max(j, k)) not in queued
            for k, lmk in enumerate(leads)
        ):
            continue  # chain criterion
        si, sj = lcm - lmi, lcm - lmj
        work = {m + si: c for m, c in basis[i].items()}
        for m, c in basis[j].items():
            m += sj
            s = (work.get(m, 0) - c) % p
            if s:
                work[m] = s
            else:
                del work[m]
        h = _normal_form(work, table, lay, counter)
        if not h:
            continue
        if not admit(h):
            return [{0: 1}]
        if len(basis) > MAX_BASIS:
            raise ResourceCapExceeded("max_basis", f"{MAX_BASIS} elements")
        leads.append(table[-1][1])
        add_pairs(len(basis) - 1)
    return basis


def _interreduce(basis: list[dict], lay: _Layout, counter: _StepCounter) -> list[dict[int, int]]:
    """The monic reduced basis, sorted by lead, from a packed Groebner basis
    whose elements list their terms largest first."""
    p, guards, asc = lay.ring.p, lay.guards, lay.asc
    # drop elements whose lead is divisible by another's lead
    minimal: list[tuple[int, dict[int, int]]] = []
    for g in sorted(basis, key=lambda g: next(iter(g)) ^ asc):
        raised = next(iter(g)) | guards
        if not any((raised - kept) & guards == guards for kept, _ in minimal):
            minimal.append((next(iter(g)), g))
    # fully reduce each tail against the others
    table = [_row(g, lead, p) for lead, g in minimal]
    reduced = [
        _monic(_normal_form(dict(g), table[:idx] + table[idx + 1 :], lay, counter), p)
        for idx, (_, g) in enumerate(minimal)
    ]
    reduced.sort(key=lambda h: next(iter(h)) ^ asc)
    return reduced


# ---------------------------------------------------------------------------
# membership and containment


def membership(g: SparsePolynomial, I: Ideal) -> bool:
    """Decide g in I: ``all_members`` of g alone."""
    return all_members([g], I)


def all_members(polys: Iterable[SparsePolynomial], J: Ideal) -> bool:
    """Decide h in J for every h in polys: the one membership kernel.

    A zero h or a generator of J is in J, every h is in a J with a constant
    generator and no nonzero h in the zero ideal; for monomial J each term
    of h must be divisible by a generator (the guard-bit test). Every other
    h is reduced against one Groebner basis: a principal J's generator; J's
    cached reduced basis; when ``positive_grading(J)`` finds positive
    weights W, one Buchberger run truncated at D, the largest W-degree of a
    term of any h, as built, a Groebner basis of J in every W-degree up to
    D (see ``_buchberger``); else ``J.groebner()``. The h need not be
    homogeneous: h lies in J iff each W-homogeneous component does, and a
    reduction step by a homogeneous divisor stays in the degree of the term
    it handles. Stops at the first h outside J.
    """
    polys = list(polys)
    if any(h.ring != J.ring for h in polys):
        raise RingMismatchError("polynomial and ideal over different rings")
    polys = [h for h in polys if not h.is_zero() and h not in J.generators]
    if not polys or J.has_constant_generator():
        return True
    if J.is_zero():
        return False
    ring, multi = J.ring, len(J.generators) > 1
    graded = None
    if J._basis is None and not J.is_monomial and multi:
        weights = positive_grading(J)
        if weights is not None:
            graded = weights, max(sum(map(mul, m, weights)) for h in polys for m in h.terms)
    basis = J.groebner() if graded is None and multi else J.generators

    def run(w: int) -> bool:
        lay = _layout(ring, w)
        if J.is_monomial:  # the guard-bit test: every term divisible by a generator
            guards = lay.guards
            leads = [lay.key(g.lead_monomial()) for g in basis]
            terms = (m | guards for h in polys for m in lay.pack(h))
            return all(any((m - g) & guards == guards for g in leads) for m in terms)
        steps = functools.partial(_StepCounter, "ideals.membership")
        if graded is None:
            table = [_row(lay.pack(b), lay.key(b.lead_monomial()), ring.p) for b in basis]
        else:
            built = _packed_buchberger([lay.pack(g) for g in basis], lay, graded, steps())
            table = [_row(h, next(iter(h)), ring.p) for h in built]
        return all(not _normal_form(lay.pack(h), table, lay, steps()) for h in polys)

    return _widening(run, _top_degree(itertools.chain(basis, polys)))


def ideal_contains(I: Ideal, J: Ideal) -> bool:
    """True iff J is a subset of I: ``all_members`` of J's generators."""
    return all_members(J.generators, I)


def ideal_equals(I: Ideal, J: Ideal) -> bool:
    """Exact equality of the canonical reduced bases."""
    I._check_ring(J)
    return I.groebner() == J.groebner()


# ---------------------------------------------------------------------------
# Frobenius bracket powers and roots


def bracket_power(I: Ideal, q: int) -> Ideal:
    """The ideal generated by q-th powers of the generators, q = p^e.

    Generator-level powering is enough because the e-fold Frobenius is a
    ring endomorphism.
    """
    check_q(I.ring.p, q)
    return Ideal(I.ring, [frobenius_image(g, q) for g in I.generators])


def root_power(I: Ideal, q: int) -> Ideal:
    """The p^e-th root: the smallest J with I contained in J^[q].

    Each generator g decomposes uniquely as  g = sum_C (g_C)^q * x^C  over
    the monomials x^C with all exponents below q, because the ring is free
    over its subring of q-th powers with that basis. Coefficients need no
    adjustment: c^q = c in F_p. The ideal generated by all g_C is the
    minimal choice. For a monomial x^v that piece is x^floor(v/q). The
    pieces come from ``power_root`` with N = 1, whose walk yields the
    generators in order.
    """
    check_q(I.ring.p, q)
    if q == 1 or I.is_zero():
        return I
    return power_root(I, 1, q)


def _root(lay: _Layout, products: Iterable[dict[int, int]], q: int) -> Ideal:
    """The ideal of the pieces h_C of packed polynomials h, in ``root_power``'s
    order: h by h, C ascending in grevlex, each piece once.

    A term x^m splits field by field into its residue x^C, C = m mod q, and
    its quotient x^((m - C) / q); with C's degree field filled in, m - C has
    every field divisible by q, so one integer division by q gives the
    quotient's key, degree field included. The residues sort by key ^ asc,
    which is grevlex, and a piece is compared with the kept ones exactly.
    """
    shifts, fmask, spread, dmask, asc = lay.shifts, lay.fmask, lay.spread, lay.dmask, lay.asc
    pieces: list[dict[int, int]] = []
    seen = set()
    for h in products:
        buckets: dict[int, dict[int, int]] = {}
        for m, c in h.items():
            residue = 0
            for s in shifts:
                residue |= ((m >> s) & fmask) % q << s
            residue |= residue * spread & dmask
            piece = buckets.get(residue)
            if piece is None:
                piece = buckets[residue] = {}
            piece[(m - residue) // q] = c
        for residue in sorted(buckets, key=asc.__xor__):
            piece = buckets[residue]
            key = frozenset(piece.items())
            if key not in seen:
                seen.add(key)
                pieces.append(piece)
    return Ideal(lay.ring, [lay.unpack(h, ordered=False) for h in pieces])


def _monomial_root(lay: _Layout, keys: Iterable[int], q: int) -> Ideal:
    """The root of the monomial ideal of exponent-field keys (no degree
    field): every field divided by q, pruned once."""
    shifts, fmask = lay.shifts, lay.fmask
    roots = {sum((((v >> s) & fmask) // q) << s for s in shifts) for v in keys}
    return Ideal._from_minimal(lay, minimal_packed(roots, lay.eguards))


# ---------------------------------------------------------------------------
# ideal powers


def ideal_power(a: Ideal, N: int) -> Ideal:
    """a^N, with a^0 the unit ideal, unpacked from ``ProductWalk``'s products."""
    if N < 0:
        raise ValueError(f"negative ideal power {N}")
    ring = a.ring
    if N == 0:
        return Ideal.unit(ring)
    if a.is_zero():
        return Ideal.zero(ring)
    if a.has_constant_generator():
        return Ideal.unit(ring)
    if N == 1:
        return a
    walk = ProductWalk(a)
    power = walk.products(N)
    if a.is_monomial:
        return Ideal._from_minimal(walk.lay, power)
    kept = {frozenset(h.items()): h for h in power}
    return Ideal(ring, [walk.lay.unpack(h, ordered=False) for h in kept.values()])


def power_root(a: Ideal, N: int, q: int) -> Ideal:
    """(a^N)^[1/q] for N >= 1, with a^N never built as an ideal: the packed
    products of ``ProductWalk`` go straight to the root."""
    check_q(a.ring.p, q)
    walk = ProductWalk(a)
    power = walk.products(N)
    if a.is_monomial:
        return _monomial_root(walk.lay, power, q)
    return _root(walk.lay, power, q)


class ProductWalk:
    """The generator products of a^N, for a nonzero ideal a, in S or, given
    q, in the box S/m^[q]: one walk for ``ideal_power``, ``power_root``,
    ``nu_value`` and the Fedder witness search.

    A polynomial lies in m^[q], m = (x_1, ..., x_n), iff each of its terms
    has some exponent >= q, so its box image (``_pack``) drops those terms,
    and truncating after every product is exact since m^[q] is an ideal. Box
    terms are exponent-field keys of one layout for every N, bits(q - 1) + 1
    wide so that no field carries; for monomial a, whose witness is ordered
    by its degree field, wide enough for n(q - 1).

    Monomial a: the minimal generators of a^N as ascending exponent-field
    keys, from ``_minimal_power``. Every other a, principal included:
    g_1^k_1 * ... * g_r^k_r over k_1 + ... + k_r = N, each g^k one
    ``_packed_pow`` kept for every N asked, each partial product formed once
    for all of its extensions, and in the box one that vanishes drops them.
    ``products`` and ``witness`` run in combinations_with_replacement order,
    k_1 descending first. The escaping k form a down-set, so ``top`` finds
    the largest |k| in one walk over the prefixes with a nonzero product,
    each k_j up from 0 until one vanishes; the last exponent starts at the
    best |k| so far plus one and climbs by one factor g_r while the product
    escapes, g_r being the generator with the term whose powers vanish last.

    Checks and caps: on construction, q must be a power of p (ValueError),
    with exponents up to q - 1 inside 2^63-1 (ExponentOverflowError). More
    than ``MAX_POWER_PRODUCTS`` products raise ResourceCapExceeded: in S
    their count C(r + N - 1, N) is refused before any is formed; in the box,
    where pruning makes it unknowable, products are counted as they are
    formed, partial ones included. A box product past ``MAX_BOX_TERMS``
    terms raises it too (``_packed_mul``).
    """

    def __init__(self, a: Ideal, q: Optional[int] = None):
        self.a, self.q, self.lay = a, q, None
        if q is not None:
            check_q(a.ring.p, q)
            if q - 1 > EXP_LIMIT:
                raise ExponentOverflowError(f"exponents of S/m^[{q}] reach {q - 1}, past 2^63-1")
            w = _width(a.ring.nvars * (q - 1)) if a.is_monomial else (q - 1).bit_length() + 1
            self._place(_layout(a.ring, w))

    def _place(self, lay: _Layout):
        """Pack a's generators on lay, dropping powers packed on another."""
        self.lay = lay
        self._args = (self.a.ring.p,) if self.q is None else (self.a.ring.p, lay, self.q)
        self._gens = [self._pack(g) for g in self.a.generators]
        if self.a.is_monomial:
            self._base = [m & lay.nodeg for g in self._gens for m in g]
        self._powers: list[dict[int, dict[int, int]]] = [{} for _ in self._gens]

    def _pack(self, f: SparsePolynomial) -> dict[int, int]:
        """f on the walk's layout; in the box, its image on exponent-field keys."""
        lay, q = self.lay, self.q
        if q is None:
            return lay.pack(f)
        return {lay.field_key(m): c for m, c in f.terms.items() if max(m) < q}

    def products(self, N: int) -> Iterable:
        """The products of a^N, N >= 1, in the box only the nonzero ones: keys
        for monomial a, else packed polynomials. In S, ``lay`` becomes a
        layout that holds a^N's degree, after the cap and an exponent past
        2^63-1 (ExponentOverflowError) are checked."""
        a, r = self.a, len(self.a.generators)
        if self.q is None:
            count = math.comb(r + N - 1, N)
            if not a.is_monomial and count > MAX_POWER_PRODUCTS:
                raise ResourceCapExceeded(
                    "max_power_products",
                    f"{count} degree-{N} products of {r} generators exceed {MAX_POWER_PRODUCTS}; "
                    "use a principal or monomial fast path or a smaller exponent",
                )
            self._fit(N)
        if a.is_monomial:
            return _minimal_power(self._base, N, self.lay, self.q)
        return (product for _, product in self._walk(N))

    def _fit(self, N: int):
        """Place the walk in S on a layout that holds a^N's degree."""
        a = self.a
        top = N * max(max(map(max, g.terms)) for g in a.generators)
        if top > EXP_LIMIT:
            raise ExponentOverflowError(f"exponent {top} of a^{N} exceeds 2^63-1")
        lay = _layout(a.ring, _width(N * _top_degree(a.generators)))
        if lay is not self.lay:
            self._place(lay)

    def escapes(self, N: int) -> bool:
        """Whether a^N escapes m^[q]: some product is nonzero in the box."""
        if self.a.is_monomial:
            return bool(_minimal_power(self._base, N, self.lay, self.q))
        return self.top(N - 1) >= N

    def top(self, floor: int) -> float:
        """max(floor, largest |k| with g_1^k_1 * ... * g_r^k_r escaping m^[q])
        for non-monomial a; infinite when a generator has a constant term."""
        if any((0,) * self.a.ring.nvars in g.terms for g in self.a.generators):
            return math.inf
        self._formed, best, last = 0, floor, len(self._gens) - 1
        order = sorted(range(last + 1), key=lambda j: -min(map(max, self.a.generators[j].terms)))

        def climb(j: int, used: int, partial):
            nonlocal best
            g, kj = order[j], max(best + 1 - used, 0) if j == last else 0
            product = self._times(partial, g, kj)
            while product != {}:
                if j == last:  # one more factor g_r on the product that escaped
                    best, product = used + kj, self._times(product, g, 1)
                else:
                    climb(j + 1, used + kj, product)
                    product = self._times(partial, g, kj + 1)
                kj += 1

        climb(0, 0, None)
        return best

    def witness(self, N: int, cofactors: Iterable[SparsePolynomial]) -> Optional[tuple]:
        """The first pair (u, v), u a product of a^N and v a cofactor, with
        u*v nonzero in the box; v runs inside u, and monomial u in grevlex
        order. Only that u is formed in full, in S, and unpacked once."""
        args = self._args
        packed = [(v, self._pack(v)) for v in cofactors]

        def accept(product: dict[int, int]) -> Optional[SparsePolynomial]:
            return next((v for v, pv in packed if _packed_mul(product, pv, *args)), None)

        if self.a.is_monomial:
            lay = self.lay
            for m in _grevlex(lay, _minimal_power(self._base, N, lay, self.q)):
                v = accept({m & lay.nodeg: 1})
                if v is not None:
                    e = lay.exponents(m)
                    return SparsePolynomial(lay.ring, {e: 1}, e), v
            return None
        for k, product in self._walk(N):
            v = accept(product)
            if v is not None:
                return ProductWalk(self.a).product(k), v
        return None

    def product(self, k: Sequence[int]) -> SparsePolynomial:
        """g_1^k_1 * ... * g_r^k_r, formed in full by a walk in S after
        ``poly_pow``'s checks on each factor."""
        for g, kj in zip(self.a.generators, k):
            _check_power(g, kj)
        self._fit(sum(k))
        args = self._args
        factors = [_packed_pow(g, kj, *args) for g, kj in zip(self._gens, k) if kj] or [{0: 1}]
        product = functools.reduce(lambda f, g: _packed_mul(f, g, *args), factors)
        return self.lay.unpack(product, ordered=False)

    def _walk(self, N: int) -> Iterator[tuple[list[int], dict[int, int]]]:
        """(k, product) for the nonzero products of a^N, k_j falling; k is updated in place."""
        self._formed = 0
        return self._extend(0, N, None, [0] * len(self._gens))

    def _extend(self, j: int, left: int, partial, k: list[int]):
        # partial * g_j^k_j * ... * g_last^k_last with k_j + ... + k_last = left,
        # a partial of None being 1
        last = len(self._gens) - 1
        for kj in (left,) if j == last else range(left, -1, -1):
            if (product := self._times(partial, j, kj)) == {}:
                continue
            k[j] = kj
            if j == last:
                yield k, {0: 1} if product is None else product
            else:
                yield from self._extend(j + 1, left - kj, product, k)

    def _times(self, partial, j: int, kj: int):
        """partial * g_j^kj (None is 1), counted against MAX_POWER_PRODUCTS in the box."""
        self._formed += 1
        if self.q is not None and self._formed > MAX_POWER_PRODUCTS:
            raise ResourceCapExceeded(
                "max_power_products",
                f"ideals.ProductWalk: more than {MAX_POWER_PRODUCTS} products of "
                f"{len(self._gens)} generators formed modulo m^[{self.q}]",
            )
        if not kj:
            return partial
        row = self._powers[j]
        power = row.get(kj)
        if power is None:
            power = row[kj] = _packed_pow(self._gens[j], kj, *self._args)
        return power if partial is None else _packed_mul(partial, power, *self._args)


# ---------------------------------------------------------------------------
# intersection and colon via elimination


def intersect(J: Ideal, K: Ideal) -> Ideal:
    """J intersect K: ``colon``'s step with f = 1, so lcms for monomial J
    and K, (g) for (g) and a divisor (k) of g, else t eliminated from
    t*J + (1-t)*K."""
    J._check_ring(K)
    ring = J.ring
    if J.is_zero() or K.is_zero():
        return Ideal.zero(ring)
    if J.has_constant_generator():
        return K
    if K.has_constant_generator():
        return J

    def run(w: int) -> Ideal:
        lay, counter = _layout(ring, w), _StepCounter("ideals.intersect")
        packed = [[lay.pack(g) for g in A.generators] for A in (J, K)]
        meet = _colon_step(*packed, {0: 1}, lay, None, counter, reduce=True)
        return Ideal(ring, [lay.unpack(h) for h in meet])

    return _widening(run, _top_degree(itertools.chain(J.generators, K.generators)) + 1)


def colon(J: Ideal, I: Ideal, graded: Optional[_Graded] = None) -> Ideal:
    """The colon ideal J : I = {g : g*I inside J}.

    Generator by generator, from R_0 = S: R_k = (J intersect f_k*R_(k-1)) / f_k
    (``_colon_step``), since g*f_k lies in both J and f_k*R_(k-1) exactly
    when g lies in R_(k-1) intersect (J : f_k) (S is a domain); one
    intersection per generator of I. The quotients of a Groebner basis of
    J intersect f_k*R_(k-1) by f_k form a Groebner basis of R_k, so for
    r >= 2 the steps pass their elimination bases on as built and one
    interreduction of R_r gives the monic reduced basis, sorted by lead; a
    principal I keeps the quotients of its reduced meet. The loop runs on
    packed keys of one width and one ``_StepCounter``, which caps the whole
    colon, from packing J to unpacking the result, and starts again wider
    when a formed monomial overflows. For J = I^[q] with I a complete
    intersection, ``fedder_colon`` gives the same ideal without elimination.

    ``graded = (weights, bound)``, for J and I homogeneous in positive
    integer weights, keeps only the generators of weighted degree at most
    the bound: each intersection is truncated at the bound plus the degree
    of f_k. That is the subsequence of the unbounded result of degree at
    most the bound, and agrees with J : I in every degree up to it.
    """
    J._check_ring(I)
    ring = J.ring
    if I.is_zero() or J.has_constant_generator():
        return Ideal.unit(ring)
    if I.has_constant_generator() or J.is_zero():
        return J

    principal = len(I.generators) == 1

    def run(w: int) -> Ideal:
        lay, counter = _layout(ring, w), _StepCounter("ideals.colon")
        packed = [lay.pack(g) for g in J.generators]
        result = [{0: 1}]
        for f in map(lay.pack, I.generators):  # [] stays zero
            result = result and _colon_step(packed, result, f, lay, graded, counter, principal)
        if not principal and any(len(h) > 1 for h in result):
            result = _interreduce(result, lay, counter)
        if graded is not None:
            degree, bound = lay.weighted(graded[0]), graded[1]
            result = [h for h in result if degree(next(iter(h))) <= bound]
        return Ideal(ring, [lay.unpack(h) for h in result])

    return _widening(run, _top_degree(itertools.chain(J.generators, I.generators)) + 1)


def _colon_step(
    J: list[dict], R: list[dict], f: dict[int, int], lay: _Layout, graded: Optional[_Graded],
    counter: _StepCounter, reduce: bool,
) -> list[dict[int, int]]:
    """(J intersect f*R) / f for nonzero J, R and f packed on lay, as
    ``Ideal(...)`` keeps it (``_as_ideal``), terms largest first; [] is the
    zero ideal. Monomial J, f and R take the lcms; (g) against (f*r) with
    f*r dividing g gives (g / (f*r) * r) from that one division; else each
    element of the meet (``_eliminated``, reduced if ``reduce``), truncated
    at the bound plus deg f, is divided by f. Reductions count on ``counter``.
    """
    p = lay.ring.p
    flead = max(f, key=lay.asc.__xor__)
    if graded is not None:
        graded = graded[0], graded[1] + lay.weighted(graded[0])(flead)
    if len(f) == 1 and all(len(h) == 1 for h in itertools.chain(J, R)):
        raised = lay.check([flead + r for h in R for r in h])
        lcms = lay.check({lay.lcm(u, v) for h in J for u in h for v in raised})
        return _as_ideal([{m - flead: 1} for m in lcms], lay)
    raised = [lay.check(_packed_mul(f, r, p)) for r in R]
    if len(J) == 1 and len(R) == 1:
        (g,), (r,) = J, R
        if graded is not None and lay.weighted(graded[0])(max(g, key=lay.asc.__xor__)) > graded[1]:
            return []
        lead = flead + max(r, key=lay.asc.__xor__)
        quotient = _try_exact_div(g, _row(raised[0], lead, p), lay, counter)
        if quotient is not None:
            product = _packed_mul(quotient, r, p)
            return _as_ideal([dict(sorted(product.items(), key=lambda t: t[0] ^ lay.desc))], lay)
    frow = _row(f, flead, p)
    meet = _eliminated(J, raised, lay, graded, counter, reduce)
    quotients = [_try_exact_div(h, frow, lay, counter) for h in meet]
    if None in quotients:
        raise AssertionError("element of J meet (f) not divisible by f")
    return _as_ideal(quotients, lay)


def _eliminated(
    J: list[dict], K: list[dict], lay: _Layout, graded: Optional[_Graded], counter: _StepCounter,
    reduce: bool,
) -> list[dict[int, int]]:
    """A Groebner basis of J intersect K from packed generators, t
    eliminated from t*J + (1-t)*K (weight 0 when graded) on ``counter``. A
    key of lay is the key of the same monomial times t^0 in lay's
    elimination layout: t*m is m plus t's unit, and a basis element with a
    t-free lead is t-free (t comes first in the order) and already a key of
    lay. Only those, a Groebner basis of J intersect K, are kept, as built
    or, with ``reduce``, interreduced: no lead with t divides a t-free term,
    so that is the t-free part of the full reduced basis."""
    elay = _layout(lay.ring, lay.w, elim=True)
    t, p = 1 << elay.shifts[0], lay.ring.p
    gens = [{m + t: c for m, c in g.items()} for g in J]
    gens += [{**h, **{m + t: p - c for m, c in h.items()}} for h in K]
    graded = graded and ((0, *graded[0]), graded[1])
    meet = [h for h in _packed_buchberger(gens, elay, graded, counter) if next(iter(h)) < t]
    return _interreduce(meet, elay, counter) if reduce else meet


def _try_exact_div(g: dict, f: _Row, lay: _Layout, counter: _StepCounter) -> Optional[dict]:
    """g / f, largest term first, when the divisor row f divides g, else
    None: ``_normal_form`` of a copy of g by f alone, recording a quotient."""
    quotient: dict[int, int] = {}
    if _normal_form(dict(g), [f], lay, counter, quotient):
        return None
    return quotient


def _as_ideal(polys: list[dict[int, int]], lay: _Layout) -> list[dict[int, int]]:
    """The generators ``Ideal(...)`` keeps of nonzero packed polynomials:
    the minimal monomials, with coefficient 1 and in grevlex order, if all
    are monomials; (1) if one is a constant; else the polynomials."""
    if all(len(h) == 1 for h in polys):
        full = {m & lay.nodeg: m for h in polys for m in h}
        kept = map(full.__getitem__, minimal_packed(set(full), lay.eguards))
        return [{m: 1} for m in sorted(kept, key=lay.asc.__xor__)]
    if any(next(iter(h)) == 0 for h in polys):
        return [{0: 1}]
    return polys


def _monomials(lay: _Layout, keys: Iterable[int]) -> tuple[SparsePolynomial, ...]:
    """The generators ``Ideal(...)`` keeps for minimal exponent-field keys of
    lay: their monomials in the ring order."""
    ring = lay.ring
    return tuple(SparsePolynomial(ring, {e: 1}, e) for e in map(lay.exponents, _grevlex(lay, keys)))


def _grevlex(lay: _Layout, keys: Iterable[int]) -> list[int]:
    """Exponent-field keys of lay with the degree field filled, in the ring
    order (key ^ asc); lay's fields must hold their degrees."""
    spread, dmask = lay.spread, lay.dmask
    return sorted((m | m * spread & dmask for m in keys), key=lay.asc.__xor__)


def _height(I: Ideal) -> int:
    """The height of a proper ideal I of S = F_p[x_1, ..., x_n].

    ht I = n - dim S/in(I), and dim S/in(I) is the size of the largest set
    of variables that contains the support of no lead of I's Groebner
    basis. A proper ideal has no constant lead, so the empty set always
    qualifies and the height is at most n.
    """
    n = I.ring.nvars
    supports = {
        sum(1 << i for i, e in enumerate(g.lead_monomial()) if e) for g in I.groebner()
    }
    for k in range(n, 0, -1):
        for chosen in itertools.combinations(range(n), k):
            free = sum(1 << i for i in chosen)
            if all(s & ~free for s in supports):
                return n - k
    return n


def positive_grading(I: Ideal) -> Optional[tuple[int, ...]]:
    """Positive integer weights W in which every generator of I is
    homogeneous, when they are evident; else None.

    All ones when every generator is homogeneous. Otherwise W must solve
    W . (m - m_0) = 0 for any two terms m, m_0 of one generator; when the
    solutions form a line spanned by a vector with all entries of one sign,
    its primitive positive integer generator is returned. That covers the
    quasi-homogeneous ideals, such as Herzog's ideals of monomial curves
    (t^a, t^b, t^c), graded by (a, b, c) up to a common factor.
    """
    n = I.ring.nvars
    rows = []
    for g in I.generators:
        first, *others = g.terms
        rows += [list(map(sub, m, first)) for m in others]
    if all(sum(row) == 0 for row in rows):
        return (1,) * n
    line = _null_line(rows, n)
    if line is None:
        return None
    scale = math.lcm(*(x.denominator for x in line))
    weights = [int(x * scale) for x in line]
    common = math.gcd(*weights)
    if all(w < 0 for w in weights):
        common = -common
    weights = [w // common for w in weights]
    return tuple(weights) if all(w > 0 for w in weights) else None


def _null_line(rows: list[list[int]], n: int) -> Optional[list[Fraction]]:
    """A vector spanning the rational null space of the rows, if that
    null space is one-dimensional; found by Gauss-Jordan elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        found = next((i for i in range(r, len(m)) if m[i][c]), None)
        if found is None:
            continue
        m[r], m[found] = m[found], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                m[i] = [a - row[c] * b for a, b in zip(row, m[r])]
        pivots.append(c)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    line = [Fraction(0)] * n
    line[free[0]] = Fraction(1)
    for r, c in enumerate(pivots):
        line[c] = -m[r][free[0]]
    return line


def fedder_colon(I: Ideal, q: int, graded: Optional[_Graded] = None) -> Ideal:
    """The Fedder colon I^[q] : I, for q = p^e.

    When I has c >= 2 generators and height c (decided by ``_height``),
    I is a complete intersection, and then

        I^[q] : I  =  (f_1 * ... * f_c)^(q-1) + I^[q]

    (Fedder, F-purity and rational singularity, Trans. AMS 1983, Prop.
    2.6). The identity holds exactly: colons commute with localization, and
    at every maximal ideal containing I the f_i form a regular sequence,
    since S is Cohen-Macaulay. One packed run, from packing I's generators
    and reduced basis to unpacking the result, forms I^[q] and the q-th
    powers of the basis (keys times q), the power as prod_(i<e)
    Frob^i(P^(p-1)), P = f_1 * ... * f_c, each partial product reduced by
    those q-th powers, a Groebner basis of I^[q], and the monic reduced
    basis, sorted by lead, by one Buchberger run in S. A P^(p-1) whose
    ``power_term_bound`` passes MAX_BOX_TERMS raises ResourceCapExceeded
    before it is formed. ``colon`` gives the same generators here: for two
    or more generators it interreduces only its final result. Every other
    ideal (monomial, principal, unit, zero, or not a complete intersection)
    goes through ``colon``, one elimination per generator of I.

    ``graded = (weights, bound)``, for I homogeneous in the positive
    integer weights W (``positive_grading``), asks only for the generators
    of W-degree at most the bound. Both branches then run truncated
    Buchberger (see ``_buchberger``), and the complete-intersection branch
    leaves the power out when its degree (q-1) * sum deg_W f_i exceeds the
    bound. The result is the subsequence of the unbounded generators of
    W-degree at most the bound: the reduced basis of a W-homogeneous ideal
    is W-homogeneous, and its elements up to a degree depend only on the
    ideal up to that degree.
    """
    ring, p, gens = I.ring, I.ring.p, I.generators
    check_q(p, q)
    if I.is_monomial or len(gens) < 2 or I.is_unit() or _height(I) != len(gens):
        return colon(bracket_power(I, q), I, graded)
    deg = sum(_top_degree([g]) for g in gens)  # P's degree
    k = sum(map(any, zip(*(m for g in gens for m in g.terms))))  # the variables in P

    def run(w: int) -> Ideal:
        lay, counter = _layout(ring, w), _StepCounter("ideals.fedder_colon")

        def frob(h: dict[int, int], qi: int) -> dict[int, int]:
            return lay.check({m * qi: c for m, c in h.items()})

        packed = [lay.pack(g) for g in gens]
        inputs = [frob(g, q) for g in packed]
        product = lay.check(functools.reduce(lambda f, g: _packed_mul(f, g, p), packed))
        if graded is None or (q - 1) * lay.weighted(graded[0])(next(iter(product))) <= graded[1]:
            if power_term_bound(len(product), deg, k, p - 1, p) > MAX_BOX_TERMS:
                detail = f"a {len(product)}-term P^{p - 1} may have more than {MAX_BOX_TERMS} terms"
                raise ResourceCapExceeded("max_box_terms", detail)
            basis = I.groebner()
            table = [_row(frob(lay.pack(b), q), q * lay.key(b.lead_monomial()), p) for b in basis]
            digit, power, qi = _packed_pow(product, p - 1, p), {0: 1}, 1
            while qi < q:
                if len(power) * len(digit) > MAX_BOX_TERMS:
                    sizes = f"{len(power)}- and {len(digit)}-term factors"
                    detail = f"a product of {sizes} may have more than {MAX_BOX_TERMS} terms"
                    raise ResourceCapExceeded("max_box_terms", detail)
                power = _normal_form(_packed_mul(power, frob(digit, qi), p), table, lay, counter)
                qi *= p
            inputs.append(power)
        basis = _interreduce(_packed_buchberger(inputs, lay, graded, counter), lay, counter)
        return Ideal(ring, [lay.unpack(h) for h in basis])

    # a key times q must fit its fields, since a carry past one hides from the guard
    # check: start at the top degree of every key formed before Buchberger
    return _widening(run, q * max(_top_degree(I.groebner()), deg))
