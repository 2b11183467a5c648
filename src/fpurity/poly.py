"""Sparse multivariate polynomials over F_p, and the packed kernels.

Representation:

    Monomial         = tuple of non-negative ints, one exponent per variable
    SparsePolynomial = ring + dict mapping Monomial -> coefficient in [1, p)

The zero polynomial has an empty term dict; zero coefficients are never
stored. Values are immutable after construction, so sharing across threads
is safe, and the leading monomial is cached on first use (two threads that
race on it compute the same value). Exponent arithmetic is checked against
a 64-bit limit and raises instead of wrapping.

Packed polynomials map ``_Layout`` keys to coefficients. One product,
``_packed_mul``, and one power from the base-p digits of the exponent,
``_packed_pow``, serve ``poly_pow``, the ideal powers, the Fedder colon,
and the product walk of ``ideals``, which truncates both to the box
S/m^[q]. Elimination is a flag of the layout. ``poly_mul`` and
``frobenius_image`` stay on tuples.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import comb
from operator import add, lshift, mul, neg, or_
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ExponentOverflowError, ResourceCapExceeded, RingMismatchError
from .field import PrimeField

Monomial = tuple[int, ...]

EXP_LIMIT = 2**63 - 1
# terms one product in the box S/m^[q] may collect, and an untruncated power's
# ``power_term_bound`` may reach, before ResourceCapExceeded("max_box_terms")
MAX_BOX_TERMS = 250_000
# pairs one step of a monomial power (``_minimal_power``) may form before pruning
MAX_POWER_PAIRS = 16_000_000


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    out = tuple(map(add, a, b))
    if max(out, default=0) > EXP_LIMIT:
        raise ExponentOverflowError(f"exponent exceeds 2^63-1 in {out}")
    return out


def grevlex_key(mono: Monomial):
    """Sort key realizing graded reverse lexicographic order (ascending)."""
    return (sum(mono), tuple(map(neg, reversed(mono))))


@dataclass(frozen=True, eq=False)
class PolyRing:
    """F_p[x_1, ..., x_n] with a fixed variable order and grevlex order;
    elimination orders live only in packed keys (``_Layout``'s ``elim``).
    Equal as values, with the hash computed once: every layout lookup and
    ring check hashes or compares rings."""

    field: PrimeField
    variables: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variable in {self.variables}")
        object.__setattr__(self, "_hash", hash((self.field, self.variables)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyRing):
            return NotImplemented
        return self is other or (self.field, self.variables) == (other.field, other.variables)

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "SparsePolynomial":
        return SparsePolynomial(self, {})

    def one(self) -> "SparsePolynomial":
        return self.const(1)

    def const(self, c: int) -> "SparsePolynomial":
        c = c % self.p
        if c == 0:
            return self.zero()
        return SparsePolynomial(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "SparsePolynomial":
        i = self.variables.index(name)
        exps = [0] * self.nvars
        exps[i] = 1
        return SparsePolynomial(self, {tuple(exps): 1})

    def monomial(self, exps: Iterable[int], coeff: int = 1) -> "SparsePolynomial":
        mono = tuple(exps)
        if len(mono) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(mono)}")
        if any(e < 0 for e in mono):
            raise ValueError(f"negative exponent in {mono}")
        c = coeff % self.p
        if c == 0:
            return self.zero()
        return SparsePolynomial(self, {mono: c})

    def poly(self, terms: Mapping[Monomial, int]) -> "SparsePolynomial":
        """Build a polynomial from raw terms, reducing coefficients mod p."""
        clean: dict[Monomial, int] = {}
        for mono, c in terms.items():
            mono = tuple(mono)
            if len(mono) != self.nvars:
                raise ValueError(f"expected {self.nvars} exponents, got {len(mono)}")
            c = (clean.get(mono, 0) + c) % self.p
            if c:
                clean[mono] = c
            else:
                clean.pop(mono, None)
        return SparsePolynomial(self, clean)


class SparsePolynomial:
    """An element of a PolyRing in canonical sparse form."""

    __slots__ = ("ring", "terms", "_hash", "_lead")

    def __init__(self, ring: PolyRing, terms: dict[Monomial, int], lead: Monomial | None = None):
        """``lead``, when given, must be the leading monomial of ``terms``."""
        self.ring = ring
        self.terms = terms
        self._hash = None
        self._lead = lead

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(next(iter(self.terms))))

    def is_monomial(self) -> bool:
        """Single-term polynomial (the zero polynomial does not count)."""
        return len(self.terms) == 1

    def lead_monomial(self) -> Monomial:
        lead = self._lead
        if lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading monomial")
            lead = self._lead = max(self.terms, key=grevlex_key)
        return lead

    def lead_coeff(self) -> int:
        return self.terms[self.lead_monomial()]

    def _check_ring(self, other: "SparsePolynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"cannot combine polynomials over {self.ring.variables} "
                f"mod {self.ring.p} and {other.ring.variables} mod {other.ring.p}"
            )

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_ring(other)
        p = self.ring.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = (out.get(m, 0) + c) % p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return SparsePolynomial(self.ring, out)

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + -other

    def __neg__(self) -> "SparsePolynomial":
        p = self.ring.p
        return SparsePolynomial(
            self.ring, {m: (-c) % p for m, c in self.terms.items()}, self._lead
        )

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return poly_mul(self, other)

    def __pow__(self, s: int) -> "SparsePolynomial":
        return poly_pow(self, s)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        from .parser import poly_to_str

        return poly_to_str(self)


def poly_mul(f: SparsePolynomial, g: SparsePolynomial) -> SparsePolynomial:
    """Exact product of two polynomials over the same ring."""
    f._check_ring(g)
    if not f.terms or not g.terms:
        return f.ring.zero()
    p = f.ring.p
    out: dict[Monomial, int] = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            m = mono_mul(ma, mb)
            s = (out.get(m, 0) + ca * cb) % p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return SparsePolynomial(f.ring, out)


def frobenius_image(f: SparsePolynomial, q: int) -> SparsePolynomial:
    """f^q for q = p^e, computed by scaling every exponent by q.

    Valid because the e-fold Frobenius is a ring map fixing F_p: no term
    interaction occurs and coefficients satisfy c^q = c.
    """
    check_q(f.ring.p, q)
    if q == 1:
        return f
    _check_scaled(f, q)
    return SparsePolynomial(f.ring, {tuple(e * q for e in m): c for m, c in f.terms.items()})


def poly_pow(f: SparsePolynomial, s: int) -> SparsePolynomial:
    """f^s by ``_packed_pow`` on a layout whose fields hold its degree.

    Before any product, raises ExponentOverflowError, naming f's first term
    scaled by s past 2^63-1, or ResourceCapExceeded("max_box_terms") when
    ``power_term_bound`` passes MAX_BOX_TERMS.
    """
    if s < 0:
        raise ValueError(f"negative exponent {s}")
    _check_power(f, s)
    lay = _layout(f.ring, _width(s * _top_degree([f])))
    return lay.unpack(_packed_pow(lay.pack(f), s, f.ring.p), ordered=False)


def _check_power(f: SparsePolynomial, s: int):
    """``poly_pow``'s checks on f^s before it is formed."""
    _check_scaled(f, s)
    t, k = len(f.terms), sum(map(any, zip(*f.terms)))
    if power_term_bound(t, _top_degree([f]), k, s, f.ring.p) > MAX_BOX_TERMS:
        detail = f"a {t}-term f^{s} may have more than {MAX_BOX_TERMS} terms"
        raise ResourceCapExceeded("max_box_terms", detail)


def _check_scaled(f: SparsePolynomial, s: int):
    """Raise ExponentOverflowError naming f's first term scaled by s past 2^63-1."""
    m = next((m for m in f.terms if s * max(m) > EXP_LIMIT), None)
    if m is not None:
        raise ExponentOverflowError(f"exponent exceeds 2^63-1 in {tuple(e * s for e in m)}")


def power_term_bound(t: int, deg: int, k: int, s: int, p: int) -> int:
    """An upper bound on the terms of f^s for a t-term f over F_p of degree
    deg in k variables: the smaller of prod C(d + t - 1, t - 1) over the
    base-p digits d of s (f^s is the product of the Frob^i(f^d), and f^d
    has at most C(d + t - 1, t - 1) terms) and C(s * deg + k, k), the
    monomials of degree at most s * deg in k variables."""
    dense, digits = comb(s * deg + k, k), 1
    while t > 1 and s and digits <= dense:
        s, d = divmod(s, p)
        digits *= comb(d + t - 1, t - 1)
    return min(dense, digits)


# ---------------------------------------------------------------------------
# packed monomials


class _Overflow(Exception):
    """A formed monomial reached a guard bit at the field width args[0]."""


class _Layout:
    """The monomials of one ring packed into ints, ``w`` bits per field.

    From the top field down, monomials read [degree | e_(n-1) ... e_0], and
    with ``elim`` [t | degree | e_(n-1) ... e_0]: one more field on top, for
    an elimination variable t, with exponent tuples (t, e_0, ..., e_(n-1));
    a key with t = 0 is the same with or without ``elim``. Each field keeps
    its top (guard) bit clear, so adding two packed monomials multiplies
    them with no carry between fields, and x^g divides x^m iff
    ((m | guards) - g) & guards == guards: no field loses its guard bit. The
    order is the integer order of m ^ asc (asc flips the n fields the degree
    sums, where a larger exponent makes a smaller monomial): grevlex, and
    with ``elim`` t first, then grevlex. Its reverse is that of m ^ desc
    (desc flips the other fields). An exponent-field key (``field_key``)
    leaves the degree field at 0: monomial ideals are pruned on such keys
    and the box S/m^[q] computes on them, with guard bits ``eguards``;
    ``offset(b)`` marks exponents >= b.

    A formed monomial is checked against ``limit``, which holds every guard
    bit and the bits from 2^63 up of each exponent field: ``check`` then
    raises ExponentOverflowError for an exponent past 2^63-1, as tuples do,
    and ``_Overflow`` otherwise.
    """

    __slots__ = (
        "ring", "w", "elim", "shifts", "units", "counted", "dshift", "fmask", "guards", "limit",
        "asc", "desc", "low", "spread", "dmask", "nodeg", "eguards", "ones",
    )

    def __init__(self, ring: PolyRing, w: int, elim: bool = False):
        n, first = ring.nvars, int(elim)
        self.ring, self.w, self.elim = ring, w, elim
        self.shifts = (w * (n + 1),) * first + tuple(w * i for i in range(n))
        self.dshift = w * n
        # the weights the degree field sums, and each exponent's packed unit
        self.counted = (0,) * first + (1,) * n
        self.units = tuple((1 << s) + (c << self.dshift) for s, c in zip(self.shifts, self.counted))
        self.fmask = (1 << w) - 1
        fields = [w * i for i in range(n + first + 1)]
        full = (1 << (w * (n + first + 1))) - 1
        self.guards = sum(1 << (s + w - 1) for s in fields)
        high = (1 << w) - (1 << min(w - 1, 63))
        self.limit = self.guards | sum(high << s for s in fields if s != self.dshift)
        self.low = (1 << self.dshift) - 1
        self.asc, self.desc = self.low, full ^ self.low
        # (m & low) * spread holds the sum of the n low fields in field n
        self.spread = sum(1 << s for s in fields[1 : n + 1])
        self.dmask = self.fmask << self.dshift
        self.nodeg = full ^ self.dmask
        self.eguards = self.guards & self.nodeg
        self.ones = self.eguards >> (w - 1)

    def key(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self.units))

    def field_key(self, mono: Monomial) -> int:
        """The key of mono with the degree field left at 0."""
        return sum(map(lshift, mono, self.shifts))

    def offset(self, b: int) -> int:
        """Added to an exponent-field key, sets the guard bit of each exponent >= b."""
        return self.eguards - b * self.ones

    def exponents(self, m: int) -> Monomial:
        fmask = self.fmask
        return tuple([(m >> s) & fmask for s in self.shifts])

    def pack(self, f: SparsePolynomial) -> dict[int, int]:
        units = self.units
        return {sum(map(mul, m, units)): c for m, c in f.terms.items()}

    def unpack(self, terms: dict[int, int], ordered: bool = True) -> SparsePolynomial:
        """The polynomial of packed terms, listed largest first if ``ordered``."""
        shifts, fmask = self.shifts, self.fmask
        out = {tuple([(m >> s) & fmask for s in shifts]): c for m, c in terms.items()}
        return SparsePolynomial(self.ring, out, next(iter(out), None) if ordered else None)

    def lcm(self, a: int, b: int) -> int:
        g = self.guards
        # full fields of ones where a's exponent is the larger
        take_a = ((((a | g) - b) & g) >> (self.w - 1)) * self.fmask
        m = (b ^ ((a ^ b) & take_a)) & self.nodeg
        return m | ((m & self.low) * self.spread & self.dmask)

    def weighted(self, weights: Sequence[int]):
        """The weighted degree as a function of packed monomials; a read
        of the degree field for the weights it sums."""
        if tuple(weights) == self.counted:
            dshift, fmask = self.dshift, self.fmask
            return lambda m: (m >> dshift) & fmask
        return lambda m: sum(map(mul, self.exponents(m), weights))

    def check(self, keys):
        """The formed packed keys, after raising for one that meets ``limit``."""
        if functools.reduce(or_, keys, 0) & self.limit:
            exps = self.exponents(next(m for m in keys if m & self.limit))
            if max(exps) > EXP_LIMIT:
                raise ExponentOverflowError(f"exponent exceeds 2^63-1 in {exps}")
            raise _Overflow(self.w)
        return keys


@functools.lru_cache(maxsize=64)
def _layout(ring: PolyRing, w: int, elim: bool = False) -> _Layout:
    return _Layout(ring, w, elim)


def _top_degree(polys: Iterable[SparsePolynomial]) -> int:
    return max((max(map(sum, f.terms), default=0) for f in polys), default=0)


def _width(degree: int) -> int:
    """The narrowest field width that holds four times the degree below its
    guard bit: room for the lcms and remainders of most runs."""
    return max(degree, 1).bit_length() + 3


def _packed_mul(
    f: dict[int, int], g: dict[int, int], p: int, lay: Optional[_Layout] = None, b: Optional[int] = None
) -> dict[int, int]:
    """The product of two packed polynomials over F_p.

    With a layout, f, g and the product are exponent-field keys of it in the
    box S/m^[b], truncated to exponents below b: adding ``lay.offset(b)`` to
    a key sets a guard bit exactly when some exponent is >= b, so one mask
    test drops a term. More than MAX_BOX_TERMS collected terms then raise
    ResourceCapExceeded, checked once per term of the shorter factor.
    """
    if not f or not g:
        return {}
    if len(f) > len(g):
        f, g = g, f
    off, high = (0, 0) if lay is None else (lay.offset(b), lay.eguards)
    shifted = [(key + off, c) for key, c in g.items()]
    acc: dict[int, int] = {}
    get = acc.get
    for u, cu in f.items():
        for v, cv in shifted:
            key = u + v
            if not key & high:
                acc[key] = get(key, 0) + cu * cv
        if len(acc) > MAX_BOX_TERMS and lay is not None:
            raise ResourceCapExceeded(
                "max_box_terms", f"a product in S/m^[{b}] passed {MAX_BOX_TERMS} terms"
            )
    out = {}
    for key, c in acc.items():
        c %= p
        if c:
            out[key - off] = c
    return out


def _packed_pow(
    f: dict[int, int], s: int, p: int, lay: Optional[_Layout] = None, q: Optional[int] = None
) -> dict[int, int]:
    """f^s for a packed polynomial f over F_p; with a layout, f and f^s are
    exponent-field keys of it in the box S/m^[q], truncated to exponents
    below q.

    f^s = Frob(f^(s // p)) * f^(s % p), where the Frobenius multiplies every
    key by p, degree field included (c^p = c), and the digit power comes from
    square-and-multiply on s % p < p: no dense f^(2^k) is ever formed. In
    the box, f^(s // p) is taken in the sub-box of side max(q / p, 1), where
    it is exact: x^u escapes m^[q] after one Frobenius iff u < q / p.
    """
    if s < 0:
        raise ValueError(f"negative exponent {s}")
    acc = {0: 1}
    if s >= p:
        inner = _packed_pow(f, s // p, p, lay, None if lay is None else max(q // p, 1))
        acc = {key * p: c for key, c in inner.items()}
    if s % p and acc:
        off, high = (0, 0) if lay is None else (lay.offset(q), lay.eguards)
        power = base = {key: c for key, c in f.items() if not (key + off) & high}
        for bit in bin(s % p)[3:]:
            power = _packed_mul(power, power, p, lay, q)
            if bit == "1":
                power = _packed_mul(power, base, p, lay, q)
        acc = _packed_mul(acc, power, p, lay, q)
    return acc


def minimal_packed(keys: set[int], guards: int) -> list[int]:
    """The minimal elements, under divisibility, of a set of packed
    monomials, in ascending order.

    Every field of a key holds one exponent below the field's top bit, and
    ``guards`` has exactly those top bits set. Then x^u divides x^v iff no
    field of (v | guards) - u loses its guard bit: no field borrows from the
    next. A divisor's key is never larger, so ascending order keeps it
    before anything it divides.

    Ascending keys never decrease in the top field, so every kept key has a
    top field no larger than v's, and only the lower fields decide. With two
    fields, v is minimal iff its low field is below every kept one: one
    pass. With three, v is minimal iff no kept (u1, u0) has u1 <= v1 and
    u0 <= v0; the kept points that no other kept point dominates form a
    staircase, u1 ascending and u0 descending, searched by bisection. Four
    or more fields test v against every kept key.
    """
    kept: list[int] = []
    fields = guards.bit_count()
    mask = ((guards & -guards) << 1) - 1
    if fields == 2:
        floor = mask + 1
        for v in sorted(keys):
            if v & mask < floor:
                floor = v & mask
                kept.append(v)
        return kept
    if fields == 3:
        w = mask.bit_length()
        ones: list[int] = []
        zeros: list[int] = []
        for v in sorted(keys):
            v1, v0 = (v >> w) & mask, v & mask
            i = bisect_right(ones, v1)
            if i and zeros[i - 1] <= v0:
                continue
            kept.append(v)
            # drop the steps v dominates: u1 >= v1 and u0 >= v0
            j = k = bisect_left(ones, v1)
            while k < len(zeros) and zeros[k] >= v0:
                k += 1
            ones[j:k] = [v1]
            zeros[j:k] = [v0]
        return kept
    for v in sorted(keys):
        raised = v | guards
        if not any((raised - u) & guards == guards for u in kept):
            kept.append(v)
    return kept


def _minimal_power(base: list[int], N: int, lay: _Layout, q: Optional[int] = None) -> list[int]:
    """The minimal generators of (base)^N, base minimal exponent-field keys
    of lay: [0] for N = 0, base for N = 1, else ascending, square-and-multiply
    from the top bit of N with each step pruned once. With q, base lies outside
    m^[q] and only products outside it are kept: the truncation to the box.
    A step of more than MAX_POWER_PAIRS pairs raises ResourceCapExceeded
    before any of them is formed."""
    if not N:
        return [0]
    guards, off = lay.eguards, None if q is None else lay.offset(q)

    def prune(keys: set[int]) -> list[int]:
        if off is not None:
            keys = {m for m in keys if not (m + off) & guards}
        return minimal_packed(keys, guards)

    def check(pairs: int):
        if pairs > MAX_POWER_PAIRS:
            detail = f"a step of {pairs} pairs for a^{N} exceeds {MAX_POWER_PAIRS}"
            raise ResourceCapExceeded("max_power_pairs", "poly._minimal_power: " + detail)

    power = base
    for bit in bin(N)[3:]:
        check(len(power) * (len(power) + 1) // 2)
        power = prune({u + v for i, u in enumerate(power) for v in power[i:]})
        if bit == "1":
            check(len(power) * len(base))
            power = prune({u + v for u in power for v in base})
    return power


def check_q(p: int, q: int):
    """Raise ValueError unless q = p^e for some e >= 0."""
    if q < 1:
        raise ValueError(f"q must be a positive power of {p}, got {q}")
    r = q
    while r % p == 0:
        r //= p
    if r != 1:
        raise ValueError(f"q={q} is not a power of p={p}")
