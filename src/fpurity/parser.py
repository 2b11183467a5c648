"""Text input and output for rings, polynomials, ideals, and rationals.

Grammar (whitespace is insignificant everywhere):

    ring      :=  "p=" INT ";" "vars=" IDENT ("," IDENT)*
    poly      :=  ["-"] term (("+" | "-") term)*
    term      :=  factor ("*" factor)*
    factor    :=  base ["^" INT]
    base      :=  INT | IDENT | "(" poly ")"
    rational  :=  ["-"] INT ["/" INT]
    IDENT     :=  [a-z][a-zA-Z0-9_]*

Exponentiation binds tightest, then "*", then "+"/"-". Implicit
multiplication is not part of the grammar: "xy" is a single identifier.
Integer literals must fit in 64 bits. Every failure raises ParseError
carrying the offending position.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .field import PrimeField, is_prime
from .poly import PolyRing, SparsePolynomial

_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")
_INT_LIMIT = 2**63


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def try_consume(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            raise ParseError("expected an integer", self.pos)
        value = int(m.group())
        if value >= _INT_LIMIT:
            raise ParseError("integer literal exceeds 64 bits", self.pos)
        self.pos = m.end()
        return value

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            raise ParseError("expected an identifier", self.pos)
        self.pos = m.end()
        return m.group()

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def require_end(self):
        if not self.at_end():
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)


def parse_ring(text: str) -> PolyRing:
    """Parse 'p=<prime>; vars=<id>,<id>,...' into a ring."""
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


def parse_poly(text: str, ring: PolyRing) -> SparsePolynomial:
    """Parse a polynomial in the ring's variables, coefficients mod p."""
    sc = _Scanner(text)
    poly = _parse_sum(sc, ring)
    sc.require_end()
    return poly


def _parse_sum(sc: _Scanner, ring: PolyRing) -> SparsePolynomial:
    negate = sc.try_consume("-")
    acc = _parse_term(sc, ring)
    if negate:
        acc = -acc
    while True:
        if sc.try_consume("+"):
            acc = acc + _parse_term(sc, ring)
        elif sc.try_consume("-"):
            acc = acc - _parse_term(sc, ring)
        else:
            return acc


def _parse_term(sc: _Scanner, ring: PolyRing) -> SparsePolynomial:
    acc = _parse_factor(sc, ring)
    while sc.try_consume("*"):
        acc = acc * _parse_factor(sc, ring)
    return acc


def _parse_factor(sc: _Scanner, ring: PolyRing) -> SparsePolynomial:
    base = _parse_base(sc, ring)
    if sc.try_consume("^"):
        exp_pos = sc.pos
        if sc.peek() == "-":
            raise ParseError("negative exponent", exp_pos)
        return base ** sc.integer()
    return base


def _parse_base(sc: _Scanner, ring: PolyRing) -> SparsePolynomial:
    ch = sc.peek()
    if ch == "(":
        sc.expect("(")
        inner = _parse_sum(sc, ring)
        sc.expect(")")
        return inner
    if ch.isdigit():
        return ring.const(sc.integer())
    name_pos = sc.pos
    name = sc.ident()
    if name not in ring.variables:
        raise ParseError(f"unknown variable {name!r}", name_pos)
    return ring.var(name)


def parse_poly_list(text: str, ring: PolyRing) -> list[SparsePolynomial]:
    """Parse a comma-separated list of polynomials (for ideal generators)."""
    sc = _Scanner(text)
    polys = [_parse_sum(sc, ring)]
    while sc.try_consume(","):
        polys.append(_parse_sum(sc, ring))
    sc.require_end()
    return polys


def parse_rational(text: str) -> Fraction:
    """Parse '<int>' or '<int>/<int>' into a reduced, strictly positive
    Fraction, as a pair exponent must be."""
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


def mono_to_str(ring: PolyRing, mono, coeff: int) -> str:
    parts = []
    if coeff != 1 or all(e == 0 for e in mono):
        parts.append(str(coeff))
    for name, e in zip(ring.variables, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_to_str(f: SparsePolynomial) -> str:
    """Canonical form: terms in descending grevlex, coefficients in [1, p).

    parse_poly inverts this exactly, which is the round-trip contract the
    fixtures and the CLI echo rely on.
    """
    if not f.terms:
        return "0"
    monos = sorted(f.terms, key=f.ring.key, reverse=True)
    return " + ".join(mono_to_str(f.ring, m, f.terms[m]) for m in monos)


def ring_to_str(ring: PolyRing) -> str:
    return f"p={ring.p}; vars={','.join(ring.variables)}"


def rational_to_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
