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

One regular expression splits the text into tokens, read in one pass.
Integer and variable factors go straight into one term dict per
polynomial; only a parenthesised factor is built as a polynomial. A power
or product of factors of two or more terms that could pass
MAX_PARSED_TERMS terms raises ResourceCapExceeded before it is formed:
f^N has at most ``power_term_bound`` terms, and f*g at most |f|*|g|.
The parser recurses per parenthesis (two frames a level), so nesting
deeper than MAX_PARSED_DEPTH raises ParseError, and so does nesting deeper
than the caller's remaining stack allows: parse_poly and parse_poly_list
turn a RecursionError into ParseError.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ExponentOverflowError, ParseError, ResourceCapExceeded
from .field import PrimeField, is_prime
from .poly import EXP_LIMIT, PolyRing, SparsePolynomial, grevlex_key, poly_mul, poly_pow
from .poly import _top_degree, power_term_bound

_TOKEN_RE = re.compile(r"[0-9]+|[a-z][a-zA-Z0-9_]*|\S")
_INT_LIMIT = 2**63
MAX_PARSED_TERMS = 200_000
MAX_PARSED_DEPTH = 400


class _Tokens:
    """The tokens of one text and the index of the next; "" ends the list."""

    __slots__ = ("text", "toks", "i", "depth")

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN_RE.findall(text) + [""]
        self.i = 0
        self.depth = 0  # parentheses open at token i

    def pos(self, k: int, end: bool = False) -> int:
        """Where token k starts (or ends) in the text."""
        spans = [m.span() for m in _TOKEN_RE.finditer(self.text)]
        return (spans + [(len(self.text),) * 2])[k][end]

    def accept(self, tok: str) -> bool:
        if self.toks[self.i] == tok:
            self.i += 1
            return True
        return False

    def expect(self, tok: str):
        if not self.accept(tok):
            raise ParseError(f"expected {tok!r}", self.pos(self.i))

    def integer(self) -> int:
        tok = self.toks[self.i]
        if not "0" <= tok[:1] <= "9":
            raise ParseError("expected an integer", self.pos(self.i))
        value = int(tok)
        if value >= _INT_LIMIT:
            raise ParseError("integer literal exceeds 64 bits", self.pos(self.i))
        self.i += 1
        return value

    def ident(self) -> str:
        tok = self.toks[self.i]
        if not "a" <= tok[:1] <= "z":
            raise ParseError("expected an identifier", self.pos(self.i))
        self.i += 1
        return tok

    def exponent(self) -> int:
        """The integer after a "^", or 1 when there is no "^"."""
        if not self.accept("^"):
            return 1
        if self.toks[self.i] == "-":
            raise ParseError("negative exponent", self.pos(self.i - 1, end=True))
        return self.integer()

    def require_end(self):
        if self.toks[self.i]:
            raise ParseError(f"unexpected {self.toks[self.i][0]!r}", self.pos(self.i))


def parse_ring(text: str) -> PolyRing:
    """Parse 'p=<prime>; vars=<id>,<id>,...' into a ring."""
    tk = _Tokens(text)
    if tk.ident() != "p":
        raise ParseError("expected 'p='", tk.pos(0))
    tk.expect("=")
    p = tk.integer()
    if not is_prime(p):
        raise ParseError(f"{p} is not prime", tk.pos(tk.i - 2, end=True))
    tk.expect(";")
    if tk.ident() != "vars":
        raise ParseError("expected 'vars='", tk.pos(tk.i - 2, end=True))
    tk.expect("=")
    names = [tk.ident()]
    while tk.accept(","):
        names.append(tk.ident())
        if names[-1] in names[:-1]:
            raise ParseError(f"duplicate variable {names[-1]!r}", tk.pos(tk.i - 2, end=True))
    tk.require_end()
    return PolyRing(PrimeField(p), tuple(names))


def parse_poly(text: str, ring: PolyRing) -> SparsePolynomial:
    """Parse a polynomial in the ring's variables, coefficients mod p."""
    tk = _Tokens(text)
    try:
        poly = SparsePolynomial(ring, _sum(tk, ring))
    except RecursionError:
        raise _too_deep(tk) from None
    tk.require_end()
    return poly


def parse_poly_list(text: str, ring: PolyRing) -> list[SparsePolynomial]:
    """Parse a comma-separated list of polynomials (for ideal generators)."""
    tk = _Tokens(text)
    try:
        polys = [SparsePolynomial(ring, _sum(tk, ring))]
        while tk.accept(","):
            polys.append(SparsePolynomial(ring, _sum(tk, ring)))
    except RecursionError:
        raise _too_deep(tk) from None
    tk.require_end()
    return polys


def _too_deep(tk: _Tokens) -> ParseError:
    return ParseError("parentheses nested deeper than the stack allows", tk.pos(tk.i))


def _sum(tk: _Tokens, ring: PolyRing) -> dict:
    """poly: every term added into the first term's dict, which _term
    builds afresh for each term."""
    p, toks = ring.p, tk.toks
    negate = tk.accept("-")
    out = _term(tk, ring)
    if negate:
        out = {mono: -c % p for mono, c in out.items()}
    while toks[tk.i] in ("+", "-"):
        sign = 1 if toks[tk.i] == "+" else -1
        tk.i += 1
        for mono, c in _term(tk, ring).items():
            c = (out.get(mono, 0) + sign * c) % p
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
    return out


def _term(tk: _Tokens, ring: PolyRing) -> dict:
    """term, as a new term dict that nothing else holds. Integer and
    variable factors multiply into one coefficient and exponent list until
    a parenthesised factor makes the product a polynomial. Zero products,
    overflow and its message are poly_mul's on the same factors."""
    p, toks, variables = ring.p, tk.toks, ring.variables
    coef, exps, poly = 1, [0] * ring.nvars, None
    while True:
        if toks[tk.i] == "(":
            tk.depth += 1
            if tk.depth > MAX_PARSED_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_PARSED_DEPTH}", tk.pos(tk.i))
            tk.i += 1
            factor = SparsePolynomial(ring, _sum(tk, ring))
            tk.expect(")")
            tk.depth -= 1
            factor = _power(factor, tk.exponent())
            if poly is None and coef == 1 and not any(exps):
                poly, factor = factor, None
            elif poly is None:
                poly = SparsePolynomial(ring, {tuple(exps): coef} if coef else {})
        else:
            if toks[tk.i][:1].isdigit():  # integer() rejects a non-ASCII digit
                c, idx, k = pow(tk.integer(), tk.exponent(), p), 0, 0
            else:
                name = tk.ident()
                if name not in variables:
                    raise ParseError(f"unknown variable {name!r}", tk.pos(tk.i - 1))
                c, idx, k = 1, variables.index(name), tk.exponent()
            if poly is None:
                factor = None
                if coef:
                    coef = coef * c % p
                    if k:  # an integer factor has no variable to raise
                        exps[idx] += k
                        if exps[idx] > EXP_LIMIT:
                            raise ExponentOverflowError(f"exponent exceeds 2^63-1 in {tuple(exps)}")
            else:
                factor = ring.monomial([k if j == idx else 0 for j in range(ring.nvars)], c)
        if factor is not None:
            poly = _product(poly, factor)
        if not tk.accept("*"):
            return poly.terms if poly is not None else ({tuple(exps): coef} if coef else {})


def _power(base: SparsePolynomial, n: int) -> SparsePolynomial:
    if n > 1:
        t, k = len(base.terms), sum(map(any, zip(*base.terms)))
        if power_term_bound(t, _top_degree([base]), k, n, base.ring.p) > MAX_PARSED_TERMS:
            raise _too_many(f"a {t}-term factor to the power {n}")
    return base if n == 1 else poly_pow(base, n)


def _product(f: SparsePolynomial, g: SparsePolynomial) -> SparsePolynomial:
    m, n = len(f.terms), len(g.terms)
    if min(m, n) > 1 and m * n > MAX_PARSED_TERMS:
        raise _too_many(f"a product of {m}- and {n}-term factors")
    return poly_mul(f, g)


def _too_many(what: str) -> ResourceCapExceeded:
    detail = f"{what} may have more than {MAX_PARSED_TERMS} terms"
    return ResourceCapExceeded("max_parsed_terms", detail)


def parse_rational(text: str) -> Fraction:
    """Parse '<int>' or '<int>/<int>' into a reduced, strictly positive
    Fraction, as a pair exponent must be."""
    tk = _Tokens(text)
    negate = tk.accept("-")
    num = tk.integer()
    den = 1
    if tk.accept("/"):
        den = tk.integer()
        if den == 0:
            raise ParseError("zero denominator", tk.pos(tk.i - 2, end=True))
    tk.require_end()
    value = Fraction(-num if negate else num, den)
    if value <= 0:
        raise ParseError("exponent must be positive", tk.pos(0))
    return value


def poly_to_str(f: SparsePolynomial) -> str:
    """Canonical form: terms in descending grevlex, coefficients in [1, p).

    parse_poly inverts this exactly, which is the round-trip contract the
    fixtures and the CLI echo rely on.
    """
    if not f.terms:
        return "0"
    names, parts = f.ring.variables, []
    for mono in sorted(f.terms, key=grevlex_key, reverse=True):
        factors = [f"{name}^{e}" if e > 1 else name for name, e in zip(names, mono) if e]
        c = f.terms[mono]
        if c != 1 or not factors:
            factors.insert(0, str(c))
        parts.append("*".join(factors))
    return " + ".join(parts)


def ring_to_str(ring: PolyRing) -> str:
    return f"p={ring.p}; vars={','.join(ring.variables)}"


def rational_to_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
