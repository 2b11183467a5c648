"""Exact threshold-exponent arithmetic and the inequality audit.

Every criterion in this package consults exponents of the form
ceil(t*(q-1)), ceil(t*q), or floor(t*(q-1)) for a rational t and q = p^e.
The four inequalities that make those criteria compose across exponents
are exposed here as first-class, exhaustively checkable operations: a bug
in this arithmetic would silently corrupt every verdict downstream, so it
gets machine-checked rather than trusted.

All arithmetic is big-integer exact; nothing here touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .errors import ResourceCapExceeded

AUDIT_RANGE_CAP = 10_000_000


def ceil_mul(t: Fraction, n: int) -> int:
    """Exact ceil(t*n) via integer division."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    num = t.numerator * n
    return -((-num) // t.denominator)


def floor_mul(t: Fraction, n: int) -> int:
    """Exact floor(t*n)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return (t.numerator * n) // t.denominator


@dataclass
class AuditReport:
    """Outcome of an exhaustive inequality audit. Zero violations expected."""

    p: int
    checks: dict[str, int]
    violations: list[dict]

    @property
    def total_checks(self) -> int:
        return sum(self.checks.values())

    @property
    def clean(self) -> bool:
        return not self.violations


def audit_inequalities(
    p: int,
    e_max: int,
    d_max: int,
    t_set: list[Fraction],
    n_max: int = 4,
) -> AuditReport:
    """Exhaustively verify the four ceiling/floor inequalities.

    (a) ceil(t(p^d-1)) + p^d * ceil(t(p^e-1))          >= ceil(t(p^(d+e)-1))
    (b) (1 + p^e + ... + p^((n-1)e)) * ceil(t(p^e-1))  >= ceil(t(p^(ne)-1))
    (c) p^(e-d) * floor(t(p^d-1))                      <= ceil(t(p^e-1))   for e > d
    (d) ceil(t(p^(d+e)-1))                             >= p^d * ceil(t(p^e-1))
                                                          when t(p^e-1) is an integer

    Each is the arithmetic core of a composition argument the criteria
    rely on; a violation means an implementation bug, never new math.
    """
    size = len(t_set) * e_max * (2 * d_max + n_max + d_max)
    if size > AUDIT_RANGE_CAP:
        raise ResourceCapExceeded("audit_range", f"{size} > {AUDIT_RANGE_CAP} cases")

    checks = {"a": 0, "b": 0, "c": 0, "d": 0}
    violations: list[dict] = []

    def violation(name: str, t: Fraction, **where):
        violations.append({"inequality": name, "t": t, "p": p, **where})

    for t in t_set:
        sharp = {e: ceil_mul(t, p**e - 1) for e in range(0, e_max * max(n_max, d_max + 1) + 1)}
        weak = {e: floor_mul(t, p**e - 1) for e in range(0, e_max + 1)}

        for e in range(1, e_max + 1):
            for d in range(1, d_max + 1):
                checks["a"] += 1
                if sharp[d] + p**d * sharp[e] < sharp[d + e]:
                    violation("a", t, e=e, d=d)

            for n in range(1, n_max + 1):
                checks["b"] += 1
                geom = sum(p ** (k * e) for k in range(n))
                if geom * sharp[e] < sharp[n * e]:
                    violation("b", t, e=e, n=n)

            for d in range(1, e):
                checks["c"] += 1
                if p ** (e - d) * weak[d] > sharp[e]:
                    violation("c", t, e=e, d=d)

            if (t * (p**e - 1)).denominator == 1:
                for d in range(1, d_max + 1):
                    checks["d"] += 1
                    if sharp[d + e] < p**d * sharp[e]:
                        violation("d", t, e=e, d=d)

    return AuditReport(p=p, checks=checks, violations=violations)


def denominator_order(t: Fraction, p: int, e_cap: int = 64) -> Optional[int]:
    """Least e >= 1 with t*(p^e - 1) an integer, or None if none exists.

    Such an e exists exactly when p does not divide the reduced
    denominator of t, and is then the multiplicative order of p modulo
    that denominator. If the order exists but exceeds e_cap, raises
    ResourceCapExceeded, which is deliberately distinct from None.
    """
    den = t.denominator
    if den == 1:
        return 1
    if gcd(den, p) != 1:
        return None
    residue = p % den
    acc = residue
    for e in range(1, e_cap + 1):
        if acc == 1 % den:
            return e
        acc = (acc * residue) % den
    raise ResourceCapExceeded(
        "denominator_order_e_cap",
        f"order of {p} mod {den} exceeds e_cap={e_cap} but exists",
    )


def default_rational_grid(max_num: int = 12, max_den: int = 12) -> list[Fraction]:
    """All reduced a/b with 1 <= a <= max_num, 1 <= b <= max_den."""
    out = sorted({Fraction(a, b) for a in range(1, max_num + 1) for b in range(1, max_den + 1)})
    return out
