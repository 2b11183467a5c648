"""Output checks for the benchmark's queries.

Two kinds of check, both on the ``--json`` report of one query:

* ``expected_mismatch`` compares verdict fields (never prose notes) with
  the report recorded for the same argv in ``expected/<workload>.json``.
  Ideal-valued fields are compared as ideals.
* ``invariant_violation`` checks facts that hold for any seed and need no
  engine: the nu-table window, interval nesting, witness shape, chain
  indexing, and the degree argument that keeps closure probes out of
  ``trivially-in``.

Both return None when the report passes, else a one-line reason.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

NOTE_FIELDS = ("note",)
_TERM = re.compile(r"^(?:(\d+)\*)?(.*)$")


# ---------------------------------------------------------------------------
# polynomials and ideals as text


def _ring_info(ring: str) -> tuple[int, list[str]]:
    head, tail = ring.split(";")
    return int(head.split("=")[1]), [v.strip() for v in tail.split("=")[1].split(",")]


def _parse_terms(poly: str, names: list[str]) -> dict[tuple[int, ...], int]:
    """Canonical output text (``c*x^a*y^b + ...``) to {exponents: coeff}."""
    if poly.strip() == "0":
        return {}
    terms = {}
    for chunk in poly.split(" + "):
        m = _TERM.match(chunk.strip())
        coeff = int(m.group(1)) if m.group(1) else 1
        exps = [0] * len(names)
        body = m.group(2)
        if body.isdigit():
            coeff, body = int(body), ""
        for factor in filter(None, body.split("*")):
            name, _, e = factor.partition("^")
            exps[names.index(name)] += int(e) if e else 1
        terms[tuple(exps)] = coeff
    return terms


def _monic_key(terms: dict[tuple[int, ...], int], p: int) -> tuple:
    """A generator up to a unit: scale so the largest monomial has
    coefficient 1 (any fixed choice works for deduplication)."""
    lead = max(terms)
    inv = pow(terms[lead], -1, p)
    return tuple(sorted((m, c * inv % p) for m, c in terms.items()))


def _normalized(gens: list[str], p: int, names: list[str]) -> frozenset:
    keys = set()
    for g in gens:
        terms = _parse_terms(g, names)
        if len(terms) == 1 and not any(next(iter(terms))):
            return frozenset({"unit"})
        if terms:
            keys.add(_monic_key(terms, p))
    return frozenset(keys)


def _is_monomial(gens: list[str], names: list[str]) -> bool:
    return all(len(_parse_terms(g, names)) == 1 for g in gens if g != "0")


def _minimal(monos) -> frozenset:
    monos = set(monos)
    return frozenset(m for m in monos if not any(o != m and _divides(o, m) for o in monos))


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monomial_ideal(gens: list[str], names: list[str]) -> frozenset:
    return _minimal(next(iter(_parse_terms(g, names))) for g in gens if g != "0")


def same_ideal(ring: str, first: list[str], second: list[str]) -> bool:
    """Exact ideal equality of two generator lists in output form.

    Monomial ideals compare by minimal generators. Otherwise generator
    sets equal up to units decide equality; when they differ, reduced
    Groebner bases from sympy decide it, an oracle independent of the
    program. Without sympy a difference counts as a mismatch.
    """
    p, names = _ring_info(ring)
    if _is_monomial(first, names) and _is_monomial(second, names):
        return _monomial_ideal(first, names) == _monomial_ideal(second, names)
    if _normalized(first, p, names) == _normalized(second, p, names):
        return True
    try:
        from sympy import groebner, symbols
    except ImportError:
        return False
    syms = symbols(" ".join(names))
    syms = syms if isinstance(syms, tuple) else (syms,)
    env = dict(zip(names, syms))

    def basis(gens):
        exprs = [eval(g.replace("^", "**"), {"__builtins__": {}}, env) for g in gens if g != "0"]
        if not exprs:
            return []
        return sorted(str(e) for e in groebner(exprs, *syms, modulus=p, order="grevlex").exprs)

    return basis(first) == basis(second)


# ---------------------------------------------------------------------------
# comparison with recorded outputs


def _strip_notes(value):
    if isinstance(value, dict):
        return {k: _strip_notes(v) for k, v in value.items() if k not in NOTE_FIELDS}
    if isinstance(value, list):
        return [_strip_notes(v) for v in value]
    return value


def expected_mismatch(report: dict, expected: dict) -> str | None:
    cmd = report.get("command")
    if cmd != expected.get("command"):
        return f"command {cmd!r} != {expected.get('command')!r}"
    if cmd == "testideal":
        ring = report["inputs"]["ring"]
        if not same_ideal(ring, report["tau"], expected["tau"]):
            return f"tau {report['tau']} != {expected['tau']}"
        for key in ("stabilized_at", "e_floor"):
            if report[key] != expected[key]:
                return f"{key} {report[key]} != {expected[key]}"
        got = [row["e"] for row in report["chain"]]
        want = [row["e"] for row in expected["chain"]]
        if got != want:
            return f"chain exponents {got} != {want}"
        for mine, theirs in zip(report["chain"], expected["chain"]):
            if not same_ideal(ring, mine["ideal"], theirs["ideal"]):
                return f"chain entry e={mine['e']} differs"
        return None
    for key in expected:
        if key in ("inputs",) + NOTE_FIELDS:
            continue
        if _strip_notes(report.get(key)) != _strip_notes(expected[key]):
            return f"{key} differs from the recorded output"
    return None


# ---------------------------------------------------------------------------
# seed-independent invariants


def _denominator_order(t: Fraction, p: int):
    """Least e >= 1 with t(p^e - 1) integral, or None."""
    if t.denominator == 1:
        return 1
    if gcd(t.denominator, p) != 1:
        return None
    e, acc = 1, p % t.denominator
    while acc != 1 % t.denominator:
        acc = acc * p % t.denominator
        e += 1
    return e


def _check_nu_rows(rows: list[dict], p: int, n: int, mu: int, with_bounds: bool) -> str | None:
    nus = []
    for i, row in enumerate(rows, start=1):
        q = p**i
        if row["e"] != i or int(row["q"]) != q:
            return f"nu row {i} has e={row['e']} q={row['q']}"
        nu = int(row["nu"])
        if not 0 <= nu <= n * (q - 1):
            return f"nu({q})={nu} outside [0, n(q-1)]"
        if with_bounds and (
            Fraction(row["lo"]) != Fraction(nu, q) or Fraction(row["hi"]) != Fraction(nu + mu, q)
        ):
            return f"nu({q}) interval is not [nu/q, (nu+mu)/q]"
        nus.append(nu)
    for i in range(1, len(nus)):
        prev, cur = nus[i - 1], nus[i]
        if cur < p * prev:
            return f"nu(pq)={cur} < p*nu(q)={p * prev}"
        if mu == 1 and cur > p * prev + p - 1:
            return f"principal nu(pq)={cur} > p*nu(q)+p-1={p * prev + p - 1}"
    return None


def _check_criterion(report: dict, argv: list[str]) -> str | None:
    p, names = _ring_info(report["inputs"]["ring"])
    verdict, witness = report["verdict"], report["witness"]
    emax = report["inputs"]["emax"]
    per_e = {int(e): held for e, held in verdict["per_e"].items()}
    tested = verdict["e_tested"]
    if sorted(per_e) != tested or tested != list(range(1, len(tested) + 1)):
        return f"e_tested {tested} does not match per_e {sorted(per_e)}"
    held = [e for e in tested if per_e[e]]
    if report["command"] == "fedder":
        if tested != list(range(1, emax + 1)):
            return "classic run did not test every e <= emax"
        want = "failed-at-all" if not held else "inconclusive"
    else:
        stop = held[0] if held else emax
        if tested != list(range(1, stop + 1)):
            return "sharp/strong run did not stop at its first proof"
        want = "proven-pure" if held else "inconclusive"
    if verdict["outcome"] != want:
        return f"outcome {verdict['outcome']!r}, per_e implies {want!r}"
    if report["command"] == "fedder":
        return None
    if not held:
        return None if witness is None else "inconclusive verdict carries a witness"
    e = witness["e"]
    q = p**e
    if e != held[0] or int(witness["q"]) != q or witness["escapes"] != f"m^[{q}]":
        return f"witness e={e} q={witness['q']} inconsistent with per_e"
    terms = _parse_terms(witness["generator"], names)
    if not any(all(x < q for x in m) for m in terms):
        return f"witness has no term with every exponent < {q}"
    if "--verify-witness" in argv and witness.get("verified") is not True:
        return "witness did not re-verify"
    return None


def _check_fpt(report: dict) -> str | None:
    p, names = _ring_info(report["inputs"]["ring"])
    rows = report["nu_table"]
    mu = len(report["inputs"]["a"])
    if (err := _check_nu_rows(rows, p, len(names), mu, False)) is not None:
        return err
    lo = max(Fraction(int(r["nu"]), int(r["q"])) for r in rows)
    hi = min(Fraction(int(r["nu"]) + mu, int(r["q"])) for r in rows)
    if Fraction(report["interval"]["lo"]) != lo or Fraction(report["interval"]["hi"]) != hi:
        return "interval is not the intersection of the nu intervals"
    if not lo <= hi:
        return "empty interval"
    cert, label = report["certificate"], report["label"]
    if cert is None:
        return None if label == "interval" else f"label {label!r} without certificate"
    t_star = Fraction(cert["t_star"])
    if not lo <= t_star <= hi:
        return f"t* {t_star} outside [{lo}, {hi}]"
    order = _denominator_order(t_star, p)
    if cert["kind"] == "mustata-converse":
        if mu != 1 or t_star >= 1 or cert["e_star"] != order or not cert["exact"] or label != "exact":
            return "malformed integrality certificate"
    elif cert["kind"] == "sharp-fedder":
        if cert["exact"] != (t_star == hi) or label != ("exact" if cert["exact"] else "lower-bound"):
            return "sharp certificate exactness does not match the interval top"
    else:
        return f"unknown certificate kind {cert['kind']!r}"
    return None


def _check_testideal(report: dict) -> str | None:
    ring = report["inputs"]["ring"]
    p, names = _ring_info(ring)
    t = Fraction(report["inputs"]["t"])
    e_floor = _denominator_order(t, p) or 1
    if report["e_floor"] != e_floor:
        return f"e_floor {report['e_floor']} != {e_floor}"
    s = report["stabilized_at"]
    chain = report["chain"]
    if s < e_floor or [row["e"] for row in chain] != list(range(1, s + 3)):
        return f"chain exponents do not end at stabilized_at+2={s + 2}"
    for row in chain[s - 1 :]:
        if not same_ideal(ring, row["ideal"], report["tau"]):
            return f"chain entry e={row['e']} differs from tau"
    if _is_monomial(report["inputs"]["a"], names):
        prev = None
        for row in chain:
            cur = _monomial_ideal(row["ideal"], names)
            if prev is not None and not all(any(_divides(g, m) for g in cur) for m in prev):
                return f"monomial chain does not ascend at e={row['e']}"
            prev = cur
    return None


def _check_closure(report: dict) -> str | None:
    verdict = report["verdict"]
    tested, held, failed = verdict["e_tested"], verdict["held_e"], verdict["failed_e"]
    if verdict["outcome"] == "trivially-in":
        return "z was generated outside target + (f), yet reported trivially-in"
    if sorted(held + failed) != tested or set(held) & set(failed):
        return "held_e and failed_e do not partition e_tested"
    cert = verdict["certified_e"]
    if cert is not None:
        p, _ = _ring_info(report["inputs"]["ring"])
        t = Fraction(report["inputs"]["t"])
        if verdict["outcome"] != "certified-in" or cert not in held or (t * (p**cert - 1)).denominator != 1:
            return "certificate at an exponent that does not qualify"
        return None
    want = "failed-at" if failed else "bounded-in"
    if verdict["outcome"] != want:
        return f"outcome {verdict['outcome']!r}, held/failed imply {want!r}"
    return None


def _check_witness(report: dict) -> str | None:
    verdict = report["verdict"]
    trace = verdict["trace"]
    if sorted(int(e) for e in trace) != list(range(0, len(trace))):
        return "trace exponents are not 0..emax"
    if verdict["consistent"] != all(trace.values()):
        return "consistent flag disagrees with the trace"
    # row e=0 is c*z in target + (f); z, c and the target are monomials and
    # f is homogeneous of degree above deg z, so it is decidable by hand
    inputs = report["inputs"]
    p, names = _ring_info(inputs["ring"])
    (z,) = _parse_terms(inputs["z"], names)
    (c,) = _parse_terms(inputs["c"], names)
    cz = tuple(a + b for a, b in zip(c, z))
    target = _monomial_ideal(inputs["target"], names)
    f_terms = _parse_terms(inputs["defining"][0], names)
    in_target = any(_divides(g, cz) for g in target)
    via_f = cz in f_terms and all(any(_divides(g, m) for g in target) for m in f_terms if m != cz)
    if trace["0"] != (in_target or via_f):
        return f"trace row e=0 is {trace['0']}, c*z in target+(f) is {in_target or via_f}"
    return None


def invariant_violation(report: dict, argv: list[str]) -> str | None:
    cmd = report.get("command")
    if cmd == "nu":
        p, names = _ring_info(report["inputs"]["ring"])
        return _check_nu_rows(report["nu_table"], p, len(names), len(report["inputs"]["a"]), True)
    if cmd == "fpt":
        return _check_fpt(report)
    if cmd in ("sharp-fedder", "strong-fedder", "fedder"):
        return _check_criterion(report, argv)
    if cmd == "testideal":
        return _check_testideal(report)
    if cmd == "closure":
        return _check_closure(report)
    if cmd == "witness-check":
        return _check_witness(report)
    return f"unexpected command {cmd!r}"
