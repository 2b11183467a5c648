"""Seeded query generators for the benchmark workloads.

Each workload is an endless stream of CLI argv lists, made of rounds.
Every round holds one query of each *stratum* of the workload (a fixed
command and instance size) plus one canary query, in a seeded order.

Each stratum has a catalog of ``CATALOG[workload]`` instances, drawn once
from a fixed seed: supports, exponents, coefficients, variable orders and
pair exponents. A *pass* is ``CATALOG[workload]`` rounds that use every
catalog entry once, in a seeded order. The run's seed orders the queries;
the instances themselves do not depend on it. Runs measure whole passes,
so runs with different seeds time the same multiset of instances and
differ only in order, and every query of every seed has a recorded
output to be checked against. Drawing instances from the seed instead
made the 90th-percentile time spread by about 10% from seed to seed,
more than a useful bound allows.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable, Iterator

VARS = ("x", "y", "z", "w", "v")


def _ring(p: int, n: int) -> str:
    return f"p={p}; vars={','.join(VARS[:n])}"


def _mono(exps) -> str:
    parts = []
    for name, e in zip(VARS, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) or "1"


def _term(c: int, exps) -> str:
    body = _mono(exps)
    if c == 1:
        return body
    return f"{c}*{body}" if body != "1" else str(c)


def _poly(rng: random.Random, p: int, monos) -> str:
    return " + ".join(_term(rng.randrange(1, p), m) for m in monos)


def _random_monos(rng: random.Random, n: int, count: int, dmin: int, dmax: int):
    """``count`` distinct monomials in n variables of degree dmin..dmax."""
    out: list[tuple[int, ...]] = []
    while len(out) < count:
        d = rng.randint(dmin, dmax)
        cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
        exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))
        if exps not in out:
            out.append(exps)
    return out


def _pure_powers(rng: random.Random, n: int, dmin: int, dmax: int):
    """One pure power of each variable, so that every variable occurs."""
    out = []
    for i in range(n):
        exps = [0] * n
        exps[i] = rng.randint(dmin, dmax)
        out.append(tuple(exps))
    return out


def _mixed_monos(rng: random.Random, n: int, count: int, dmin: int, dmax: int):
    """Monomials involving at least two variables."""
    out = []
    while len(out) < count:
        (m,) = _random_monos(rng, n, 1, dmin, dmax)
        if sum(1 for e in m if e) >= 2 and m not in out:
            out.append(m)
    return out


def _hypersurface(rng: random.Random, p: int, n: int, dmax: int, mixed: int) -> str:
    monos = _pure_powers(rng, n, 2, dmax) + _mixed_monos(rng, n, mixed, 2, dmax)
    return _poly(rng, p, monos)


# ---------------------------------------------------------------------------
# thresholds: nu and fpt, dominated by polynomial powers


def _nu_hypersurface(p: int, n: int, emax: int, dmax: int, mixed: int, cmd: str = "nu") -> Callable:
    """nu or fpt of a hypersurface in n variables: pure powers of every
    variable plus up to ``mixed`` mixed terms (none: a binomial or
    trinomial of pure powers)."""
    def gen(rng: random.Random) -> list[str]:
        f = _hypersurface(rng, p, n, dmax, rng.randint(0, mixed) if mixed else 0)
        return [cmd, "--ring", _ring(p, n), "--a", f, "--emax", str(emax)]

    return gen


def _nu_ideal(p: int, n: int, ngens: int, emax: int, cmd: str = "nu") -> Callable:
    def gen(rng: random.Random) -> list[str]:
        gens = []
        for _ in range(ngens):
            monos = _random_monos(rng, n, rng.randint(1, 2), 1, 3)
            gens.append(_poly(rng, p, monos))
        return [cmd, "--ring", _ring(p, n), "--a", ", ".join(gens), "--emax", str(emax)]

    return gen


# ---------------------------------------------------------------------------
# quotients: Fedder-type criteria on non-principal defining ideals


def _scaled(rng: random.Random, p: int, names: list[str]) -> list[str]:
    """Each name times a random unit of F_p; a diagonal change of
    coordinates, so primality and radicality are kept."""
    out = []
    for name in names:
        c = rng.randrange(1, p)
        out.append(name if c == 1 else f"{c}*{name}")
    return out


def _minors(m: list[list[str]]) -> list[str]:
    (a, b, c), (d, e, f) = m
    return [f"({a})*({e}) - ({b})*({d})", f"({a})*({f}) - ({c})*({d})", f"({b})*({f}) - ({c})*({e})"]


def _herzog(rng: random.Random, p: int) -> tuple[int, list[str]]:
    """2x2 minors of [[x^a1, y^b1, z^c1], [y^b2, z^c2, x^a2]]: the prime
    binomial ideal of a monomial space curve (Herzog's normal form)."""
    exps = [1] * 6
    for i in rng.sample(range(6), rng.randint(1, 2)):
        exps[i] = 2
    a1, b1, c1, b2, c2, a2 = exps
    x, y, z = rng.sample(VARS[:3], 3)
    m = [[_mono_of(x, a1), _mono_of(y, b1), _mono_of(z, c1)],
         [_mono_of(y, b2), _mono_of(z, c2), _mono_of(x, a2)]]
    return 3, _minors(m)


def _mono_of(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _scroll(n: int) -> Callable:
    """2x2 minors of a rational normal scroll, coordinates permuted and
    scaled: the twisted cubic for n = 4, S(1,2) for n = 5. Both prime."""
    def family(rng: random.Random, p: int) -> tuple[int, list[str]]:
        names = _scaled(rng, p, rng.sample(VARS[:n], n))
        if n == 4:
            a, b, c, d = names
            m = [[a, b, c], [b, c, d]]
        else:
            a, b, c, d, e = names
            m = [[a, b, d], [b, c, e]]
        return n, _minors(m)

    return family


def _quadric_ci(rng: random.Random, p: int) -> tuple[int, list[str]]:
    """(x*y - z*w, x*z - y*w) in four variables, permuted and scaled. For
    odd p it is a complete intersection of two quadrics whose zero set is
    four planes of degree one each, so it is reduced, hence radical."""
    x, y, z, w = _scaled(rng, p, rng.sample(VARS[:4], 4))
    return 4, [f"({x})*({y}) - ({z})*({w})", f"({x})*({z}) - ({y})*({w})"]


def _criterion(family: Callable, p: int, cmd: str, emax: int, pair: str, verify: bool) -> Callable:
    def gen(rng: random.Random) -> list[str]:
        n, gens = family(rng, p)
        argv = [cmd, "--ring", _ring(p, n), "--ideal", ", ".join(gens), "--emax", str(emax)]
        if pair == "var":
            argv += ["--a", rng.choice(VARS[:n]), "--t", rng.choice(("1/2", "1/3", "1/4"))]
        if verify:
            argv.append("--verify-witness")
        return argv

    return gen


# ---------------------------------------------------------------------------
# chains: test-ideal chains and closure probes, dominated by ideal powers


def _testideal_monomial(p: int, n: int, ngens: int, ts: tuple[str, ...], dmax: int = 3) -> Callable:
    def gen(rng: random.Random) -> list[str]:
        monos = _random_monos(rng, n, ngens, 1, dmax)
        a = ", ".join(_mono(m) for m in monos)
        return ["testideal", "--ring", _ring(p, n), "--a", a, "--t", rng.choice(ts)]

    return gen


def _testideal_binomial(p: int, ts: tuple[str, ...]) -> Callable:
    """A principal binomial x^a - c*y^b, or that binomial plus z^c."""
    def gen(rng: random.Random) -> list[str]:
        x, y, z = rng.sample(VARS[:3], 3)
        c, ypow = rng.randrange(1, p), _mono_of(y, rng.randint(2, 4))
        f = f"{_mono_of(x, rng.randint(2, 3))} - {ypow if c == 1 else f'{c}*{ypow}'}"
        gens = [f] if rng.random() < 0.5 else [f, _mono_of(z, rng.randint(1, 2))]
        return ["testideal", "--ring", _ring(p, 3), "--a", ", ".join(gens), "--t", rng.choice(ts)]

    return gen


def _homogeneous(rng: random.Random, p: int, n: int, d: int) -> str:
    """A homogeneous degree-d polynomial with every pure power present."""
    monos = []
    for i in range(n):
        exps = [0] * n
        exps[i] = d
        monos.append(tuple(exps))
    monos += _mixed_monos(rng, n, 1, d, d)
    return _poly(rng, p, monos)


def _probe(p: int, n: int, d: int, cmd: str, emax: int) -> Callable:
    """closure / witness-check of a monomial z outside the target over the
    hypersurface quotient by a homogeneous degree-d form.

    z has degree below d and is outside the monomial target, so z is not
    in target + (f) and the probe never short-circuits to trivially-in.
    """
    def gen(rng: random.Random) -> list[str]:
        f = _homogeneous(rng, p, n, d)
        while True:
            target = _random_monos(rng, n, 2, 1, 2)
            (z,) = _random_monos(rng, n, 1, 1, d - 1)
            if not any(all(t <= e for t, e in zip(u, z)) for u in target):
                break
        argv = [cmd, "--ring", _ring(p, n), "--defining", f,
                "--ideal", ", ".join(_mono(m) for m in target),
                "--a", rng.choice(VARS[:n]), "--t", rng.choice(("1/2", "1", "1/3")),
                "--z", _mono(z), "--emax", str(emax)]
        if cmd == "witness-check":
            argv += ["--c", rng.choice(VARS[:n])]
        return argv

    return gen


# ---------------------------------------------------------------------------
# canaries: one tiny query per round, so that every traced layer is entered
# on every workload


def _canary(rng: random.Random, item: int) -> list[str]:
    kind = item % 4
    if kind == 0:
        return _nu_hypersurface(2, 2, 2, 3, 0, "fpt")(rng)
    if kind == 1:
        return _testideal_monomial(2, 2, 2, ("1/3",))(rng)
    if kind == 2:
        return _probe(2, 2, 2, "closure", 1)(rng)
    x, y, z = rng.sample(VARS[:3], 3)
    return ["sharp-fedder", "--ring", _ring(2, 3), "--ideal", f"{x} + {y}, {z}", "--emax", "1", "--verify-witness"]


# ---------------------------------------------------------------------------
# registry

WORKLOADS: dict[str, list[Callable]] = {
    # nu and fpt: polynomial powers under a binary search; q = p^emax up to 343.
    # Arguments: p, variables, emax, max degree, max mixed terms.
    "thresholds": [
        _nu_hypersurface(2, 2, 7, 5, 2),
        _nu_hypersurface(2, 2, 6, 5, 2),
        _nu_hypersurface(3, 2, 3, 5, 2),
        _nu_hypersurface(5, 2, 2, 4, 2),
        _nu_hypersurface(5, 2, 3, 5, 0),
        _nu_hypersurface(7, 2, 3, 5, 0),
        _nu_hypersurface(2, 2, 4, 5, 2, "fpt"),
        _nu_hypersurface(5, 2, 1, 4, 2, "fpt"),
        _nu_hypersurface(5, 2, 2, 5, 0, "fpt"),
        _nu_hypersurface(3, 3, 3, 4, 1),
        _nu_hypersurface(2, 3, 5, 4, 1),
        _nu_ideal(3, 2, 2, 3),
        _nu_ideal(2, 3, 3, 3),
        _nu_ideal(5, 2, 2, 2),
        _nu_ideal(3, 2, 2, 2, "fpt"),
    ],
    # Fedder criteria on non-principal defining ideals: colon by elimination
    "quotients": [
        _criterion(_herzog, 2, "sharp-fedder", 1, "unit", False),
        _criterion(_herzog, 2, "fedder", 1, "unit", False),
        _criterion(_herzog, 2, "strong-fedder", 1, "var", True),
        _criterion(_herzog, 2, "sharp-fedder", 1, "var", True),
        _criterion(_scroll(4), 3, "sharp-fedder", 1, "unit", False),
        _criterion(_scroll(4), 2, "sharp-fedder", 2, "unit", True),
        _criterion(_scroll(4), 3, "strong-fedder", 1, "var", False),
        _criterion(_scroll(5), 2, "strong-fedder", 1, "var", True),
        _criterion(_scroll(5), 2, "fedder", 1, "unit", False),
        _criterion(_quadric_ci, 3, "sharp-fedder", 2, "unit", True),
        _criterion(_quadric_ci, 3, "fedder", 1, "unit", False),
        _criterion(_quadric_ci, 3, "strong-fedder", 1, "var", False),
        _criterion(_quadric_ci, 3, "sharp-fedder", 1, "var", True),
    ],
    # test-ideal chains and closure probes: ideal powers and reductions
    "chains": [
        _testideal_monomial(2, 2, 2, ("1/3", "2/3", "5/3")),
        _testideal_monomial(2, 2, 3, ("3/2",)),
        _testideal_monomial(2, 3, 2, ("5/3",)),
        _testideal_monomial(2, 3, 3, ("1/3",)),
        _testideal_monomial(3, 2, 2, ("1/2", "2/3")),
        _testideal_monomial(3, 2, 3, ("1/2",)),
        _testideal_monomial(3, 3, 3, ("1/2", "2/3"), dmax=2),
        _testideal_monomial(5, 2, 2, ("1/2",), dmax=2),
        _testideal_monomial(5, 2, 2, ("3/4",), dmax=2),
        _testideal_binomial(2, ("1/2", "1/3", "1")),
        _testideal_binomial(3, ("1/2", "1")),
        _testideal_binomial(5, ("1/2", "1/4")),
        _probe(3, 2, 3, "closure", 3),
        _probe(2, 3, 3, "closure", 4),
        _probe(3, 3, 2, "closure", 2),
        _probe(3, 2, 3, "witness-check", 3),
        _probe(2, 3, 3, "witness-check", 3),
    ],
}

# shapes per stratum; a run should pass through the catalog several times
CATALOG = {"thresholds": 12, "quotients": 3, "chains": 12}
# queries generated during set-up; the stream continues past them on demand
PREFETCH_ROUNDS = 40
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def stream(workload: str, seed: int) -> Iterator[list[str]]:
    """The endless query stream of a workload under a seed."""
    strata = WORKLOADS[workload]
    size = CATALOG[workload]
    round_no = 0
    while True:
        rng = random.Random(f"{workload}:{seed}:{round_no}")
        catalog_pass, position = divmod(round_no, size)
        items = list(range(size))
        random.Random(f"{workload}:{seed}:pass:{catalog_pass}").shuffle(items)
        item = items[position]
        batch = [gen(random.Random(f"{workload}:{k}:{item}")) for k, gen in enumerate(strata)]
        batch.append(_canary(random.Random(f"{workload}:canary:{item}"), item))
        rng.shuffle(batch)
        yield from batch
        round_no += 1


def pass_length(workload: str) -> int:
    """Queries in one pass through the catalog (canaries included)."""
    return CATALOG[workload] * (len(WORKLOADS[workload]) + 1)


def prefetch_count(workload: str) -> int:
    return PREFETCH_ROUNDS * (len(WORKLOADS[workload]) + 1)


def query_key(argv: list[str]) -> str:
    """One-line identity of a query, used to look up recorded outputs."""
    return " ".join(a if " " not in a and a else repr(a) for a in argv)


def load_expected(workload: str) -> dict[str, dict]:
    """Recorded reports by query key (see record_expected.py)."""
    with open(EXPECTED_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)
