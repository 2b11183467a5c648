"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each layer's public functions with timing and
counting wrappers. A module that did ``from .ideals import colon`` holds
its own binding of ``colon``, so the wrapper is installed in every
``fpurity`` module namespace that holds the original object, and on the
``Ideal.groebner`` class attribute. ``Tracer.uninstall`` puts the
originals back.

Spans nest on one stack (the benchmark is single-threaded). A span's self
time is its duration minus the durations of the spans it directly
contains. Private helpers such as ``_normal_form``, ``_buchberger`` and
``_minimal_monomials`` are not wrapped: their time shows in the self
time of the public function that called them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, module, attribute). Several functions may share a span name;
# the span then sums them.
SPANS = [
    ("cli.run", "cli", "run"),
    ("parser", "parser", "parse_ring"),
    ("parser", "parser", "parse_poly"),
    ("parser", "parser", "parse_poly_list"),
    ("parser", "parser", "parse_rational"),
    ("parser", "parser", "poly_to_str"),
    ("parser", "parser", "ring_to_str"),
    ("parser", "parser", "rational_to_str"),
    ("poly.poly_mul", "poly", "poly_mul"),
    ("poly.poly_pow", "poly", "poly_pow"),
    ("poly.frobenius_image", "poly", "frobenius_image"),
    ("ideals.membership", "ideals", "membership"),
    ("ideals.ideal_contains", "ideals", "ideal_contains"),
    ("ideals.ideal_equals", "ideals", "ideal_equals"),
    ("ideals.bracket_power", "ideals", "bracket_power"),
    ("ideals.root_power", "ideals", "root_power"),
    ("ideals.ideal_power", "ideals", "ideal_power"),
    ("ideals.intersect", "ideals", "intersect"),
    ("ideals.colon", "ideals", "colon"),
    ("purity.criterion", "purity", "sharp_fedder"),
    ("purity.criterion", "purity", "strong_fedder"),
    ("purity.criterion", "purity", "classic_fpure"),
    ("purity.verify_witness", "purity", "verify_witness"),
    ("fpt.nu_value", "fpt", "nu_value"),
    ("fpt.fpt_estimate", "fpt", "fpt_estimate"),
    ("testideal.test_ideal", "testideal", "test_ideal"),
    ("closure.probe", "closure", "sharp_frobenius_membership"),
    ("closure.probe", "closure", "tight_closure_witness_check"),
    ("ceilarith", "ceilarith", "ceil_mul"),
    ("ceilarith", "ceilarith", "floor_mul"),
    ("ceilarith", "ceilarith", "denominator_order"),
]
GROEBNER_SPAN = "ideals.groebner"
MODULES = ("cli", "parser", "poly", "ideals", "purity", "fpt", "testideal", "closure", "ceilarith")


class _Frame:
    __slots__ = ("name", "child", "colon_gens")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0
        self.colon_gens = 0


class Tracer:
    """Span stack plus per-span and per-query counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._pending: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self.stack: list[_Frame] = []
        self._seen_colon: set = set()
        self._seen_power: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        pkg = {name: sys.modules[f"fpurity.{name}"] for name in MODULES}
        namespaces = [m for key, m in sys.modules.items() if key == "fpurity" or key.startswith("fpurity.")]
        for span, module, attr in SPANS:
            original = getattr(pkg[module], attr)
            wrapped = self._wrap(span, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, original))
                        setattr(ns, key, wrapped)
        ideal_cls = pkg["ideals"].Ideal
        original = ideal_cls.groebner
        self._restore.append((ideal_cls, "groebner", original))
        ideal_cls.groebner = self._wrap(GROEBNER_SPAN, original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, span: str, fn):
        stack = self.stack
        calls = self.calls
        self_s = self._pending
        clock = time.perf_counter
        enter = self._enter
        leave = self._leave

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            enter(span, parent, args)
            frame = _Frame(span)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._count_cap(span, exc)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                calls[span] += 1
                self_s[span] += dt - frame.child
                if parent is not None:
                    parent.child += dt
            leave(span, parent, args, result)
            return result

        return wrapper

    def commit(self, scale: float) -> None:
        """Add the self times of the query just finished, rescaled by
        ``scale`` (wall seconds to normalised seconds)."""
        for span, value in self._pending.items():
            self.self_s[span] += value * scale
        self._pending.clear()

    def _active(self, span: str) -> bool:
        return any(f.name == span for f in self.stack)

    def _enter(self, span: str, parent, args) -> None:
        count = self.count
        if span == "cli.run" and parent is None:
            self._seen_colon.clear()
            self._seen_power.clear()
        elif span == "ideals.membership":
            if self._active("fpt.nu_value"):
                count["membership_in_nu"] += 1
            if parent is not None and parent.name == "purity.criterion":
                count["products_tested"] += 1
        elif span == "purity.criterion" and self._active("fpt.fpt_estimate"):
            count["sharp_in_fpt"] += 1
        elif span == "ideals.colon":
            J, I = args[0], args[1]
            key = (J.ring, J.generators, I.generators)
            if key in self._seen_colon:
                count["colon_repeats"] += 1
            self._seen_colon.add(key)
        elif span == "ideals.ideal_power":
            a, N = args[0], args[1]
            key = (a.ring, a.generators, N)
            if key in self._seen_power:
                count["power_repeats"] += 1
            self._seen_power.add(key)

    def _leave(self, span: str, parent, args, result) -> None:
        count = self.count
        if span == "poly.poly_mul":
            count["mul_terms"] += len(result.terms)
        elif span == "ideals.membership":
            count["membership_in"] += bool(result)
        elif span == "ideals.ideal_power":
            count["power_gens"] += len(result.generators)
            if parent is not None and parent.name == "purity.criterion":
                count["products_built"] += len(result.generators) * parent.colon_gens
        elif span == "ideals.colon":
            if parent is not None:
                parent.colon_gens = len(result.generators)
        elif span == GROEBNER_SPAN:
            count["basis_len_max"] = max(count["basis_len_max"], len(result))
        elif span == "testideal.test_ideal":
            count["chain_len"] += len(result.chain)

    def _count_cap(self, span: str, exc: BaseException) -> None:
        if span.startswith("ideals.") and type(exc).__name__ == "ResourceCapExceeded":
            if not getattr(exc, "_bench_counted", False):
                exc._bench_counted = True
                self.count["cap_errors"] += 1

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed by module (the part of a span name before the
        first dot)."""
        out: dict[str, float] = defaultdict(float)
        for span, value in self.self_s.items():
            out[span.split(".")[0]] += value
        return dict(out)

    def metrics(self, queries: int) -> dict[str, float]:
        """The per-layer metrics; calls, self times and sizes are means per
        query of the traced pass."""
        c, s, k = self.calls, self.self_s, self.count
        per_q = 1.0 / max(queries, 1)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "poly.poly_mul.calls": c["poly.poly_mul"] * per_q,
            "poly.poly_mul.self_s": s["poly.poly_mul"] * per_q,
            "poly.poly_mul.terms_out": ratio(k["mul_terms"], c["poly.poly_mul"]),
            "poly.poly_pow.calls": c["poly.poly_pow"] * per_q,
            "poly.poly_pow.self_s": s["poly.poly_pow"] * per_q,
            "fpt.nu_value.calls": c["fpt.nu_value"] * per_q,
            "fpt.nu_value.self_s": s["fpt.nu_value"] * per_q,
            "fpt.fpt_estimate.sharp_calls": ratio(k["sharp_in_fpt"], c["fpt.fpt_estimate"]),
            "ideals.membership.calls_per_nu": ratio(k["membership_in_nu"], c["fpt.nu_value"]),
            "ideals.groebner.calls": c[GROEBNER_SPAN] * per_q,
            "ideals.groebner.self_s": s[GROEBNER_SPAN] * per_q,
            "ideals.groebner.basis_len_max": k["basis_len_max"],
            "ideals.intersect.calls": c["ideals.intersect"] * per_q,
            "ideals.intersect.self_s": s["ideals.intersect"] * per_q,
            "ideals.colon.calls": c["ideals.colon"] * per_q,
            "ideals.colon.self_s": s["ideals.colon"] * per_q,
            "ideals.colon.repeat_frac": ratio(k["colon_repeats"], c["ideals.colon"]),
            "ideals.membership.calls": c["ideals.membership"] * per_q,
            "ideals.membership.self_s": s["ideals.membership"] * per_q,
            "ideals.membership.in_frac": ratio(k["membership_in"], c["ideals.membership"]),
            "ideals.ideal_power.calls": c["ideals.ideal_power"] * per_q,
            "ideals.ideal_power.self_s": s["ideals.ideal_power"] * per_q,
            "ideals.ideal_power.gens_out": ratio(k["power_gens"], c["ideals.ideal_power"]),
            "ideals.ideal_power.repeat_frac": ratio(k["power_repeats"], c["ideals.ideal_power"]),
            "ideals.root_power.calls": c["ideals.root_power"] * per_q,
            "ideals.root_power.self_s": s["ideals.root_power"] * per_q,
            "testideal.test_ideal.calls": c["testideal.test_ideal"] * per_q,
            "testideal.test_ideal.self_s": s["testideal.test_ideal"] * per_q,
            "testideal.test_ideal.chain_len_mean": ratio(k["chain_len"], c["testideal.test_ideal"]),
            "purity.criterion.calls": c["purity.criterion"] * per_q,
            "purity.criterion.self_s": s["purity.criterion"] * per_q,
            "purity.verify_witness.self_s": s["purity.verify_witness"] * per_q,
            "purity.products_tested_frac": ratio(k["products_tested"], k["products_built"]),
            "closure.probe.calls": c["closure.probe"] * per_q,
            "closure.probe.self_s": s["closure.probe"] * per_q,
            "cli.run.self_s": s["cli.run"] * per_q,
            "parser.self_s": s["parser"] * per_q,
            "ceilarith.self_s": s["ceilarith"] * per_q,
            "ideals.cap_errors": k["cap_errors"],
        }
