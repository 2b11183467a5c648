"""Machine-speed normalisation for wall times.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds: other tenants load the same cores. A fixed
pure-Python probe, a sparse product of two dict-of-exponent-tuple
polynomials followed by a grevlex-style sort (the same kind of work as
the program's polynomial and ideal kernels), runs at least every
``PROBE_EVERY_S`` of wall time. A wall time ``t`` measured between two
probes that took ``P1`` and ``P2`` is reported as
``t * PROBE_NOMINAL_S / mean(P1, P2)``: seconds on a machine where the
probe takes ``PROBE_NOMINAL_S``.

Over 28 passes of the same 100 ``thresholds`` queries, per-pass wall time
varied by 10.9% (coefficient of variation); the log of pass time followed
the log of probe time with slope 0.975, and normalised pass times varied
by 2.7%. A smaller probe (a 78-term square, all in cache) gave slope 0.84:
it slowed more than the program under load and over-corrected.

The probe is the benchmark's own code and never calls the program, so a
change to the program cannot move the yardstick.
"""

from __future__ import annotations

import random
import time

# typical probe time on the 2-core x86-64 VM (Python 3.11) the benchmark
# was calibrated on; it fixes the unit of every normalised time
PROBE_NOMINAL_S = 2.5e-3
PROBE_EVERY_S = 0.02

_rng = random.Random(5)
_F = {tuple(_rng.randint(0, 6) for _ in range(3)): _rng.randint(1, 6) for _ in range(70)}
_G = {tuple(_rng.randint(0, 6) for _ in range(3)): _rng.randint(1, 6) for _ in range(30)}


def probe() -> float:
    """Wall time of one fixed unit of interpreter work."""
    t0 = time.perf_counter()
    out: dict[tuple[int, ...], int] = {}
    for ma, ca in _F.items():
        for mb, cb in _G.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = (out.get(m, 0) + ca * cb) % 7
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    sorted(out, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))
    return time.perf_counter() - t0


class Speed:
    """Rescales measured intervals by the probes on either side of them."""

    def __init__(self):
        self._last = probe()
        self._at = time.perf_counter()
        self._pending: list = []

    def add(self, item) -> None:
        """Queue an object with a ``wall`` time; its ``seconds`` is set by
        the next probe, which runs now if PROBE_EVERY_S has passed."""
        self._pending.append(item)
        if time.perf_counter() - self._at >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> float:
        """Probe now and rescale everything queued since the last probe;
        returns the factor used."""
        now = probe()
        scale = 2 * PROBE_NOMINAL_S / (self._last + now)
        for item in self._pending:
            item.seconds = item.wall * scale
        self._pending.clear()
        self._last = now
        self._at = time.perf_counter()
        return scale
