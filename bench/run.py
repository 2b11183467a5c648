#!/usr/bin/env python3
"""Closed-loop benchmark of the fpurity command line.

    python3 bench/run.py --workload thresholds --seed 1 --seconds 25 --trace 0

One client, one process, one thread: each query is a CLI argv passed to
``fpurity.cli.run`` in-process, and the next query starts when the last
one returns. Queries come from ``workloads.py`` and depend only on the
workload and the seed; a run stops at the first catalog-pass boundary
after ``--seconds``. Every ``--json`` report is checked (``checker.py``)
after the timed pass. The last line of standard output is one JSON object
with the metrics; the lines before it are a readable summary.

Times are wall times normalised for machine speed (``speed.py``): a
fixed probe runs between queries, and each time is rescaled to a machine
where the probe takes a fixed nominal time. Raw wall-clock throughput
is printed to standard error for reference.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
queries with per-layer wrappers installed (``layertrace.py``), replays the same
queries untraced to measure the tracing overhead, and reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import layertrace  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
QUERY_TIMEOUT_S = 30.0
TRACED_SHARE = 0.5  # of --seconds spent in the traced pass; the replay follows
EXIT_OK = 0

END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    name: ("s/query" if name.endswith("self_s") else
           "ratio" if name.endswith(("_frac", "_ratio")) else
           "count/query" if name.endswith(".calls") else "count")
    for name in [*layertrace.Tracer().metrics(1), "trace.overhead_ratio"]
}


class QueryTimeout(BaseException):
    """Raised by the watchdog inside a query that ran too long."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == "fpurity" or m.startswith("fpurity.")]:
        del sys.modules[name]


def _setup_once(workload: str, seed: int):
    """Import the program, generate the first rounds of queries and load
    the recorded outputs: everything that precedes the first timed query."""
    _purge_package()
    import fpurity.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fpurity imported from {cli.__file__}, not from {SRC}")

    stream = workloads.stream(workload, seed)
    queries = [next(stream) for _ in range(workloads.prefetch_count(workload))]
    expected = workloads.load_expected(workload)
    return cli, stream, queries, expected


def setup(workload: str, seed: int, clock: speed.Speed):
    """Set up SETUP_REPEATS times from a cold import; returns the median
    normalised time and the last set-up's objects."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        state = _setup_once(workload, seed)
        wall = time.perf_counter() - t0
        times.append(wall * clock.flush())
    return statistics.median(times), state


class Query:
    __slots__ = ("argv", "code", "out", "wall", "seconds", "error")

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.code = None
        self.out = ""
        self.wall = 0.0  # wall-clock seconds
        self.seconds = 0.0  # normalised seconds
        self.error = None


def run_one(cli, argv: list[str]) -> Query:
    q = Query(argv)
    signal.setitimer(signal.ITIMER_REAL, QUERY_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        q.code, q.out = cli.run(argv + ["--json"])
    except QueryTimeout:
        q.error = f"watchdog timeout after {QUERY_TIMEOUT_S:.0f}s"
    except Exception as exc:  # any escape from the program is a failed query
        q.error = f"{type(exc).__name__}: {exc}"
    finally:
        q.wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return q


def timed_pass(cli, queries: list[list[str]], stream, budget_s: float, pass_len: int,
               clock: speed.Speed, tracer=None) -> list[Query]:
    """Run queries in order until budget_s of wall time has elapsed and a
    whole number of catalog passes (pass_len queries each) is done, so
    every run measures the same mix of shapes."""
    done: list[Query] = []
    deadline = time.perf_counter() + budget_s
    i = 0
    while i % pass_len or time.perf_counter() < deadline:
        if i == len(queries):
            queries.append(next(stream))
        q = run_one(cli, queries[i])
        clock.add(q)
        if tracer is not None:
            tracer.commit(clock.flush())
        done.append(q)
        i += 1
    clock.flush()
    return done


def check(results: list[Query], expected: dict) -> tuple[int, list[str]]:
    """Count failed queries; a failure is an exception, a timeout, an exit
    code other than 0, or a report that fails a check or has no recorded
    counterpart."""
    failed = 0
    reasons = []
    for q in results:
        reason = q.error
        if reason is None and q.code != EXIT_OK:
            reason = f"exit code {q.code}: {q.out[:200]}"
        if reason is None:
            key = workloads.query_key(q.argv)
            try:
                report = json.loads(q.out)
                reason = checker.invariant_violation(report, q.argv)
                if reason is None:
                    if key not in expected:
                        reason = "no recorded output for this query"
                    else:
                        reason = checker.expected_mismatch(report, expected[key])
            except Exception as exc:  # a report the checker cannot read fails
                reason = f"unreadable report: {type(exc).__name__}: {exc}"
        if reason is not None:
            failed += 1
            reasons.append(f"{reason} <- {workloads.query_key(q.argv)}")
    return failed, reasons


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    clock = speed.Speed()
    setup_s, (cli, stream, queries, expected) = setup(args.workload, args.seed, clock)
    # the recorded outputs are a large live heap that is not the program's;
    # keep the collector from traversing it on every full collection
    gc.collect()
    gc.freeze()
    pass_len = workloads.pass_length(args.workload)
    log = sys.stderr

    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            results = timed_pass(cli, queries, stream, args.seconds * TRACED_SHARE, pass_len, clock, tracer)
        finally:
            tracer.uninstall()
        replay = []
        for q in results:
            replay.append(run_one(cli, q.argv))
            clock.add(replay[-1])
        clock.flush()
        failed, reasons = check(results, expected)
        metrics = tracer.metrics(len(results))
        metrics["trace.overhead_ratio"] = sum(q.seconds for q in results) / sum(q.seconds for q in replay)
        layers = tracer.layer_self_s()
        total = sum(layers.values()) or 1.0
        print(f"{args.workload}: {len(results)} traced queries, self time by layer:", file=log)
        for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<10} {value:9.3f} s  {100 * value / total:5.1f}%", file=log)
        units = PER_LAYER_UNITS
    else:
        results = timed_pass(cli, queries, stream, args.seconds, pass_len, clock)
        failed, reasons = check(results, expected)
        times = [q.seconds for q in results]
        metrics = {
            "queries_per_s": len(results) / sum(times),
            "query_p50_s": _percentile(times, 50),
            "query_p90_s": _percentile(times, 90),
            "ok_frac": (len(results) - failed) / len(results),
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END_UNITS
        raw_qps = len(results) / sum(q.wall for q in results)
        print(f"wall-clock queries/s {raw_qps:.4g}, speed scale {sum(times) / sum(q.wall for q in results):.3f}", file=log)

    for reason in reasons[:20]:
        print(f"FAILED: {reason}", file=log)
    print(f"{args.workload} seed={args.seed}: {len(results)} queries, {failed} failed", flush=True)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
