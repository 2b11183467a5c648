#!/usr/bin/env python3
"""Record the reports the checker compares against.

    python3 bench/record_expected.py [workload ...]

Runs one catalog pass of seed 0, which holds every distinct query any
seed generates, through the program and writes each ``--json`` report,
less its ``inputs`` echo, to ``expected/<workload>.json``, keyed by
query.
Run it only on a commit whose verdicts are trusted; a later commit is
checked against these files.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from fpurity.cli import run  # noqa: E402


def record(workload: str) -> dict[str, dict]:
    out: dict[str, dict] = {}
    queries = workloads.stream(workload, 0)
    for argv in itertools.islice(queries, workloads.pass_length(workload)):
        code, text = run(argv + ["--json"])
        if code != 0:
            raise SystemExit(f"exit {code} on {workloads.query_key(argv)}: {text}")
        report = json.loads(text)
        report.pop("inputs", None)
        out[workloads.query_key(argv)] = report
    return out


def main() -> None:
    names = sys.argv[1:] or sorted(workloads.WORKLOADS)
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names:
        data = record(name)
        path = workloads.EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"{name}: {len(data)} reports -> {path}")


if __name__ == "__main__":
    main()
