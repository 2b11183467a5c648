"""Self-tests of the benchmark (not part of the program's test suite).

    python3 -m pytest -q bench
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from fpurity.cli import run as cli_run  # noqa: E402


def _report(argv: list[str]) -> dict:
    code, text = cli_run(argv + ["--json"])
    assert code == 0, text
    return json.loads(text)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_queries(workload):
    n = 3 * (len(workloads.WORKLOADS[workload]) + 1)
    first = list(itertools.islice(workloads.stream(workload, 11), n))
    again = list(itertools.islice(workloads.stream(workload, 11), n))
    other = list(itertools.islice(workloads.stream(workload, 12), n))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_query_has_a_recorded_output(workload):
    expected = workloads.load_expected(workload)
    queries = itertools.islice(workloads.stream(workload, 12), 2 * workloads.pass_length(workload))
    assert all(workloads.query_key(argv) in expected for argv in queries)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "chains", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}


def test_checker_flags_flipped_verdict():
    argv = ["sharp-fedder", "--ring", "p=3; vars=x,y", "--a", "x*y", "--t", "1", "--emax", "2"]
    report = _report(argv)
    assert checker.invariant_violation(report, argv) is None
    assert checker.expected_mismatch(report, report) is None
    flipped = json.loads(json.dumps(report))
    flipped["verdict"]["outcome"] = "inconclusive"
    assert checker.invariant_violation(flipped, argv) is not None
    assert checker.expected_mismatch(flipped, report) is not None


def test_checker_flags_wrong_nu():
    argv = ["nu", "--ring", "p=3; vars=x,y", "--a", "x^2 + y^3", "--emax", "3"]
    report = _report(argv)
    assert checker.invariant_violation(report, argv) is None
    wrong = json.loads(json.dumps(report))
    wrong["nu_table"][1]["nu"] = str(int(wrong["nu_table"][1]["nu"]) + 1)
    assert checker.invariant_violation(wrong, argv) is not None
    assert checker.expected_mismatch(wrong, report) is not None


def test_checker_flags_bad_witness():
    argv = ["sharp-fedder", "--ring", "p=3; vars=x,y", "--a", "x*y", "--t", "1", "--emax", "2",
            "--verify-witness"]
    report = _report(argv)
    assert checker.invariant_violation(report, argv) is None
    bad = json.loads(json.dumps(report))
    bad["witness"]["generator"] = "x^3*y^2"
    assert "exponent" in checker.invariant_violation(bad, argv)
    unverified = json.loads(json.dumps(report))
    unverified["witness"]["verified"] = False
    assert checker.invariant_violation(unverified, argv) is not None


def test_ideals_compare_as_ideals():
    ring = "p=5; vars=x,y"
    assert checker.same_ideal(ring, ["2*y", "y", "4*y", "3*y"], ["y"])
    assert checker.same_ideal(ring, ["x^2", "x*y", "x^2*y"], ["x*y", "x^2"])
    assert not checker.same_ideal(ring, ["x", "y^2"], ["x", "y"])
    pytest.importorskip("sympy")
    assert checker.same_ideal(ring, ["x + y", "y"], ["x", "y"])
    assert not checker.same_ideal(ring, ["x + y", "x*y"], ["x", "y"])


def test_testideal_chain_checked_as_ideals():
    argv = ["testideal", "--ring", "p=3; vars=x,y", "--a", "x^2, y^3", "--t", "1/2"]
    report = _report(argv)
    assert checker.invariant_violation(report, argv) is None
    wrong = json.loads(json.dumps(report))
    wrong["tau"] = ["x", "y"] if report["tau"] != ["x", "y"] else ["x^2", "y"]
    assert checker.invariant_violation(wrong, argv) is not None
    assert checker.expected_mismatch(wrong, report) is not None
