"""One catalog pass of each benchmark workload (seed 23), checked as the
benchmark checks it: every report must pass ``checker.invariant_violation``
and match its recorded output under ``checker.expected_mismatch``.

``chains`` runs only where sympy is installed. Its one sympy comparison
(traced on this pass) is ``_check_testideal`` holding the chain entries
e = 3 and 4 (24 generators) of ``testideal --ring "p=3; vars=x,y,z" --a
"z^3 - 2*y^4, x^2" --t 1`` against its tau (18 generators). The ideals
are equal, but up to units the generator sets are 13 against 12, so
deduping ``root_power`` pieces up to a unit would not drop the import.
``expected_mismatch`` never falls back to sympy.
"""

import importlib
import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from fpurity.cli import EXIT_OK, run

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _bench_module("checker")
layertrace = _bench_module("layertrace")
workloads = _bench_module("workloads")


def test_every_traced_name_resolves():
    # bench/run.py --trace 1 wraps these by name; a deleted one breaks it
    for _, module, attr in layertrace.SPANS:
        assert hasattr(importlib.import_module(f"fpurity.{module}"), attr), f"{module}.{attr}"
    assert callable(importlib.import_module("fpurity.ideals").Ideal.groebner)


@pytest.mark.parametrize("workload", ["thresholds", "quotients", "chains"])
def test_catalog_pass_matches_the_recorded_outputs(workload):
    if workload == "chains":
        pytest.importorskip("sympy")
    expected = workloads.load_expected(workload)
    queries = list(itertools.islice(workloads.stream(workload, 23), workloads.pass_length(workload)))
    failed = []
    for argv in queries:
        key = workloads.query_key(argv)
        code, text = run(argv + ["--json"])
        if code != EXIT_OK:
            reason = f"exit code {code}: {text[:200]}"
        else:
            report = json.loads(text)
            reason = checker.invariant_violation(report, argv)
            if reason is None:
                if key in expected:
                    reason = checker.expected_mismatch(report, expected[key])
                else:
                    reason = "no recorded output"
        if reason is not None:
            failed.append(f"{reason} <- {key}")
    assert len(queries) == workloads.pass_length(workload)
    assert failed == []
