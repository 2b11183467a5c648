"""One catalog pass of each benchmark workload (seed 23), checked as the
benchmark checks it: every report must pass ``checker.invariant_violation``
and match its recorded output under ``checker.expected_mismatch``. The
same pass pins the output bytes: one sha256 over
``repr(run(argv + ["--json"])).encode()`` of every query, in catalog order,
must equal ``PASS_SHA256``. A change that means to alter output bytes
records the new digests in a commit that says so.

``chains`` is checked only where sympy is installed, but its digest is
compared everywhere. Its one sympy comparison
(traced on this pass) is ``_check_testideal`` holding the chain entries
e = 3 and 4 (24 generators) of ``testideal --ring "p=3; vars=x,y,z" --a
"z^3 - 2*y^4, x^2" --t 1`` against its tau (18 generators). The ideals
are equal, but up to units the generator sets are 13 against 12, so
deduping ``root_power`` pieces up to a unit would not drop the import.
``expected_mismatch`` never falls back to sympy.
"""

import hashlib
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

HAS_SYMPY = importlib.util.find_spec("sympy") is not None

# the digests of the seed-23 pass (the same under any PYTHONHASHSEED)
PASS_SHA256 = {
    "thresholds": "95113fa09b4571e5faca8f4fe450af882653ad12be0773fa88c3f094ba0343de",
    "quotients": "0f6d4435d0d086276d24e2e1ef2797bec654fc80c40de4eaad48f2e67009d254",
    "chains": "8ec17d630f4eb8691c94abc0a3b28e954aefe1a9c2475a59ba4274224ef17383",
}


def test_every_traced_name_resolves():
    # bench/run.py --trace 1 wraps these by name; a deleted one breaks it
    for _, module, attr in layertrace.SPANS:
        assert hasattr(importlib.import_module(f"fpurity.{module}"), attr), f"{module}.{attr}"
    assert callable(importlib.import_module("fpurity.ideals").Ideal.groebner)


@pytest.mark.parametrize("workload", ["thresholds", "quotients", "chains"])
def test_catalog_pass_matches_the_recorded_outputs(workload):
    check = workload != "chains" or HAS_SYMPY
    expected = workloads.load_expected(workload)
    queries = list(itertools.islice(workloads.stream(workload, 23), workloads.pass_length(workload)))
    digest = hashlib.sha256()
    failed = []
    for argv in queries:
        key = workloads.query_key(argv)
        result = run(argv + ["--json"])
        digest.update(repr(result).encode())
        if not check:
            continue
        code, text = result
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
    assert digest.hexdigest() == PASS_SHA256[workload]
    assert failed == []
