import argparse
import hashlib
import itertools
import json
import random
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fpurity import cli
from fpurity.cli import EXIT_BUG, EXIT_CAP, EXIT_OK, EXIT_USAGE, run

README = Path(__file__).resolve().parent.parent / "README.md"
# argv, exit code and exact output of each README example; the engine may
# change inside, but not one byte of what these print
GOLDEN = Path(__file__).with_name("golden_cli.json")
# the same for test-ideal chains and closure probes: monomial and binomial
# chains, and probes over homogeneous, quasi-homogeneous and non-graded
# hypersurfaces
GOLDEN_CHAINS = Path(__file__).with_name("golden_chains.json")


def readme_examples():
    """argv of every ``fpurity ...`` line in the README, with --json added."""
    lines = README.read_text().splitlines()
    return [shlex.split(l)[1:] + ["--json"] for l in lines if l.startswith("fpurity ")]


def run_json(argv):
    code, text = run(argv + ["--json"])
    assert code == EXIT_OK, text
    return json.loads(text)


def test_sharp_fedder_proven():
    report = run_json(
        ["sharp-fedder", "--ring", "p=3; vars=x,y", "--a", "x*y", "--t", "1", "--emax", "2"]
    )
    assert report["command"] == "sharp-fedder"
    assert report["verdict"]["outcome"] == "proven-pure"
    assert report["witness"]["e"] == 1
    assert report["witness"]["generator"] == "x^2*y^2"


def test_sharp_fedder_inconclusive_exits_zero():
    code, text = run(
        ["sharp-fedder", "--ring", "p=3; vars=x,y", "--a", "x*y", "--t", "3/2", "--emax", "4"]
    )
    assert code == EXIT_OK
    assert "inconclusive" in text


def test_fedder_classic_quadric_cone():
    report = run_json(
        ["fedder", "--ring", "p=3; vars=x,y,z", "--ideal", "x^2 - y*z", "--emax", "1"]
    )
    assert report["verdict"]["per_e"]["1"] is True


def test_fpt_exact_half():
    report = run_json(["fpt", "--ring", "p=3; vars=x", "--a", "x^2", "--emax", "3"])
    assert report["certificate"]["t_star"] == "1/2"
    assert report["certificate"]["kind"] == "mustata-converse"
    assert report["label"] == "exact"
    assert [row["nu"] for row in report["nu_table"]] == ["1", "4", "13"]


def test_nu_table_rows():
    report = run_json(["nu", "--ring", "p=3; vars=x", "--a", "x^2", "--emax", "3"])
    assert [row["nu"] for row in report["nu_table"]] == ["1", "4", "13"]
    assert report["nu_table"][0]["lo"] == "1/3"


def test_rational_serialization_never_floats():
    report = run_json(["fpt", "--ring", "p=3; vars=x", "--a", "x^2", "--emax", "2"])
    assert report["certificate"]["t_star"] == "1/2"
    assert "0.5" not in json.dumps(report)


def test_testideal_chain():
    report = run_json(["testideal", "--ring", "p=3; vars=x,y", "--a", "x*y", "--t", "1"])
    assert report["tau"] == ["x*y"]
    assert report["stabilized_at"] == 1
    assert len(report["chain"]) >= 3


def test_closure_failed_at():
    report = run_json(
        [
            "closure",
            "--ring", "p=3; vars=x",
            "--ideal", "x^2",
            "--a", "x",
            "--t", "1/2",
            "--z", "x",
            "--emax", "4",
        ]
    )
    assert report["verdict"]["outcome"] == "failed-at"
    assert report["verdict"]["failed_e"] == [1, 2, 3, 4]


def test_closure_order_past_emax_is_no_certificate():
    # the order of 2 mod 131 is 130: no tested e is a multiple, so no
    # certificate, and the order past --emax is not an error
    code, text = run([
        "closure", "--ring", "p=2; vars=x,y", "--ideal", "x", "--a", "y", "--t", "1/131",
        "--z", "y", "--emax", "2", "--json",
    ])
    assert code == EXIT_OK
    verdict = json.loads(text)["verdict"]
    assert verdict["outcome"] == "failed-at"
    assert verdict["certified_e"] is None


def test_principal_power_guard_row():
    # tau(f^(3/2)) of a 4-term f over F_5 takes f^(ceil(3q/2)) up to q = 5^6
    argv = [
        "testideal", "--ring", "p=5; vars=x,y", "--a", "3*y^3 + 4*x^3 + 2*y + x^2",
        "--t", "3/2", "--emax", "6", "--json",
    ]
    start = time.perf_counter()
    out = run(argv)
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "b20f912a9e0f0b43b523a1c5c2a7a404d1024aed102dba30688b588c06b921ca"
    assert elapsed < 1, elapsed


def test_witness_check_trace():
    report = run_json(
        [
            "witness-check",
            "--ring", "p=3; vars=x",
            "--ideal", "x^2",
            "--a", "1",
            "--t", "1",
            "--z", "x",
            "--c", "x",
            "--emax", "3",
        ]
    )
    assert report["verdict"]["consistent"] is False
    assert report["verdict"]["trace"] == {"0": True, "1": False, "2": False, "3": False}


def test_parse_error_exit_code():
    code, text = run(["sharp-fedder", "--ring", "p=4; vars=x", "--a", "x"])
    assert code == EXIT_USAGE
    assert "not prime" in text


@pytest.mark.parametrize("command", ["fpt", "sharp-fedder", "fedder", "strong-fedder", "testideal"])
def test_emax_below_one_is_a_usage_error(command):
    # the criteria, fpt (which reads its sharp certificate off the nu table)
    # and the test-ideal chain share one check of the exponent range
    code, text = run([command, "--ring", "p=3; vars=x", "--a", "x^2", "--emax", "0"])
    assert code == EXIT_USAGE
    assert text == "error: e_max must be at least 1, got 0"


PROBE = ["--ring", "p=3; vars=x,y", "--defining", "x^3 + y^3", "--ideal", "x^2",
         "--a", "x", "--t", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nu", "--ring", "p=3; vars=x", "--a", "x^2", "--emax", "0"],
         "e_max must be at least 1, got 0"),
        # z = x^2 would be trivially in; an empty range is refused first
        (["closure", *PROBE, "--z", "x^2", "--emax", "0"],
         "e_max must be at least 1, got 0"),
        (["closure", *PROBE, "--z", "x", "--emax", "0"],
         "e_max must be at least 1, got 0"),
        # the witness trace starts at e = 0, so e_max = 0 is a real check
        (["witness-check", *PROBE, "--z", "x", "--c", "y", "--emax", "-1"],
         "e_max must be at least 0, got -1"),
    ],
)
def test_empty_exponent_range_is_a_usage_error(argv, message):
    code, text = run(argv)
    assert code == EXIT_USAGE
    assert text == f"error: {message}"


@pytest.mark.parametrize("command", ["fedder", "sharp-fedder", "strong-fedder"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--ideal", "1"],
        ["--ideal", "x, x + 1", "--a", "1"],
        ["--ideal", "x - 1", "--a", "x - 1, y^3", "--t", "1", "--emax", "2"],
    ],
    ids=["unit", "unit-from-two-generators", "off-origin"],
)
def test_defining_ideal_outside_m_is_a_usage_error(command, flags):
    # the criteria are local at the origin, and S/(1) and S/(x - 1) have no
    # point there
    code, text = run([command, "--ring", "p=3; vars=x,y", *flags, "--json"])
    assert code == EXIT_USAGE
    assert text == (
        "error: the defining ideal must lie in m = (x, y) because the criteria "
        "are local at the origin"
    )


def test_witness_check_at_emax_zero_runs_the_e0_row():
    report = run_json(["witness-check", *PROBE, "--z", "x", "--c", "y", "--emax", "0"])
    assert list(report["verdict"]["trace"]) == ["0"]


def test_cap_exit_code():
    # the 2x2 minors of a generic 2x3 matrix with a = m at t = 3: a^24 has
    # too many generator products to enumerate modulo m^[9]
    code, text = run([
        "sharp-fedder", "--ring", "p=3; vars=a,b,c,d,e,f",
        "--ideal", "a*e - b*d, a*f - c*d, b*f - c*e", "--a", "a,b,c,d,e,f", "--t", "3", "--emax", "2",
    ])
    assert code == EXIT_CAP
    assert text.startswith("error: resource cap exceeded: max_power_products")


def test_exponent_overflow_exits_with_cap_code():
    # q = p^3 with p = 2^31 - 1 puts exponents of S/m^[q] past 2^63 - 1
    code, text = run(["nu", "--ring", "p=2147483647; vars=x", "--a", "x", "--emax", "3"])
    assert code == EXIT_CAP
    assert text.startswith("error: exponent cap 2^63-1 exceeded")


def test_exponent_overflow_in_a_reduction_exits_with_cap_code():
    # z = x^(2^62) y^(2^62) reduced by x^(2^61) + 2 y^(2^61) reaches y^(2^63)
    code, text = run([
        "closure", "--ring", "p=3; vars=x,y", "--ideal", f"x^{2**61} + 2*y^{2**61}",
        "--z", f"x^{2**62}*y^{2**62}", "--emax", "1",
    ])
    assert code == EXIT_CAP
    assert text.startswith("error: exponent cap 2^63-1 exceeded")


def test_parser_is_built_once():
    from fpurity.cli import build_parser

    assert build_parser() is build_parser()
    run_json(["nu", "--ring", "p=3; vars=x", "--a", "x^2", "--emax", "1"])
    # a reused parser must not leak one call's options into the next
    report = run_json(["nu", "--ring", "p=3; vars=x", "--a", "x", "--emax", "2"])
    assert report["inputs"] == {"ring": "p=3; vars=x", "a": ["x"], "emax": 2}


def test_unknown_subcommand_usage():
    code, _ = run(["frobenate"])
    assert code == EXIT_USAGE


USAGE_ARGV = [
    [],
    ["frobenate"],
    ["--json", "nu", "--ring", "p=3; vars=x", "--a", "x"],
    ["-h"],
    ["--help"],
    ["nu", "-h"],
    ["sharp-fedder", "--help"],
    ["nu", "--ring", "p=3; vars=x", "--a", "x^2", "--em", "2", "--json"],
    ["fpt", "--ring=p=3; vars=x", "--a=x^2", "--json"],
    ["nu", "--ring", "p=3; vars=x", "--a", "x", "--bogus"],
    ["testideal", "--ring", "p=3; vars=x"],
    ["nu", "--ring", "p=3; vars=x", "--a", "x", "--t", "1/2"],
    ["nu", "--ring", "p=3; vars=x", "--a", "x", "--emax", "two"],
    ["nu", "--ring", "p=3; vars=x", "--a", "x", "--a", "x^2", "--json"],
    ["nu", "--ring", "p=3; vars=x", "--a", "-x", "--json"],
    ["nu", "--ring", "p=3; vars=x", "--a", "-x + x^2", "--json"],
    ["nu", "--ring", "p=3; vars=x", "--", "--a", "x"],
    ["nu", "--ring", "p=3; vars=x", "--a", "x", "--json", "extra"],
]


@pytest.mark.parametrize("argv", USAGE_ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_direct_dispatch_matches_the_top_parser(argv, capsys, monkeypatch):
    # run hands a known subcommand's argv to that subcommand's parser; with
    # no subparser to hand it to, every argv goes through the top parser
    got = run(argv), capsys.readouterr()
    top = cli.build_parser()
    monkeypatch.setattr(cli, "_parsers", lambda: (top, {}))
    want = run(argv), capsys.readouterr()
    assert got == want


def test_the_pair_check_finds_a_generator_without_a_basis():
    from fpurity import Ideal, PairSpec, membership, parse_poly_list, parse_ring

    ring = parse_ring("p=3; vars=x,y,z")
    defining = Ideal(ring, parse_poly_list("x^2 - y*z, y^3 + z^2", ring))
    a = Ideal(ring, parse_poly_list("x + y", ring)).plus(defining)
    assert all(membership(g, a) for g in a.generators)
    PairSpec(ring, defining, a, 1)
    assert a._basis is None and defining._basis is None


def test_structured_output_is_deterministic():
    argv = ["fpt", "--ring", "p=3; vars=x,y", "--a", "x*y", "--emax", "3", "--json"]
    first = run(argv)
    second = run(argv)
    assert first == second


def test_verify_witness_flag():
    report = run_json(
        [
            "sharp-fedder",
            "--ring", "p=3; vars=x,y",
            "--a", "x*y",
            "--t", "1",
            "--emax", "2",
            "--verify-witness",
        ]
    )
    assert report["witness"]["verified"] is True


def test_failed_witness_recheck_exits_with_bug_code(monkeypatch):
    # a proven verdict whose own recheck fails is an engine bug, not a
    # report with "verified": false
    argv = ["sharp-fedder", "--ring", "p=3; vars=x,y", "--a", "x*y", "--t", "1", "--emax", "2"]
    monkeypatch.setattr(cli, "verify_witness", lambda pair, verdict: False)
    assert run(argv + ["--json", "--verify-witness"]) == (
        EXIT_BUG,
        "error: internal invariant violated (the witness at e=1, q=3 failed its "
        "recheck); this is an engine bug",
    )
    code, text = run(argv + ["--json"])
    assert code == EXIT_OK and "verified" not in json.loads(text)["witness"]


@pytest.mark.parametrize(
    "argv",
    [
        ["nu", "--ring", "p=3; vars=x", "--a", "x", "--ideal", "x^2"],
        ["fpt", "--ring", "p=3; vars=x,y", "--a", "x", "--t", "1/2"],
        ["testideal", "--ring", "p=3; vars=x,y", "--a", "x*y", "--seed", "1"],
        ["fedder", "--ring", "p=3; vars=x,y,z", "--ideal", "x^2 - y*z", "--verify-witness"],
        ["nu", "--ring", "p=3; vars=x"],
        ["fpt", "--ring", "p=3; vars=x", "--emax", "2"],
    ],
    ids=["nu-ideal", "fpt-t", "testideal-seed", "fedder-verify-witness", "nu-no-a", "fpt-no-a"],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv):
    assert run(argv) == (EXIT_USAGE, "")


# argv per subcommand under which its runner reads every option it has;
# the criteria are proven here, so --verify-witness is read too
EVERY_OPTION_READ = {
    "fedder": ["--ring", "p=3; vars=x,y", "--a", "x*y"],
    "sharp-fedder": ["--ring", "p=3; vars=x,y", "--a", "x*y", "--t", "1/2", "--emax", "2"],
    "strong-fedder": ["--ring", "p=3; vars=x,y", "--a", "x*y", "--t", "1/2", "--emax", "2"],
    "nu": ["--ring", "p=3; vars=x", "--a", "x^2", "--emax", "2"],
    "fpt": ["--ring", "p=3; vars=x", "--a", "x^2", "--emax", "2"],
    "testideal": ["--ring", "p=3; vars=x,y", "--a", "x*y"],
    "closure": ["--ring", "p=3; vars=x", "--ideal", "x^2", "--a", "x", "--z", "x", "--emax", "2"],
    "witness-check": [
        "--ring", "p=3; vars=x", "--ideal", "x^2", "--a", "1", "--z", "x", "--c", "x", "--emax", "2"
    ],
}


class _ReadRecorder:
    """Stands in for the parsed namespace and records each option read."""

    def __init__(self, namespace):
        self._namespace = namespace
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._namespace, name)


def test_every_option_is_read():
    import argparse

    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(EVERY_OPTION_READ)
    for name, sub in subparsers.choices.items():
        options = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        assert "json" in options, name
        args = _ReadRecorder(parser.parse_args([name] + EVERY_OPTION_READ[name]))
        cli._RUNNERS[name](args)
        # --json is read by run, which picks the output format from it
        assert options - {"json"} <= args.read, (name, options - {"json"} - args.read)
        code, text = run([name] + EVERY_OPTION_READ[name] + ["--json"])
        assert code == EXIT_OK and text.startswith("{"), name


# A public name has a caller outside tests/: the CLI, the benchmark, or a
# library user's documented entry point. A check that only tests call is
# written in the tests, over these names, not exported from src/.
PUBLIC_NAMES = [
    "ClosureVerdict", "ExponentOverflowError", "FptCertificate", "FptEstimate", "FrobeniusBox",
    "Ideal", "NuRecord", "PairSpec", "ParseError", "PolyRing", "PrimeField", "PurityVerdict",
    "ResourceCapExceeded", "RingMismatchError", "SparsePolynomial", "TestIdealResult",
    "all_members", "bracket_power", "ceil_mul", "classic_fpure", "colon", "denominator_order",
    "fedder_colon", "floor_mul", "fpt_bounds", "fpt_estimate", "frobenius_image",
    "ideal_contains", "ideal_equals", "ideal_power", "intersect", "maximal_ideal", "membership",
    "nu_table", "nu_value", "parse_poly", "parse_poly_list", "parse_rational", "parse_ring",
    "poly_mul", "poly_pow", "poly_to_str", "root_power", "sharp_fedder",
    "sharp_frobenius_membership", "strong_fedder", "test_ideal", "tight_closure_witness_check",
    "verify_witness",
]
SUBCOMMANDS = [
    "fedder", "sharp-fedder", "strong-fedder", "nu", "fpt", "testideal", "closure", "witness-check",
]


def test_public_names_and_subcommands_are_pinned():
    import argparse
    import dataclasses

    import fpurity

    assert sorted(fpurity.__all__) == sorted(PUBLIC_NAMES)
    assert [f.name for f in dataclasses.fields(fpurity.PolyRing)] == ["field", "variables"]
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == SUBCOMMANDS
    settable = sum(
        1 for sub in subparsers.choices.values() for a in sub._actions
        if not isinstance(a, argparse._HelpAction)
    )
    assert settable == 50


def test_a_floor_past_emax_exits_before_any_chain_entry(monkeypatch):
    # the order of 5 mod 29 is 14: no e <= 5 lies past the floor, so no
    # chain entry can end the run, and none is formed
    from fpurity import testideal

    monkeypatch.setattr(testideal, "power_root", lambda *args: pytest.fail("chain entry"))
    argv = [
        "testideal", "--ring", "p=5; vars=x,y", "--a", "3*y^3 + 4*x^3, 2*y + x^2",
        "--t", "43/29", "--emax", "5", "--json",
    ]
    start = time.perf_counter()
    code, text = run(argv)
    assert time.perf_counter() - start < 1
    assert code == EXIT_CAP
    assert text == (
        "error: resource cap exceeded: denominator_order_e_cap "
        "(order of 5 mod 29 exceeds e_cap=5 but exists)"
    )
    # --emax 0 stays a usage error
    assert run(argv[:-2] + ["0", "--json"])[0] == EXIT_USAGE


def test_table_output_has_elapsed_line():
    code, text = run(["nu", "--ring", "p=3; vars=x", "--a", "x", "--emax", "2"])
    assert code == EXIT_OK
    assert text.splitlines()[-1].startswith("elapsed:")


def test_invariant_violation_exits_with_bug_code(monkeypatch):
    def broken(args):
        raise AssertionError("nu(9) left the window [3, 5]")

    monkeypatch.setitem(cli._RUNNERS, "nu", broken)
    code, text = run(["nu", "--ring", "p=3; vars=x", "--a", "x", "--emax", "2"])
    assert code == EXIT_BUG == 3
    assert text == (
        "error: internal invariant violated (nu(9) left the window [3, 5]); "
        "this is an engine bug"
    )


def test_goldens_cover_the_readme_examples():
    assert [entry["argv"] for entry in json.loads(GOLDEN.read_text())] == readme_examples()


@pytest.mark.parametrize(
    "entry", json.loads(GOLDEN.read_text()), ids=lambda entry: entry["argv"][0]
)
def test_readme_example_json_is_byte_identical(entry):
    assert run(entry["argv"]) == (entry["exit"], entry["output"])


@pytest.mark.parametrize(
    "entry", json.loads(GOLDEN_CHAINS.read_text()), ids=lambda entry: entry["argv"][0]
)
def test_chain_and_probe_json_is_byte_identical(entry):
    assert run(entry["argv"]) == (entry["exit"], entry["output"])


# --- the namespace read off the declared actions ---------------------------------


def _subparsers():
    return cli._parsers()[1]


def _canonical_argv(sub, rng):
    """Every option of sub once, in a random order, each store option with
    a value its type converts."""
    pieces = []
    for action in sub._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            pieces.append([flag])
        else:
            pieces.append([flag, "3" if action.type is int else rng.choice(["x", "x^2 + y", "1/2", ""])])
    rng.shuffle(pieces)
    return [token for piece in pieces for token in piece]


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_canonical_argv_gives_the_namespace_argparse_gives(name):
    sub = _subparsers()[name]
    rng = random.Random(name)
    required = [
        token for a in sub._actions if a.required for token in (a.option_strings[0], "x")
    ]
    for args in [required, required + ["--json"]] + [_canonical_argv(sub, rng) for _ in range(20)]:
        want, extra = sub.parse_known_args(args, argparse.Namespace(command=name))
        assert extra == []
        got = cli._namespace(sub, name, args)
        assert got is not None and vars(got) == vars(want), args


@pytest.mark.parametrize(
    "args",
    [
        ["--ring=p=3; vars=x", "--a", "x"],
        ["--ring", "p=3; vars=x", "--a", "x", "--em", "2"],
        ["--ring", "p=3; vars=x", "--a", "x", "--a", "x^2"],
        ["--ring", "p=3; vars=x", "--a", "x", "--json", "--json"],
        ["--ring", "p=3; vars=x", "--a", "-x"],
        ["--ring", "p=3; vars=x", "--a", "x", "--emax", "-1"],
        ["--ring", "p=3; vars=x", "--", "--a", "x"],
        ["--ring", "p=3; vars=x"],
        ["--ring", "p=3; vars=x", "--a"],
        ["--ring", "p=3; vars=x", "--a", "x", "--emax", "two"],
        ["--ring", "p=3; vars=x", "--a", "x", "--json", "extra"],
        ["-h"],
        ["--ring", "p=3; vars=x", "--a", "x", "--help"],
    ],
    ids=[
        "equals", "abbreviation", "repeat", "repeated-flag", "dash-value", "negative-int",
        "double-dash", "missing-required", "missing-value", "bad-int", "stray-token", "h", "help",
    ],
)
def test_other_argv_is_left_to_argparse(args):
    assert cli._namespace(_subparsers()["nu"], "nu", args) is None


def test_catalog_passes_never_reach_argparse(monkeypatch):
    from test_bench_catalogs import workloads

    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(args)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for workload in ("thresholds", "quotients", "chains"):
        queries = itertools.islice(workloads.stream(workload, 23), workloads.pass_length(workload))
        for argv in queries:
            assert run(argv + ["--json"])[0] == EXIT_OK, argv
    assert calls == []
    # the counter counts: a declined argv goes through argparse
    run(["nu", "--ring=p=3; vars=x", "--a", "x", "--json"])
    assert len(calls) == 1


# --- the --json writer ---------------------------------------------------------

_TRICKY = st.text(st.sampled_from('"\\/\n\t\r\x00\x1f\x7f\u2028 aZ09é€😀\ud800'))
_SCALARS = st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | _TRICKY | st.text()
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(_TRICKY, max_size=4)
    | st.dictionaries(_TRICKY | st.text(), inner, max_size=4),
    max_leaves=30,
)


@given(value=_VALUES)
@settings(max_examples=400, deadline=None)
def test_json_writer_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("golden", [GOLDEN, GOLDEN_CHAINS], ids=["cli", "chains"])
def test_json_writer_matches_json_dumps_on_the_goldens(golden):
    for entry in json.loads(golden.read_text()):
        report = json.loads(entry["output"])
        assert cli._dumps(report) == json.dumps(report, indent=2) == entry["output"]


@pytest.mark.parametrize(
    "value",
    [0.5, {"t": 0.5}, [1, 2.0], {1, 2}, {"a": frozenset()}, {1: "x"}, {"a": {None: 1}}, b"x", object()],
    ids=["float", "nested-float", "float-in-list", "set", "nested-set", "int-key", "none-key", "bytes", "object"],
)
def test_json_writer_refuses_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        cli._dumps(value)
