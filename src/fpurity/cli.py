"""Command-line interface.

Subcommands: fedder, sharp-fedder, strong-fedder, fpt, nu, testideal,
closure, witness-check. Exit code 0 means the computation completed (an
inconclusive verdict is a completed computation), 1 means a usage or parse
error, 2 means a resource cap (the 2^63-1 exponent cap included) aborted
the run, 3 means an internal invariant failed, which is always an engine
bug.

Each subcommand takes only flags it reads: ``nu`` and ``fpt`` take --ring,
--a, --emax and --json; --verify-witness exists only on sharp-fedder and
strong-fedder, whose proven verdicts carry a witness. Any other flag is a
usage error, never silently ignored. So is an --emax below 1 (below 0 for
witness-check, whose trace starts at e = 0).

Structured output (--json) is a single JSON document with stable field
names; exact rationals are serialized as strings like "5/6" so nothing
downstream can round them. Identical argv produces byte-identical JSON,
which is why timings appear only in the human-readable table output.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from json.encoder import encode_basestring_ascii as _escape

from .closure import ClosureVerdict, sharp_frobenius_membership, tight_closure_witness_check
from .errors import ExponentOverflowError, ParseError, ResourceCapExceeded
from .fpt import fpt_estimate, nu_table
from .ideals import Ideal
from .parser import (
    parse_poly,
    parse_poly_list,
    parse_rational,
    parse_ring,
    poly_to_str,
    rational_to_str,
    ring_to_str,
)
from .poly import PolyRing
from .purity import (
    PairSpec,
    PurityVerdict,
    classic_fpure,
    sharp_fedder,
    strong_fedder,
    verify_witness,
)
from .testideal import test_ideal

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_BUG = 3


RING_HELP = 'ring spec, e.g. "p=3; vars=x,y"'
A_HELP = "pair ideal generators, comma separated"


def _add_pair_flags(
    sub: argparse.ArgumentParser,
    ideal_help: str = "defining ideal generators, comma separated",
):
    sub.add_argument("--ring", required=True, help=RING_HELP)
    sub.add_argument("--ideal", default="0", help=ideal_help)
    sub.add_argument("--a", default="1", help=A_HELP)
    sub.add_argument("--t", default="1", help="pair exponent, e.g. 5/6")
    sub.add_argument("--emax", type=int, default=4)


def _add_json_flag(sub: argparse.ArgumentParser):
    sub.add_argument("--json", action="store_true", help="emit structured output")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser, built on first use and shared by later calls."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser by name."""
    top = argparse.ArgumentParser(prog="fpurity")
    subs = top.add_subparsers(dest="command", required=True)

    for name in ("fedder", "sharp-fedder", "strong-fedder"):
        sub = subs.add_parser(name)
        _add_pair_flags(sub)
        _add_json_flag(sub)
        if name != "fedder":
            # classic fedder never proves purity, so it has no witness
            sub.add_argument(
                "--verify-witness",
                action="store_true",
                help="recompute the witness containment from scratch",
            )

    for name in ("nu", "fpt"):
        sub = subs.add_parser(name)
        sub.add_argument("--ring", required=True, help=RING_HELP)
        sub.add_argument("--a", required=True, help=A_HELP)
        sub.add_argument("--emax", type=int, default=4)
        _add_json_flag(sub)

    sub = subs.add_parser("testideal")
    sub.add_argument("--ring", required=True, help=RING_HELP)
    sub.add_argument("--a", required=True, help=A_HELP)
    sub.add_argument("--t", default="1", help="pair exponent, e.g. 5/6")
    sub.add_argument("--emax", type=int, default=12, help="chain cap; no stabilization by here aborts")
    _add_json_flag(sub)

    sub = subs.add_parser("closure")
    _add_pair_flags(sub, ideal_help="target ideal the element is probed against")
    sub.add_argument("--defining", default="0", help="defining ideal of the quotient pair")
    sub.add_argument("--z", required=True, help="element probed against the closure")
    _add_json_flag(sub)

    sub = subs.add_parser("witness-check")
    _add_pair_flags(sub, ideal_help="target ideal for the closure containments")
    sub.add_argument("--defining", default="0", help="defining ideal of the quotient pair")
    sub.add_argument("--z", required=True, help="element whose closure membership c witnesses")
    sub.add_argument("--c", required=True, help="witness multiplier")
    _add_json_flag(sub)

    return top, subs.choices


def _namespace(sub: argparse.ArgumentParser, command: str, args: list[str]) -> argparse.Namespace | None:
    """The namespace ``sub.parse_known_args`` builds for a canonical argv,
    read off sub's declared actions; None for any other argv.

    Canonical: each token is an exact option string of a store or
    store_true action, a store option is followed by one value that does
    not start with "-" and that its type converts, no option repeats, and
    every required option is given. Everything else (help, abbreviations,
    --opt=value, "--", repeats, usage errors) is left to argparse, so its
    exit code and messages stay argparse's own.
    """
    options, given, i = sub._option_string_actions, {}, 0
    while i < len(args):
        action = options.get(args[i])
        if action is None or action.dest in given:
            return None
        if type(action) is argparse._StoreTrueAction:
            given[action.dest] = action.const
            i += 1
            continue
        if type(action) is not argparse._StoreAction or i + 1 == len(args) or args[i + 1][:1] == "-":
            return None
        value = args[i + 1]
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                return None
        given[action.dest] = value
        i += 2
    namespace = argparse.Namespace(command=command)
    for action in sub._actions:
        if action.dest in given:
            setattr(namespace, action.dest, given[action.dest])
        elif action.required:
            return None
        elif action.default is not argparse.SUPPRESS:
            setattr(namespace, action.dest, action.default)
    return namespace


def _parse_ideal(text: str, ring: PolyRing) -> Ideal:
    return Ideal(ring, parse_poly_list(text, ring))


def _make_pair(args, ring: PolyRing, defining: Ideal) -> PairSpec:
    t = parse_rational(args.t)
    a_given = _parse_ideal(args.a, ring)
    if a_given.is_zero():
        raise ParseError("pair ideal must be nonzero", 0)
    # the preimage of the image of the given generators is (gens) + I
    a_preimage = a_given.plus(defining) if not defining.is_zero() else a_given
    return PairSpec(ring, defining, a_preimage, t)


def _ideal_json(I: Ideal) -> list[str]:
    if I.is_zero():
        return ["0"]
    return [poly_to_str(g) for g in I.generators]


def _verdict_json(v: PurityVerdict) -> dict:
    return {
        "criterion": v.criterion,
        "outcome": v.outcome,
        "e_tested": list(v.e_tested),
        "per_e": {str(e): held for e, held in sorted(v.per_e.items())},
        "note": v.note,
    }


def _witness_json(v: PurityVerdict) -> dict | None:
    if not v.proven:
        return None
    return {
        "e": v.witness_e,
        "q": str(v.witness_q),
        "generator": poly_to_str(v.witness_poly),
        "escapes": f"m^[{v.witness_q}]",
    }


def _closure_json(v: ClosureVerdict) -> dict:
    return {
        "outcome": v.outcome,
        "e_tested": list(v.e_tested),
        "held_e": list(v.held_e),
        "failed_e": list(v.failed_e),
        "certified_e": v.certified_e,
        "certificate": v.certificate,
        "note": v.note,
    }


def _run_fedder(args, criterion) -> dict:
    ring = parse_ring(args.ring)
    defining = _parse_ideal(args.ideal, ring)
    pair = _make_pair(args, ring, defining)
    verdict = criterion(pair, args.emax)
    report = {
        "command": args.command,
        "inputs": _pair_inputs(args, ring, pair),
        "verdict": _verdict_json(verdict),
        "witness": _witness_json(verdict),
    }
    # classic verdicts are never proven, so fedder's missing flag is never read
    if verdict.proven and args.verify_witness:
        # the engine proved this verdict, so a failed recheck is its own bug
        if not verify_witness(pair, verdict):
            raise AssertionError(
                f"the witness at e={verdict.witness_e}, q={verdict.witness_q} "
                "failed its recheck"
            )
        report["witness"]["verified"] = True
    return report


def _pair_inputs(args, ring: PolyRing, pair: PairSpec) -> dict:
    return {
        "ring": ring_to_str(ring),
        "ideal": _ideal_json(pair.defining),
        "a": _ideal_json(pair.a_preimage),
        "t": rational_to_str(pair.t),
        "emax": args.emax,
    }


def _threshold_inputs(args, ring: PolyRing, a: Ideal) -> dict:
    return {"ring": ring_to_str(ring), "a": _ideal_json(a), "emax": args.emax}


def _run_nu(args) -> dict:
    ring = parse_ring(args.ring)
    a = _parse_ideal(args.a, ring)
    records = nu_table(a, args.emax)
    return {
        "command": "nu",
        "inputs": _threshold_inputs(args, ring, a),
        "nu_table": [
            {
                "e": r.e,
                "q": str(r.q),
                "nu": str(r.nu),
                "lo": rational_to_str(r.lo),
                "hi": rational_to_str(r.hi),
            }
            for r in records
        ],
    }


def _run_fpt(args) -> dict:
    ring = parse_ring(args.ring)
    a = _parse_ideal(args.a, ring)
    est = fpt_estimate(a, args.emax)
    report = {
        "command": "fpt",
        "inputs": _threshold_inputs(args, ring, a),
        "interval": {"lo": rational_to_str(est.lo), "hi": rational_to_str(est.hi)},
        "label": est.label,
        "certificate": None,
        "nu_table": [
            {"e": r.e, "q": str(r.q), "nu": str(r.nu)} for r in est.records
        ],
    }
    if est.certificate:
        report["certificate"] = {
            "t_star": rational_to_str(est.certificate.t_star),
            "e_star": est.certificate.e_star,
            "kind": est.certificate.kind,
            "exact": est.certificate.exact,
        }
    return report


def _run_testideal(args) -> dict:
    ring = parse_ring(args.ring)
    a = _parse_ideal(args.a, ring)
    t = parse_rational(args.t)
    result = test_ideal(a, t, e_cap=args.emax)
    return {
        "command": "testideal",
        "inputs": {
            "ring": ring_to_str(ring),
            "a": _ideal_json(a),
            "t": rational_to_str(t),
        },
        "tau": _ideal_json(result.tau),
        "stabilized_at": result.stabilized_at,
        "e_floor": result.e_floor,
        "chain": [{"e": e, "ideal": _ideal_json(K)} for e, K in result.chain],
        "note": result.note,
    }


def _quotient_inputs(args, ring: PolyRing, pair: PairSpec) -> dict:
    inputs = _pair_inputs(args, ring, pair)
    inputs["defining"] = inputs.pop("ideal")
    return inputs


def _run_closure(args) -> dict:
    ring = parse_ring(args.ring)
    defining = _parse_ideal(args.defining, ring)
    target = _parse_ideal(args.ideal, ring)
    pair = _make_pair(args, ring, defining)
    z = parse_poly(args.z, ring)
    verdict = sharp_frobenius_membership(z, target, pair, args.emax)
    return {
        "command": "closure",
        "inputs": _quotient_inputs(args, ring, pair)
        | {"z": poly_to_str(z), "target": _ideal_json(target)},
        "verdict": _closure_json(verdict),
    }


def _run_witness_check(args) -> dict:
    ring = parse_ring(args.ring)
    defining = _parse_ideal(args.defining, ring)
    target = _parse_ideal(args.ideal, ring)
    pair = _make_pair(args, ring, defining)
    z = parse_poly(args.z, ring)
    c = parse_poly(args.c, ring)
    ok, trace = tight_closure_witness_check(z, target, pair, c, args.emax)
    return {
        "command": "witness-check",
        "inputs": _quotient_inputs(args, ring, pair)
        | {"z": poly_to_str(z), "c": poly_to_str(c), "target": _ideal_json(target)},
        "verdict": {
            "consistent": ok,
            "trace": {str(e): held for e, held in sorted(trace.items())},
        },
    }


def _dumps(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for str, int, bool,
    None, list, tuple and dict with str keys; anything else raises
    TypeError. ``indent`` puts json.dumps on its pure-Python encoder; this
    writer escapes each string with the C encoder and joins a list of
    strings in one call."""
    if isinstance(value, str):
        return _escape(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(item) is str for item in value):
            items = map(_escape, value)
        else:
            items = (_dumps(item, inner) for item in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_escape(key) + ": " + _dumps(item, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _table(report: dict) -> str:
    """Render a report as an aligned table."""
    lines = [f"command: {report['command']}"]
    for key, value in report.items():
        if key == "command":
            continue
        lines.extend(_table_block(key, value))
    return "\n".join(lines)


def _table_block(key: str, value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if key == "nu_table" and isinstance(value, list):
        lines = [f"{pad}{key}:"]
        header = f"{pad}  {'e':>3} {'q':>8} {'nu':>8} {'lo':>10} {'hi':>10}"
        lines.append(header)
        for row in value:
            lines.append(
                f"{pad}  {row['e']:>3} {row['q']:>8} {row['nu']:>8} "
                f"{row.get('lo', ''):>10} {row.get('hi', ''):>10}"
            )
        return lines
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"]
        for k, v in value.items():
            lines.extend(_table_block(str(k), v, indent + 1))
        return lines
    if isinstance(value, list):
        if not value:
            return [f"{pad}{key}: []"]
        if all(not isinstance(v, (dict, list)) for v in value):
            return [f"{pad}{key}: " + ", ".join(str(v) for v in value)]
        lines = [f"{pad}{key}:"]
        for v in value:
            if isinstance(v, dict):
                lines.append(f"{pad}  -")
                for k2, v2 in v.items():
                    lines.extend(_table_block(str(k2), v2, indent + 2))
            else:
                lines.append(f"{pad}  - {v}")
        return lines
    return [f"{pad}{key}: {value}"]


_RUNNERS = {
    "fedder": lambda args: _run_fedder(args, classic_fpure),
    "sharp-fedder": lambda args: _run_fedder(args, sharp_fedder),
    "strong-fedder": lambda args: _run_fedder(args, strong_fedder),
    "nu": _run_nu,
    "fpt": _run_fpt,
    "testideal": _run_testideal,
    "closure": _run_closure,
    "witness-check": _run_witness_check,
}


def run(argv: list[str]) -> tuple[int, str]:
    """Execute a command line; returns (exit code, rendered report)."""
    top, commands = _parsers()
    try:
        # a known subcommand skips the top parser, whose only work would be
        # handing the rest of argv to the same subparser
        command = commands.get(argv[0]) if argv else None
        if command is None:
            args = top.parse_args(argv)
        else:
            args = _namespace(command, argv[0], argv[1:])
            if args is None:
                args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
                if extra:
                    top.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return (EXIT_USAGE if exc.code else EXIT_OK), ""
    started = time.perf_counter()
    try:
        report = _RUNNERS[args.command](args)
    except ResourceCapExceeded as exc:
        return EXIT_CAP, f"error: {exc}"
    except ExponentOverflowError as exc:
        return EXIT_CAP, f"error: exponent cap 2^63-1 exceeded ({exc})"
    except (ParseError, ValueError) as exc:
        return EXIT_USAGE, f"error: {exc}"
    except AssertionError as exc:
        return EXIT_BUG, f"error: internal invariant violated ({exc}); this is an engine bug"
    if args.json:
        return EXIT_OK, _dumps(report)
    elapsed = time.perf_counter() - started
    return EXIT_OK, _table(report) + f"\nelapsed: {elapsed:.3f}s"


def main() -> None:
    code, text = run(sys.argv[1:])
    if text:
        print(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
