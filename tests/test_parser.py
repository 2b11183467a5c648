from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fpurity import ParseError, parse_poly, parse_rational, parse_ring, poly_to_str
from fpurity.parser import MAX_PARSED_DEPTH, parse_poly_list, rational_to_str, ring_to_str

from conftest import p


def test_parse_ring_ok():
    ring = parse_ring("p=3; vars=x,y,z")
    assert ring.p == 3
    assert ring.variables == ("x", "y", "z")


def test_parse_ring_nonprime():
    with pytest.raises(ParseError, match="not prime"):
        parse_ring("p=4; vars=x")


def test_parse_ring_duplicate_var():
    with pytest.raises(ParseError, match="duplicate"):
        parse_ring("p=2; vars=x,x")


def test_parse_poly_reduces_mod_p(r3xyz):
    assert p("x^2 - y*z", r3xyz) == r3xyz.poly({(2, 0, 0): 1, (0, 1, 1): 2})


def test_parse_poly_frobenius_cube(r3xy):
    assert p("(x+y)^3", r3xy) == p("x^3 + y^3", r3xy)


def test_negative_exponent_rejected(r3xy):
    with pytest.raises(ParseError, match="negative exponent"):
        p("x^-1", r3xy)


def test_unknown_variable_has_position(r3xy):
    with pytest.raises(ParseError) as err:
        p("x + w", r3xy)
    assert err.value.position == 4


def test_implicit_multiplication_is_one_identifier(r3xy):
    with pytest.raises(ParseError, match="unknown variable 'xy'"):
        p("xy", r3xy)


def test_poly_list(r3xy):
    gens = parse_poly_list("x*y, x^2", r3xy)
    assert gens == [p("x*y", r3xy), p("x^2", r3xy)]


def test_parse_rational():
    assert parse_rational("5/6") == Fraction(5, 6)
    assert parse_rational("4/6") == Fraction(2, 3)
    assert parse_rational("7") == Fraction(7)


def test_parse_rational_rejects_nonpositive():
    with pytest.raises(ParseError):
        parse_rational("0")
    with pytest.raises(ParseError):
        parse_rational("-1/2")


def test_parse_rational_zero_denominator():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_rational("1/0")


def test_rational_to_str():
    assert rational_to_str(Fraction(1, 2)) == "1/2"
    assert rational_to_str(Fraction(4)) == "4"


def test_ring_round_trip():
    text = "p=5; vars=a,b,c"
    assert ring_to_str(parse_ring(text)) == text


R3 = parse_ring("p=3; vars=x,y")


def polys(ring, max_terms=5, max_exp=7):
    n = ring.nvars
    return st.dictionaries(
        st.tuples(*([st.integers(0, max_exp)] * n)),
        st.integers(1, ring.p - 1),
        max_size=max_terms,
    ).map(ring.poly)


@given(f=polys(R3))
def test_print_parse_round_trip(f):
    assert parse_poly(poly_to_str(f), R3) == f


@given(text=st.text(max_size=40))
@settings(max_examples=300)
def test_parsing_is_total(text):
    try:
        parse_poly(text, R3)
    except ParseError:
        pass


def test_integer_literal_cap(r3xy):
    with pytest.raises(ParseError, match="64 bits"):
        p(str(2**63) + " + x", r3xy)


def test_nesting_up_to_the_depth_cap_parses(r3xy):
    depth = MAX_PARSED_DEPTH
    assert depth == 400
    assert p("(" * depth + "x + y" + ")" * depth + "^3", r3xy) == p("x^3 + y^3", r3xy)
    text = "x*(" * depth + "y" + ")" * depth
    assert p(text, r3xy) == r3xy.poly({(depth, 1): 1})


def test_nesting_past_the_depth_cap_is_a_parse_error(r3xy):
    for depth in (MAX_PARSED_DEPTH + 1, 1000, 100_000):
        with pytest.raises(ParseError, match="nested deeper than 400") as err:
            p("(" * depth + "x" + ")" * depth, r3xy)
        assert err.value.position == MAX_PARSED_DEPTH


def test_nesting_past_the_depth_cap_exits_one():
    from fpurity.cli import EXIT_OK, EXIT_USAGE, run

    def nested(depth):
        text = "(" * depth + "x" + ")" * depth
        return ["nu", "--ring", "p=3; vars=x", "--a", text, "--emax", "1", "--json"]

    code, text = run(nested(1000))
    assert code == EXIT_USAGE and "nested deeper than 400" in text
    assert run(nested(400)) == run(nested(1))


def test_nesting_the_stack_cannot_hold_is_a_parse_error(r3xy):
    from fpurity.cli import EXIT_USAGE, run

    def at_depth(frames, call):
        return call() if frames == 0 else at_depth(frames - 1, call)

    # two frames a level: 400 levels fit from the top, not from 300 frames down
    text = "(" * MAX_PARSED_DEPTH + "x" + ")" * MAX_PARSED_DEPTH
    assert p(text, r3xy) == p("x", r3xy)
    for parse in (p, parse_poly_list):
        with pytest.raises(ParseError, match="nested deeper than the stack allows"):
            at_depth(300, lambda: parse(text, r3xy))
    argv = ["nu", "--ring", "p=3; vars=x", "--a", text, "--emax", "1", "--json"]
    code, out = at_depth(300, lambda: run(argv))
    assert code == EXIT_USAGE and "nested deeper than the stack allows" in out
    deeper = "(" * (MAX_PARSED_DEPTH + 1) + "x" + ")" * (MAX_PARSED_DEPTH + 1)
    with pytest.raises(ParseError, match="nested deeper than 400"):
        p(deeper, r3xy)
