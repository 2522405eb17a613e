"""Grammar, diagnostics and printer round-trips."""

import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncinvert.cli import main
from ncinvert.freealg import FormalMap, NCSeries
from ncinvert.inversion import invert_fixed_point
from ncinvert.parsing import (
    MAX_NESTING,
    MapFormError,
    ParseError,
    format_map,
    format_series,
    parse_expression,
    parse_map,
)
from ncinvert.randmaps import random_displacement
from ncinvert.rings import QQ, PrimeField


def test_parse_simple_polynomial():
    s = parse_expression("x^2 - 3*y + 1/2", ["x", "y"], QQ, 4)
    assert s.coefficient((0, 0)) == 1
    assert s.coefficient((1,)) == -3
    assert s.coefficient(()) == Fraction(1, 2)


def test_star_is_noncommutative():
    xy = parse_expression("x*y", ["x", "y"], QQ, 3)
    yx = parse_expression("y*x", ["x", "y"], QQ, 3)
    assert xy != yx


def test_power_is_repeated_self_multiplication():
    s = parse_expression("(x*y)^2", ["x", "y"], QQ, 4)
    assert s.coefficient((0, 1, 0, 1)) == 1
    assert s.term_count() == 1


def test_precedence_and_unary_minus():
    s = parse_expression("-x^2 + 2*x", ["x"], QQ, 3)
    assert s.coefficient((0, 0)) == -1
    assert s.coefficient((0,)) == 2
    t = parse_expression("1 - -x", ["x"], QQ, 3)
    assert t.coefficient((0,)) == 1


def test_juxtaposition_is_an_error():
    with pytest.raises(ParseError, match="juxtaposition"):
        parse_expression("x y", ["x", "y"], QQ, 3)
    with pytest.raises(ParseError, match="juxtaposition"):
        parse_expression("2 x", ["x"], QQ, 3)


def test_unknown_variable_reports_position():
    with pytest.raises(ParseError) as err:
        parse_expression("x + q", ["x", "y"], QQ, 3)
    assert err.value.line == 1
    assert err.value.col == 5


def test_unbalanced_parens():
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_expression("(x + y", ["x", "y"], QQ, 3)


def nested(levels):
    return "(" * levels + "x" + ")" * levels


def test_nesting_limit():
    s = parse_expression(nested(MAX_NESTING) + "^2", ["x"], QQ, 3)
    assert s.coefficient((0, 0)) == 1
    with pytest.raises(ParseError, match="nested deeper than") as err:
        parse_expression("x - " + nested(MAX_NESTING + 1), ["x"], QQ, 3)
    # reported at the first '(' past the limit
    assert (err.value.line, err.value.col) == (1, 5 + MAX_NESTING)


def test_deep_nesting_is_a_parse_error_on_the_command_line(capsys):
    code = main(["invert", "--expr", "x - " + nested(1000) + "^2", "--vars", "x", "-d", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"parse error: 1:{5 + MAX_NESTING}: parentheses nested")
    assert "Traceback" not in captured.err


def test_power_of_a_constant_is_bounded_in_characteristic_zero():
    assert parse_expression("3^1000", ["x"], QQ, 2).coefficient(()) == 3**1000
    with pytest.raises(ParseError, match="1:3: power 100000 of a base with a constant"):
        parse_expression("3^100000", ["x"], QQ, 2)
    # residues do not grow: the same power is fine over GF(5)
    s = parse_expression("(2+x)^100000000", ["x"], PrimeField(5), 2)
    assert s.coefficient(()) == 1


@pytest.mark.parametrize("p, degree", [(2, 5), (3, 4), (5, 4), (7, 2)])
def test_gfp_power_by_frobenius_matches_repeated_products(p, degree):
    # the least power of p above D is 8, 9, 5, 7: k runs past it several times
    field = PrimeField(p)
    names = ["x", "y", "z"]
    for base in ("1+x+y+z", "2 + x*y - z", "x - y", "3*z*x"):
        one = parse_expression(base, names, field, degree)
        direct = NCSeries.one(field, 3, degree)
        for k in range(60):
            assert parse_expression(f"({base})^{k}", names, field, degree) == direct, (base, k)
            direct = direct * one


def test_huge_gfp_power_of_a_three_variable_base_exits_0_at_once(capsys):
    exponent = "7" * 4000
    start = time.perf_counter()
    code = main([
        "invert", "--expr", f"x - x*(1+x+y+z)^{exponent}*y; y; z", "--vars", "x,y,z",
        "--ring", "gfp:3", "-d", "9", "--no-timings",
    ])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert capsys.readouterr().err == ""


def test_nested_constant_power_exits_2_at_once(capsys):
    start = time.perf_counter()
    code = main(["invert", "--expr", "x - ((3^9999)^9999)*x*x", "--vars", "x", "-d", "3"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("parse error: 1:15: power 9999 ")


def test_power_of_a_constant_free_base_exits_2_while_it_is_nonzero(capsys):
    start = time.perf_counter()
    code = main(["invert", "--expr", "x - (3^30000*x*x)^10", "--vars", "x", "-d", "20"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("parse error: 1:19: power 10 of a base of order 2 ")


def test_power_of_a_constant_free_base_past_the_truncation_parses_to_zero():
    # (x*x)^10 has degree 20 > 3, so no coefficient of it is ever formed
    assert parse_expression("(3^30000*x*x)^10", ["x"], QQ, 3).is_zero()


def test_products_of_constants_are_bounded_in_characteristic_zero(capsys):
    s = parse_expression("3^1000*3^1000*x*x", ["x"], QQ, 3)
    assert s.coefficient((0, 0)) == 3**2000
    factors = "*".join(["3^30000"] * 400)
    start = time.perf_counter()
    code = main(["invert", "--expr", f"x - {factors}*x*x", "--vars", "x", "-d", "3"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    # refused at the first '*': 3^30000 alone is 47549 bits wide
    assert captured.err.startswith("parse error: 1:12: product would exceed 65536 ")
    # residues do not grow: the same product is fine over GF(5)
    s = parse_expression(factors, ["x"], PrimeField(5), 2)
    assert s.coefficient(()) == pow(3, 30000 * 400, 5)


@pytest.mark.parametrize(
    "expr, col",
    [
        ("x - {}*x*x", 5),
        ("x - 1/{}*x*x", 7),
        ("x - (1+x)^{}", 11),
    ],
    ids=["numerator", "denominator", "exponent"],
)
def test_overlong_integer_literal_exits_2_at_the_literal(capsys, expr, col):
    start = time.perf_counter()
    code = main(["invert", "--expr", expr.format("7" * 5000), "--vars", "x", "-d", "3"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"parse error: 1:{col}: integer literal longer than ")


@pytest.mark.parametrize("p, den", [(2, 2), (3, 6)])
def test_a_denominator_that_is_0_mod_p_is_a_parse_error_at_it(p, den):
    with pytest.raises(ParseError, match=f"^1:7: denominator {den} is 0 mod {p}$"):
        parse_expression(f"x - 1/{den}*x*x", ["x"], PrimeField(p), 3)


def test_a_denominator_prime_to_p_parses():
    # 1/3 is 1 mod 2
    s = parse_expression("x - 1/3*x*x", ["x"], PrimeField(2), 3)
    assert s.coefficient((0, 0)) == 1


def test_integer_literal_wider_than_the_bound_is_refused():
    # only reachable when Python converts strings of any length
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(ParseError, match="1:1: integer literal wider than 65536 bits"):
            parse_expression("9" * 20000, ["x"], QQ, 2)
        assert parse_expression("9" * 19000, ["x"], QQ, 2).coefficient(()) == int("9" * 19000)
    finally:
        sys.set_int_max_str_digits(limit)


def test_rational_literal_over_prime_field():
    field = PrimeField(5)
    s = parse_expression("1/2", ["x"], field, 2)
    # 2^(-1) = 3 mod 5
    assert s.coefficient(()) == 3


def test_map_with_header_and_semicolons():
    pm = parse_map("vars: x, y\nx - (y*x - x*y); y", QQ, 4)
    assert pm.variables == ["x", "y"]
    h = pm.f_map.h_vector()
    assert h[0].coefficient((1, 0)) == 1
    assert h[0].coefficient((0, 1)) == -1


def test_map_default_variable_names():
    pm = parse_map("z1 - z1^2", QQ, 4)
    assert pm.variables == ["z1"]


def test_map_shape_errors():
    with pytest.raises(MapFormError, match="stray linear term"):
        parse_map("x - y; y", QQ, 4, variables=["x", "y"])
    with pytest.raises(MapFormError, match="constant term"):
        parse_map("x + 1; y", QQ, 4, variables=["x", "y"])
    with pytest.raises(MapFormError, match="coefficient of z1 must be 1"):
        parse_map("2*x; y", QQ, 4, variables=["x", "y"])
    with pytest.raises(MapFormError, match="component 1 is missing its z1 term"):
        parse_map("x*x; y", QQ, 4, variables=["x", "y"])
    with pytest.raises(MapFormError, match="components but"):
        parse_map("x - x^2", QQ, 4, variables=["x", "y"])
    # an explicit empty list names no variable; it does not fall back to the header
    with pytest.raises(MapFormError, match="2 components but 0 variables"):
        parse_map("vars: x, y\nx - y*y; y", QQ, 4, variables=[])


def test_empty_source_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_map("   \n", QQ, 4)


def test_format_series_basics():
    assert format_series(NCSeries.zero(QQ, 2, 3), ["x", "y"]) == "0"
    s = NCSeries.from_terms(
        QQ, 2, 4, [((0, 0, 0), Fraction(-1)), ((0, 1), Fraction(3, 2)), ((1,), Fraction(-1))]
    )
    assert format_series(s, ["x", "y"]) == "-y + 3/2*x*y - x^3"


def test_roundtrip_engine_outputs():
    rng = random.Random(17)
    for n in (1, 2, 3):
        names = ["x", "y", "w"][:n]
        h = random_displacement(rng, QQ, n, 5)
        g = invert_fixed_point(h)
        text = format_map(g, names)
        back = parse_map(text, QQ, 5)
        assert back.variables == names
        assert list(back.f_map.components) == list(g.components)


def test_roundtrip_over_prime_field():
    rng = random.Random(18)
    field = PrimeField(7)
    h = random_displacement(rng, field, 2, 5)
    g = invert_fixed_point(h)
    text = format_map(g, ["x", "y"])
    back = parse_map(text, field, 5)
    assert list(back.f_map.components) == list(g.components)


@st.composite
def order_two_maps(draw):
    """A random z + M with o(M) >= 2 over QQ or GF(p), and its variable names."""
    ring = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(7)]))
    n = draw(st.integers(1, 3))
    D = draw(st.integers(2, 5))
    if ring.characteristic:
        coeffs = st.integers(1, ring.characteristic - 1).map(ring.from_int)
    else:
        coeffs = st.fractions(-5, 5, max_denominator=4).filter(bool)
    words = st.lists(st.integers(0, n - 1), min_size=2, max_size=D).map(tuple)
    comps = [
        NCSeries.variable(ring, n, D, i)
        + NCSeries.from_terms(ring, n, D, draw(st.lists(st.tuples(words, coeffs), max_size=4)))
        for i in range(n)
    ]
    return FormalMap(comps), ["x", "y", "w"][:n]


@given(order_two_maps())
@settings(max_examples=60, deadline=None)
def test_format_map_round_trips_through_parse_map(case):
    f_map, names = case
    back = parse_map(format_map(f_map, names), f_map.ring, f_map.degree)
    assert back.variables == names
    assert list(back.f_map.components) == list(f_map.components)
