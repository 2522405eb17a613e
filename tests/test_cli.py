"""End-to-end CLI behavior: output schemas, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncinvert.cli as cli
import ncinvert.inversion as inversion
from ncinvert.cli import main
from ncinvert.freealg import FormalMap, NCSeries
from ncinvert.rings import QQ, PrimeField

PAPER_MAP = "x - (y*x - x*y); y"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invert_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "invert", "--expr", PAPER_MAP, "--vars", "x,y", "-d", "4",
        "--engine", "recurrent", "--no-timings",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["engine"] == "recurrent"
    assert payload["verified"] is True
    assert "timings_ms" not in payload
    assert len(payload["map"]) == 2
    first = payload["map"][0]
    assert first["arity"] == 2 and first["degree"] == 4
    words = [tuple(t["word"]) for t in first["terms"]]
    assert words[0] == (1,)
    assert all(all(1 <= i <= 2 for i in w) for w in words)
    # terms are degree-lex sorted
    keys = [(len(w), w) for w in words]
    assert keys == sorted(keys)


def test_invert_includes_timings_by_default(capsys):
    code, out, _ = run_cli(
        capsys, "invert", "--expr", PAPER_MAP, "--vars", "x,y", "-d", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["timings_ms"]) == {"invert", "verify"}


def test_output_is_byte_identical_across_runs(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run_cli(
            capsys, "invert", "--expr", PAPER_MAP, "--vars", "x,y", "-d", "6",
            "--engine", "tree", "--no-timings", "--output", str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_tree_engine_reads_a_map_file(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("vars: x, y\nx - (y*x - x*y)\ny\n")
    out_path = tmp_path / "g.json"
    code, out, _ = run_cli(
        capsys, "invert", str(f), "-d", "4", "--engine", "tree", "--no-timings",
        "--output", str(out_path),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["engine"] == "tree"
    assert payload["verified"] is True


def test_engines_produce_identical_maps(capsys):
    outputs = []
    for engine in ("fixed-point", "recurrent", "tree"):
        code, out, _ = run_cli(
            capsys, "invert", "--expr", PAPER_MAP, "--vars", "x,y", "-d", "5",
            "--engine", engine, "--no-timings",
        )
        assert code == 0
        payload = json.loads(out)
        outputs.append(payload["map"])
    assert outputs[0] == outputs[1] == outputs[2]


def test_invert_identity_map(capsys):
    code, out, _ = run_cli(
        capsys, "invert", "--expr", "x; y", "--vars", "x,y", "-d", "4",
        "--no-timings",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["map"][0]["terms"] == [{"word": [1], "coeff": "1"}]


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "invert", "--expr", "x - (y*x; y", "--vars", "x,y", "-d", "4"
    )
    assert code == 2
    assert "parse error" in err


def test_a_denominator_that_is_0_mod_p_exits_2_at_it(capsys):
    code, out, err = run_cli(
        capsys, "invert", "--expr", "z1 - 1/2*z1*z1", "--ring", "gfp:2", "-d", "3"
    )
    assert code == 2
    assert out == ""
    assert err == "parse error: 1:8: denominator 2 is 0 mod 2\n"


def test_map_literals_take_only_ascii_digits(capsys):
    # ARABIC-INDIC DIGIT THREE is a digit to Python's int(), not to the grammar
    code, out, err = run_cli(
        capsys, "invert", "--expr", "x - \u0663*x*x", "--vars", "x", "-d", "3"
    )
    assert code == 2
    assert out == ""
    assert err == "parse error: 1:5: unexpected character '\u0663'\n"


@pytest.mark.parametrize("char", ["\x1c", "\x85", "\u2028", "\u2029", "\x0c", "\xa0"])
def test_unicode_line_and_space_characters_are_unexpected(capsys, char):
    # each is a line break to str.splitlines() or a space to str.isspace();
    # to the grammar a line ends only at \n, \r\n or \r, and only a space or
    # a tab separates tokens
    code, out, err = run_cli(
        capsys, "invert", "--expr", f"x - x*x{char}; y", "--vars", "x,y", "-d", "3"
    )
    assert (code, out) == (2, "")
    assert err == f"parse error: 1:8: unexpected character {char!r}\n"


@pytest.mark.parametrize(
    "source, message",
    [
        ("x - x*x; y - $y", "1:14: unexpected character '$'"),
        ("x - x*x; y - (y", "1:16: expected ')'"),
        ("vars: x, y\nx - x*x;  y - y*$\n", "2:17: unexpected character '$'"),
    ],
    ids=["expr-character", "expr-end", "file-line"],
)
def test_parse_error_columns_count_from_the_start_of_the_line(
    tmp_path, capsys, source, message
):
    # a component after ';' keeps its place on the line
    path = tmp_path / "map.txt"
    path.write_text(source, encoding="utf-8")
    argv = ["--expr", source, "--vars", "x,y"] if "\n" not in source else [str(path)]
    code, out, err = run_cli(capsys, "invert", *argv, "-d", "3")
    assert (code, out) == (2, "")
    assert err == f"parse error: {message}\n"


@pytest.mark.parametrize("char", ["\x1c", "\u2028"])
def test_unicode_space_in_a_vars_header_or_option_is_no_blank(tmp_path, capsys, char):
    f = tmp_path / "f.txt"
    f.write_text(f"vars: x{char}, y\nx - x*x\ny\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "invert", str(f), "-d", "3")
    assert (code, out) == (2, "")
    assert err == f"parse error: 1:1: {'x' + char!r} is not a variable name\n"
    code, out, err = run_cli(
        capsys, "invert", "--expr", "x - x*x; y", "--vars", f"x{char},y", "-d", "3"
    )
    assert (code, out) == (2, "")
    assert err == f"parse error: {'x' + char!r} is not a variable name\n"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_components_split_at_every_universal_newline(capsys, newline):
    expected = run_cli(
        capsys, "invert", "--expr", "x - y*x; y", "--vars", "x,y", "-d", "4", "--no-timings"
    )
    got = run_cli(
        capsys, "invert", "--expr", f"x - y*x{newline}y", "--vars", "x,y", "-d", "4",
        "--no-timings",
    )
    assert got == expected
    assert got[0] == 0


@pytest.mark.parametrize(
    "source, names, message",
    [
        ("x - y*y; y", "x,x", "variable 'x' is declared twice"),
        ("x - y*y; y", "x,1x", "'1x' is not a variable name"),
        ("x - y*y; y", "1x,x,1x", "variable '1x' is declared twice"),
        ("vars: x, x\nx - y*y\ny\n", None, "1:1: variable 'x' is declared twice"),
        ("\nvars: x, 1x\nx - x*x\nx\n", None, "2:1: '1x' is not a variable name"),
    ],
    ids=["repeated", "not-a-name", "repeated-first", "header-repeated", "header-not-a-name"],
)
def test_bad_variable_names_exit_2(tmp_path, capsys, source, names, message):
    path = tmp_path / "map.txt"
    path.write_text(source, encoding="utf-8")
    argv = ["invert", str(path), "-d", "3"] + (["--vars", names] if names else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"parse error: {message}\n"


def test_shape_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "invert", "--expr", "x - y; y", "--vars", "x,y", "-d", "4"
    )
    assert code == 3
    assert "map shape" in err


def test_shape_error_names_the_same_letter_in_any_term_order(capsys):
    errors = []
    for first in ("x - x + 2*x + y; y", "x - x + y + 2*x; y"):
        code, _, err = run_cli(capsys, "invert", "--expr", first, "--vars", "x,y", "-d", "3")
        assert code == 3
        errors.append(err)
    assert errors[0] == errors[1] == (
        "map shape error: not a z - H map: component 1: coefficient of z1 must be 1\n"
    )


def test_engine_ring_mismatch_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "invert", "--expr", "z1 - z1^2", "-d", "4",
        "--ring", "gfp:5", "--engine", "recurrent",
    )
    assert code == 3
    assert "valid engines" in err


@pytest.mark.parametrize(
    "ring",
    # the modulus is ASCII digits, as an integer literal of a map is
    [
        "gfp:abc", "gfp:1e3", "gfp:", "rationals",
        "gfp:\u0663", "gfp:1_3", "gfp:+13", "gfp: 3",
        pytest.param("gfp:" + "9" * 5000, id="gfp:9*5000"),
    ],
)
def test_malformed_ring_exits_3_naming_the_ring_and_the_accepted_forms(capsys, ring):
    code, out, err = run_cli(
        capsys, "invert", "--expr", "x-x*x", "--vars", "x", "-d", "4", "--ring", ring
    )
    assert (code, out) == (3, "")
    assert err == f"error: unknown ring {ring!r}; use 'rational' or 'gfp:<p>'\n"


def test_verify_failure_exit_code(tmp_path, capsys):
    f = tmp_path / "f.txt"
    g = tmp_path / "g.txt"
    f.write_text("vars: x, y\nx - (y*x - x*y)\ny\n")
    g.write_text("vars: x, y\nx\ny\n")
    code, out, _ = run_cli(capsys, "verify", str(f), str(g), "-d", "4")
    assert code == 4
    payload = json.loads(out)
    assert payload["verified"] is False
    assert payload["degree"] == 2


def test_verify_success(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("vars: x, y\nx - (y*x - x*y)\ny\n")
    code, out, _ = run_cli(
        capsys, "invert", str(f), "-d", "4", "--format", "text", "--no-timings",
        "--output", str(tmp_path / "g.txt"),
    )
    assert code == 0
    g_text = (tmp_path / "g.txt").read_text().splitlines()
    (tmp_path / "g.txt").write_text("\n".join(g_text[:3]) + "\n")
    code, out, _ = run_cli(
        capsys, "verify", str(f), str(tmp_path / "g.txt"), "-d", "4"
    )
    assert code == 0
    assert json.loads(out) == {"verified": True}


def test_stdin_map_source(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("vars: x, y\nx - x*y\ny\n"))
    code, out, _ = run_cli(capsys, "invert", "-", "-d", "3", "--no-timings")
    assert code == 0
    assert json.loads(out)["verified"] is True


@pytest.mark.parametrize("command, degree", [("invert", "-d"), ("bench", "--degrees")])
def test_empty_expr_is_an_empty_map_not_a_read_of_stdin(capsys, monkeypatch, command, degree):
    monkeypatch.setattr(sys, "stdin", io.StringIO("x - x*x"))
    code, out, err = run_cli(capsys, command, "--expr", "", "--vars", "x", degree, "3")
    assert (code, out) == (2, "")
    assert err == "parse error: 1:1: no map components found\n"


def test_trees_list(capsys):
    code, out, _ = run_cli(capsys, "trees", "--leaves", "3")
    assert code == 0
    assert out.splitlines() == ["(o(oo)) 2", "((oo)o) 2"]


def test_trees_list_json(capsys):
    code, out, _ = run_cli(capsys, "trees", "--leaves", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "leaves": 3,
        "trees": [{"tree": "(o(oo))", "factorial": 2}, {"tree": "((oo)o)", "factorial": 2}],
    }


def test_trees_identity_json(capsys):
    code, out, _ = run_cli(capsys, "trees", "--leaves", "6", "--identity")
    assert code == 0
    payload = json.loads(out)
    assert payload["gf_ok"] is True
    assert [row["sum"] for row in payload["sums"]] == ["1"] * 6


@pytest.mark.parametrize("identity", [(), ("--identity",)])
def test_trees_refuses_a_leaf_count_below_one(capsys, identity):
    code, out, err = run_cli(capsys, "trees", "--leaves", "0", *identity)
    assert (code, out, err) == (3, "", "error: leaf count must be >= 1\n")


def test_trees_refuses_too_many_leaves_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "trees", "--leaves", "40")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("error: 40 leaves give Catalan(39) = ")
    assert err.endswith("more than the limit of 1,000,000\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("trees", "--leaves", "4", "--invert", "F.map"),
        ("trees", "--leaves", "4", "-d", "4"),
        ("trees", "--leaves", "4", "--no-timings"),
        ("verify", "F.map", "G.map", "-d", "4", "--no-timings"),
        ("trees", "--leaves", "4", "--list"),
    ],
)
def test_removed_options_are_unknown_arguments(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_identities_command_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "identities", "--trials", "1", "--seed", "7",
        "-d", "5", "--torder", "3", "--no-timings",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    names = {row["name"] for row in payload["identities"]}
    assert "derivation-chain-rule" in names
    assert "inversion-pde" in names
    assert all("millis" not in row for row in payload["identities"])


def test_bench_csv_shape_and_monotone_terms(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--expr", PAPER_MAP, "--vars", "x,y",
        "--degrees", "3:5", "--engines", "fixed-point,recurrent",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "engine,n,D,wall_ms,term_count,max_coeff_bits"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    per_engine = {}
    for engine, n, d, _, terms, _ in rows:
        assert n == "2"
        per_engine.setdefault(engine, []).append(int(terms))
    for counts in per_engine.values():
        assert counts == sorted(counts)
    # equal term counts across engines at each degree
    assert per_engine["fixed-point"] == per_engine["recurrent"]


@pytest.mark.parametrize(
    "expr,ring,engines,bits",
    [
        (
            "x - (y*x - x*y) + 1/3*x*x*y; y - 2*y*x", "rational",
            ("fixed-point", "recurrent", "tree"), [4, 6, 8, 9],
        ),
        (
            "x - 4*(y*x - x*y) + 3*x*x*y; y - 2*y*x", "gfp:5",
            ("fixed-point", "charp-direct", "charp-lift"), [3, 3, 3, 3],
        ),
    ],
)
def test_bench_max_coeff_bits_column(capsys, expr, ring, engines, bits):
    code, out, _ = run_cli(
        capsys, "bench", "--expr", expr, "--vars", "x,y", "--ring", ring, "--degrees", "4:7",
    )
    assert code == 0
    per_engine = {}
    for row in out.strip().splitlines()[1:]:
        engine, _, _, _, _, width = row.split(",")
        per_engine.setdefault(engine, []).append(int(width))
    assert per_engine == {engine: bits for engine in engines}


def test_bench_rejects_an_empty_degree_list(capsys):
    for degrees in ("5:3", ","):
        code, out, err = run_cli(
            capsys, "bench", "--expr", PAPER_MAP, "--vars", "x,y", "--degrees", degrees,
        )
        assert code == 3
        assert out == ""
        assert "no truncation degree" in err


@pytest.mark.parametrize("degrees", ["a", "3:", ":4", "1:2:3", "4,x", "4.5"])
def test_malformed_degrees_exit_3_naming_the_option_and_the_accepted_forms(capsys, degrees):
    code, out, err = run_cli(
        capsys, "bench", "--expr", "x-x*x", "--vars", "x", "--degrees", degrees
    )
    assert (code, out) == (3, "")
    assert err == (
        f"error: malformed --degrees {degrees!r}; use 'LO:HI' or a comma list of integers\n"
    )


def test_bench_refuses_a_span_from_degree_0_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "bench", "--expr", "x - x*x", "--vars", "x",
        "--degrees", "0:100000000000000000000",
    )
    assert (code, out) == (3, "")
    assert err == "error: truncation degree must be >= 1\n"
    assert time.perf_counter() - start < 5


def test_degree_span_is_kept_lazy():
    # a list of 10^20 degrees could not be built; the range is never walked
    degrees = cli._parse_degrees("3:" + "9" * 20)
    assert isinstance(degrees, range)
    assert degrees == range(3, 10**20)


@pytest.mark.parametrize("engines", ["", ",", " "])
def test_bench_rejects_an_empty_engine_list(capsys, engines):
    code, out, err = run_cli(
        capsys, "bench", "--expr", "x - x*x", "--vars", "x", "--degrees", "3",
        "--engines", engines,
    )
    assert (code, out) == (3, "")
    assert err == f"error: --engines {engines!r} names no engine\n"


@pytest.mark.parametrize("names", ["", ",", " "])
@pytest.mark.parametrize("command", ["invert", "verify", "bench"])
def test_vars_naming_no_variable_exits_2(tmp_path, capsys, command, names):
    f = tmp_path / "f.txt"
    g = tmp_path / "g.txt"
    f.write_text("z1 - z1*z1\n")
    g.write_text("z1 + z1*z1 + 2*z1*z1*z1\n")
    argv = {
        "invert": ["invert", str(f), "-d", "3"],
        "verify": ["verify", str(f), str(g), "-d", "3"],
        "bench": ["bench", str(f), "--degrees", "3"],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--vars", names)
    assert (code, out) == (2, "")
    assert err == f"parse error: --vars {names!r} names no variable\n"


def test_bench_refuses_a_repeated_engine(capsys):
    code, out, err = run_cli(
        capsys, "bench", "--expr", "x - x*x", "--vars", "x", "--degrees", "3",
        "--engines", "recurrent,fixed-point, recurrent",
    )
    assert (code, out) == (3, "")
    assert err == "error: --engines names 'recurrent' twice\n"


def test_bench_reports_where_engines_differ(capsys, monkeypatch):
    real_invert = cli.invert

    def skewed_invert(h_vector, engine):
        g_map = real_invert(h_vector, engine=engine)
        if engine != "recurrent":
            return g_map
        first = g_map.components[0]
        bump = NCSeries.from_terms(
            first.ring, first.arity, first.degree, [((1, 0), Fraction(1, 7))]
        )
        return FormalMap((first + bump,) + g_map.components[1:])

    monkeypatch.setattr(cli, "invert", skewed_invert)
    code, _, err = run_cli(
        capsys, "bench", "--expr", PAPER_MAP, "--vars", "x,y", "--degrees", "4",
        "--engines", "fixed-point,recurrent",
    )
    assert code == 4
    assert err == (
        "engine disagreement at D=4: recurrent differs; "
        "component 1, word z2z1: fixed-point has 1, recurrent has 8/7\n"
    )


def test_internal_assertion_exits_4_with_a_message(capsys, monkeypatch):
    def broken_invert(h_vector, engine):
        raise AssertionError("special deformation produced a t-constant term")

    monkeypatch.setattr(cli, "invert", broken_invert)
    code, out, err = run_cli(
        capsys, "invert", "--expr", PAPER_MAP, "--vars", "x,y", "-d", "4"
    )
    assert code == 4
    assert out == ""
    assert err == "error: special deformation produced a t-constant term\n"
    assert "Traceback" not in err


def test_non_integral_lift_exits_4_naming_charp_lift(capsys, monkeypatch):
    # divide each layer by m instead of m - 1: the integer lift must refuse
    def off_by_one(terms, m):
        ring = terms[0][0].ring
        return tuple(
            s.map_coefficients(lambda c: ring.div_by_int(c, m))
            for s in inversion.convolution_sum(terms, m)
        )

    monkeypatch.setattr(inversion, "_divided_convolution", off_by_one)
    code, out, err = run_cli(
        capsys, "invert", "--expr", "x - 3*x*y; y", "--vars", "x,y", "-d", "4",
        "--ring", "gfp:5", "--engine", "charp-lift",
    )
    assert code == 4
    assert out == ""
    assert err == "error: charp-lift: integer coefficient 9 is not divisible by 2\n"


def test_unknown_engine_exits_3(capsys):
    for argv in (
        ("invert", "--expr", PAPER_MAP, "--vars", "x,y", "-d", "4", "--engine", "bogus"),
        ("bench", "--expr", PAPER_MAP, "--vars", "x,y", "--engines", "fixed-point,bogus"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: unknown engine 'bogus'; choose from fixed-point,")


def test_huge_power_inverts_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "invert", "--expr", "x - x^1000000000", "--vars", "x", "-d", "4",
        "--no-timings",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["map"][0]["terms"] == [{"word": [1], "coeff": "1"}]


def test_check_identities_alias(capsys):
    code, out, _ = run_cli(
        capsys, "check-identities", "--trials", "1", "--seed", "3",
        "-d", "4", "--torder", "2", "--format", "text", "--no-timings",
    )
    assert code == 0
    assert "all identities passed" in out


def test_two_main_calls_build_one_parser(capsys, monkeypatch):
    built, original = [], cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert run_cli(capsys, "trees", "--leaves", "2")[:2] == (0, "(oo) 1\n")
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_command_dispatches_to_its_function_patched_after_the_parser(
    capsys, monkeypatch, command
):
    # the parser is built before the patch: dispatch reads the function by name
    cli._parser()
    seen = []
    monkeypatch.setattr(cli, cli.COMMANDS[command], lambda args: seen.append(args.command) or 7)
    args = {"invert": ["-d", "2"], "verify": ["f", "g", "-d", "2"], "trees": ["--leaves", "1"]}
    assert main([command, *args.get(command, [])]) == 7
    assert seen == [command]
    subs = next(a for a in cli._parser()._actions if a.dest == "command")
    assert set(cli.COMMANDS) == set(subs.choices)


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--n", "0", "--n (max arity) must be >= 1, got 0"),
        ("-d", "1", "-d/--degree (max z-degree) must be >= 2, got 1"),
        ("--torder", "0", "--torder (max t-order) must be >= 1, got 0"),
        ("--trials", "-1", "--trials (instances per identity) must be >= 1, got -1"),
        ("--trials", "0", "--trials (instances per identity) must be >= 1, got 0"),
    ],
)
def test_identities_rejects_out_of_range_options(capsys, option, value, message):
    code, out, err = run_cli(capsys, "identities", option, value, "--no-timings")
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


def test_console_script_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "ncinvert.cli", "trees", "--leaves", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(oo) 1"


def test_python_m_ncinvert_runs_the_cli_from_a_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "ncinvert", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: ncinvert")


def test_unprintable_output_coefficient_exits_3(capsys, tmp_path):
    width = (3**30000).bit_length()
    limit = sys.get_int_max_str_digits()
    message = (
        f"error: a coefficient of {width} bits has more than the "
        f"{limit} decimal digits that can be printed\n"
    )
    argv = ["invert", "--expr", "x - 3^30000*x*x", "--vars", "x", "-d", "3", "--no-timings"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == message
    assert "set_int_max_str_digits" not in err
    # the whole text is built before --output is opened: a missing file is
    # not created and an existing one is not truncated
    missing, existing = tmp_path / "missing.json", tmp_path / "existing.json"
    existing.write_text("earlier output\n")
    for path in (missing, existing):
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert code == 3
        assert out == ""
        assert err == message
    assert not missing.exists()
    assert existing.read_text() == "earlier output\n"


def test_text_format_builds_no_json(capsys, monkeypatch):
    def refuse(*args):
        raise RuntimeError("JSON built for --format text")

    monkeypatch.setattr(cli, "_map_json", refuse)
    monkeypatch.setattr(cli, "_dump_json", refuse)
    code, out, _ = run_cli(
        capsys, "invert", "--expr", PAPER_MAP, "--vars", "x,y", "-d", "4",
        "--format", "text", "--no-timings",
    )
    assert code == 0
    assert out.splitlines()[-1] == "verified: both compositions equal the identity"


@st.composite
def invert_payloads(draw):
    """An ``invert`` payload as ``cmd_invert`` builds it, around a random
    map: QQ or GF(2), GF(3), GF(5), 1-3 letters or 10-11 (two-digit letters),
    words from the constant word up, components that may be zero."""
    ring = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(5)]))
    n = draw(st.one_of(st.integers(1, 3), st.integers(10, 11)))
    degree = draw(st.integers(0, 3))
    words = st.lists(st.integers(0, n - 1), max_size=degree).map(tuple)
    if ring is QQ:
        coeffs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))
    else:
        coeffs = st.integers(-9, 9).map(ring.from_int)
    components = [
        NCSeries.from_terms(ring, n, degree, draw(st.lists(st.tuples(words, coeffs), max_size=4)))
        for _ in range(n)
    ]
    payload = {
        "engine": draw(st.sampled_from(list(inversion._engine_table()))),
        "map": cli._map_json(FormalMap(components)),
        "verified": draw(st.booleans()),
    }
    if draw(st.booleans()):
        millis = st.floats(0, 1e7, allow_nan=False).map(lambda ms: round(ms, 3))
        payload["timings_ms"] = {"invert": draw(millis), "verify": draw(millis)}
    return payload


@given(invert_payloads())
@settings(max_examples=200, deadline=None)
def test_invert_payload_text_is_the_indent_2_dump(payload):
    text = cli._dump_json(payload)
    assert text == json.dumps(payload, indent=2) + "\n"
    assert json.loads(text) == payload


DIGEST_MAP = "x - 2*x*y + y*x - x*x; y - y*y + 3*x*y - y*x*x"

INVERT_DIGESTS = [
    ("rational", "fixed-point", "8f6046e3ee55c2e7529bf2a47d3e024619a453b48a10c03252e56d8defc4b92a"),
    ("rational", "recurrent", "b3c57510397db0e58f515f680629ca16a2d017e877360f90e719ab2617a3b63f"),
    ("rational", "tree", "d1edbba3378b067b4185d6b9755e89b73667b19f0550e2e9384d22a7e14d8dc0"),
    ("gfp:2", "fixed-point", "c1b47b4db4740ff7e18e479f52bafbe0be1cb0d936bc7fe543e20dc2f6d7e54f"),
    ("gfp:2", "charp-direct", "65a0a2cea997d50077d94b9218b52c6cbeabe73a4a9bd251bd3e331ee7533f38"),
    ("gfp:2", "charp-lift", "3a3f2d71b6720249f77afd2bbd6a3317f0f05ae42a29d16babfaccdde3161bba"),
    ("gfp:3", "fixed-point", "7b330c8225f553ed08d271f80c8d348fdf0d39efbb61ea570bdef66e0a86d03b"),
    ("gfp:3", "charp-direct", "6435a756c010c7e360ae3cd1a436cd27401b5b527f6a95c526fc94e2a668e244"),
    ("gfp:3", "charp-lift", "7331dbdc196452c0909ded1e9692b4eafa0c83320b337dea0b2421f00b7ae324"),
    ("gfp:5", "fixed-point", "d9f5d5e4c116dc2aa332b603f54756fbb3c95099d3778f26d024d3f11b7e3fdc"),
    ("gfp:5", "charp-direct", "6cd24921a55ba701ac427df3c8812b2a331b40df0f19c7a5de905e3c8a5dde1d"),
    ("gfp:5", "charp-lift", "74f4e9bcc6875cc2aca629b0029f1bb73b120bf89a4c271d2d86708a7e7f8ae8"),
]


@pytest.mark.parametrize(
    "argv, digest",
    [
        pytest.param(
            ("invert", "--expr", DIGEST_MAP, "--vars", "x,y", "-d", "7",
             "--ring", ring, "--engine", engine, "--no-timings"),
            digest,
            id=f"invert-{ring}-{engine}",
        )
        for ring, engine, digest in INVERT_DIGESTS
    ]
    + [
        pytest.param(
            ("identities", "--seed", "0", "--trials", "1", "--no-timings"),
            "0a8c0362e87124cba5498d3cd529f2629b07831fc219da98157da47b785abba4",
            id="identities",
        ),
        pytest.param(
            ("trees", "--leaves", "6"),
            "08b34f4183219cb7df2619f78d97f740e0f08e446e6e20b26c28005946a281e8",
            id="trees-list",
        ),
        pytest.param(
            ("trees", "--leaves", "6", "--identity"),
            "d916a1f2f8db4f4ace28cbff106b377c4f684a6e8d6831458f482cd4a4904bed",
            id="trees-identity",
        ),
    ],
)
def test_output_bytes_are_pinned(capsys, argv, digest):
    """SHA-256 of the byte-stable outputs: every engine over Q and GF(2),
    GF(3), GF(5), the identity suite and both tree modes."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
