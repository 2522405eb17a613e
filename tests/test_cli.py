"""End-to-end CLI behavior: output schemas, exit codes, determinism."""

import io
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import ncinvert.cli as cli
from ncinvert.cli import main
from ncinvert.freealg import FormalMap, NCSeries

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


def test_shape_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "invert", "--expr", "x - y; y", "--vars", "x,y", "-d", "4"
    )
    assert code == 3
    assert "map shape" in err


def test_engine_ring_mismatch_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "invert", "--expr", "z1 - z1^2", "-d", "4",
        "--ring", "gfp:5", "--engine", "recurrent",
    )
    assert code == 3
    assert "valid engines" in err


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


def test_trees_list(capsys):
    code, out, _ = run_cli(capsys, "trees", "--leaves", "3", "--list")
    assert code == 0
    assert out.splitlines() == ["(o(oo)) 2", "((oo)o) 2"]


def test_trees_identity_json(capsys):
    code, out, _ = run_cli(capsys, "trees", "--leaves", "6", "--identity")
    assert code == 0
    payload = json.loads(out)
    assert payload["gf_ok"] is True
    assert [row["sum"] for row in payload["sums"]] == ["1"] * 6


def test_trees_refuses_too_many_leaves_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "trees", "--leaves", "40", "--list")
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


def test_bench_rejects_an_empty_degree_list(capsys):
    for degrees in ("5:3", ","):
        code, out, err = run_cli(
            capsys, "bench", "--expr", PAPER_MAP, "--vars", "x,y", "--degrees", degrees,
        )
        assert code == 3
        assert out == ""
        assert "no truncation degree" in err


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
        raise AssertionError("fixed-point iteration failed to stabilize")

    monkeypatch.setattr(cli, "invert", broken_invert)
    code, out, err = run_cli(
        capsys, "invert", "--expr", PAPER_MAP, "--vars", "x,y", "-d", "4"
    )
    assert code == 4
    assert out == ""
    assert err == "error: fixed-point iteration failed to stabilize\n"
    assert "Traceback" not in err


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
    proc = subprocess.run(
        [sys.executable, "-m", "ncinvert.cli", "trees", "--leaves", "2", "--list"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(oo) 1"
