"""Command-line driver: invert, verify, trees, identities, bench.

``invert --engine NAME`` is the one route to each of the five engines, and
``bench`` times several of them on one map; both check engine names with
``inversion.check_engine``.  ``trees`` lists planar binary trees with their
factorials and checks the identity sum 1/T^! = 1.

Exit codes: 0 success (and verified, where applicable), 2 parse error,
3 precondition error (bad shapes, engine/ring mismatches), 4 verification
failure (an engine produced a non-inverse, engines disagree, or an internal
consistency check of an engine or identity failed).

With ``--no-timings`` the JSON output contains no wall-clock fields and is
byte-identical across runs for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from . import trees as trees_mod
from .inversion import (
    _engine_table,
    _first_residual,
    check_engine,
    engines_for_ring,
    invert,
    verify_inverse,
)
from .parsing import MapFormError, ParseError, format_map, parse_map
from .rings import QQ, PrimeField
from .suite import SuiteBounds, run_identity_suite

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4


def parse_ring(text: str):
    if text == "rational":
        return QQ
    if text.startswith("gfp:"):
        try:
            modulus = int(text[len("gfp:"):])
        except ValueError:
            pass
        else:
            return PrimeField(modulus)
    raise ValueError(f"unknown ring {text!r}; use 'rational' or 'gfp:<p>'")


def _check_degree(degree):
    if degree is not None and degree < 1:
        raise ValueError("truncation degree must be >= 1")


def _read_source(args) -> str:
    if args.expr is not None:
        return args.expr
    path = args.mapfile
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def _letter_lines(arity):
    """The line of each letter 1..arity inside a word of an indent-2
    ``"map"``, indexed by the letter (index 0 is unused)."""
    return tuple("\n            " + str(a) for a in range(arity + 1))


def _map_json_parts(value, parts):
    """Append to ``parts`` the text of a ``FormalMap.to_json_list`` value
    as a field of an indent-2 ``json.dumps`` payload.

    CPython runs its C encoder only when ``indent`` is None, so with an
    indent every term would go through the generators of the pure-Python
    encoder.  Here each term is one string of fixed layout, the letters'
    lines and the coefficient, quoted by the function that ``json.dumps``
    quotes strings with.
    """
    sep = "["
    for comp in value:
        letter = _letter_lines(comp["arity"]).__getitem__
        parts.append(
            f'{sep}\n    {{\n      "arity": {comp["arity"]},\n      "degree": {comp["degree"]},'
            '\n      "terms": '
        )
        sep = ","
        if comp["terms"]:
            parts.append("[")
            parts.append(",".join([
                '\n        {\n          "word": '
                + (f'[{",".join(map(letter, t["word"]))}\n          ]' if t["word"] else "[]")
                + f',\n          "coeff": {encode_basestring_ascii(t["coeff"])}\n        }}'
                for t in comp["terms"]
            ]))
            parts.append("\n      ]\n    }")
        else:
            parts.append("[]\n    }")
    parts.append("\n  ]" if value else "[]")


def _dump_json(payload) -> str:
    """``json.dumps(payload, indent=2) + "\n"`` of a payload dict, written
    field by field: an ``invert`` payload's ``"map"`` by ``_map_json_parts``,
    every other field by ``json.dumps``.  The pieces are joined once, so no
    copy of the whole text is made on the way, and the text is complete
    before ``_emit`` opens ``--output``."""
    parts = []
    sep = "{"
    for key, value in payload.items():
        parts.append(f"{sep}\n  {encode_basestring_ascii(key)}: ")
        sep = ","
        if key == "map":
            _map_json_parts(value, parts)
        else:
            parts.append(json.dumps(value, indent=2).replace("\n", "\n  "))
    parts.append("\n}\n")
    return "".join(parts)


def _split_vars(text):
    """The names of ``--vars``, or None when it is not given."""
    if text is None:
        return None
    names = [v.strip() for v in text.split(",") if v.strip()]
    if not names:
        raise ParseError(f"--vars {text!r} names no variable")
    return names


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------


def cmd_invert(args) -> int:
    _check_degree(args.degree)
    ring = parse_ring(args.ring)
    parsed = parse_map(_read_source(args), ring, args.degree, _split_vars(args.vars))
    h_vector = parsed.f_map.h_vector()
    engine = args.engine
    start = time.perf_counter()
    g_map = invert(h_vector, engine=engine)
    invert_ms = (time.perf_counter() - start) * 1000.0
    start = time.perf_counter()
    report = verify_inverse(parsed.f_map, g_map)
    verify_ms = (time.perf_counter() - start) * 1000.0

    if args.format == "json":
        payload = {
            "engine": engine,
            "map": g_map.to_json_list(),
            "verified": report.ok,
        }
        if args.timings:
            payload["timings_ms"] = {
                "invert": round(invert_ms, 3),
                "verify": round(verify_ms, 3),
            }
        _emit(args, _dump_json(payload))
    else:
        lines = [format_map(g_map, parsed.variables).rstrip("\n")]
        lines.append(report.describe())
        if args.timings:
            lines.append(f"invert: {invert_ms:.1f} ms, verify: {verify_ms:.1f} ms")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    _check_degree(args.degree)
    ring = parse_ring(args.ring)
    variables = _split_vars(args.vars)
    with open(args.fmap, "r", encoding="utf-8") as fh:
        f_parsed = parse_map(fh.read(), ring, args.degree, variables)
    with open(args.gmap, "r", encoding="utf-8") as fh:
        g_parsed = parse_map(fh.read(), ring, args.degree, variables)
    report = verify_inverse(f_parsed.f_map, g_parsed.f_map)
    if args.format == "json":
        _emit(args, _dump_json(report.to_json_dict()))
    else:
        _emit(args, report.describe() + "\n")
    return EXIT_OK if report.ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def cmd_trees(args) -> int:
    if args.identity:
        pairs = trees_mod.factorial_identity_check(args.leaves)
        payload = {
            "sums": [
                {"leaves": m, "sum": str(total), "ok": total == 1}
                for m, total in pairs
            ],
            "gf_ok": trees_mod.gf_identity_check(
                args.leaves, [total for _, total in pairs]
            ),
        }
        if args.format in (None, "json"):
            _emit(args, _dump_json(payload))
        else:
            lines = [
                f"leaves={m}: sum 1/T^! = {row['sum']} {'ok' if row['ok'] else 'FAIL'}"
                for m, row in zip(range(1, args.leaves + 1), payload["sums"])
            ]
            lines.append(f"generating-function check: {'ok' if payload['gf_ok'] else 'FAIL'}")
            _emit(args, "\n".join(lines) + "\n")
        ok = payload["gf_ok"] and all(r["ok"] for r in payload["sums"])
        return EXIT_OK if ok else EXIT_VERIFY
    # default: list the trees with their factorials
    rows = [
        (t.serialize(), t.factorial)
        for t in trees_mod.enumerate_pbtrees(args.leaves)
    ]
    if args.format == "json":
        payload = {
            "leaves": args.leaves,
            "trees": [{"tree": tree, "factorial": fact} for tree, fact in rows],
        }
        _emit(args, _dump_json(payload))
    else:
        _emit(args, "\n".join(f"{tree} {fact}" for tree, fact in rows) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def cmd_identities(args) -> int:
    bounds = SuiteBounds(
        max_arity=args.n, max_degree=args.degree, max_torder=args.torder
    )
    results = run_identity_suite(args.seed, trials=args.trials, bounds=bounds)
    all_ok = all(r.ok for r in results)
    if args.format == "json":
        rows = [r.to_json_dict() for r in results]
        if not args.timings:
            for row in rows:
                row.pop("millis")
        payload = {
            "seed": args.seed,
            "trials": args.trials,
            "identities": rows,
            "all_ok": all_ok,
        }
        _emit(args, _dump_json(payload))
    else:
        lines = []
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            suffix = f" ({r.millis:.0f} ms)" if args.timings else ""
            lines.append(f"{status} {r.name}: {r.passed}/{r.trials}{suffix}")
        lines.append("all identities passed" if all_ok else "FAILURES present")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _parse_degrees(text):
    """The degrees of ``--degrees``: 'LO:HI' as a range, which is checked
    without being walked, or a comma list; each degree must be >= 1."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            degrees = range(int(lo), int(hi) + 1)
        else:
            degrees = [int(d) for d in text.split(",") if d.strip()]
    except ValueError:
        raise ValueError(
            f"malformed --degrees {text!r}; use 'LO:HI' or a comma list of integers"
        ) from None
    if not degrees:
        raise ValueError(f"--degrees {text!r} names no truncation degree")
    # a range ascends, so its first degree is its least
    _check_degree(degrees[0] if isinstance(degrees, range) else min(degrees))
    return degrees


def _describe_difference(ref_engine, ref_map, engine, g_map) -> str:
    """Where two engines' maps first differ, in degree-lex order."""
    ring = ref_map.ring
    _, i, word, _ = _first_residual(
        [b - a for a, b in zip(ref_map.components, g_map.components)]
    )
    letters = "".join(f"z{j + 1}" for j in word) or "1"
    return (
        f"component {i + 1}, word {letters}: {ref_engine} has "
        f"{ring.to_string(ref_map.components[i].coefficient(word))}, {engine} has "
        f"{ring.to_string(g_map.components[i].coefficient(word))}"
    )


def cmd_bench(args) -> int:
    ring = parse_ring(args.ring)
    source = _read_source(args)
    degrees = _parse_degrees(args.degrees)
    if args.engines is None:
        engines = list(engines_for_ring(ring))
    else:
        engines = [e.strip() for e in args.engines.split(",") if e.strip()]
        if not engines:
            raise ValueError(f"--engines {args.engines!r} names no engine")
    variables = _split_vars(args.vars)
    for e in engines:
        check_engine(e, ring)
        if engines.count(e) > 1:
            raise ValueError(f"--engines names {e!r} twice")
    rows = ["engine,n,D,wall_ms,term_count,max_coeff_bits"]
    for degree in degrees:
        parsed = parse_map(source, ring, degree, variables)
        h_vector = parsed.f_map.h_vector()
        outputs = {}
        for engine in engines:
            start = time.perf_counter()
            g_map = invert(h_vector, engine=engine)
            wall_ms = (time.perf_counter() - start) * 1000.0
            outputs[engine] = (g_map, wall_ms)
        ref_engine, (reference, _) = next(iter(outputs.items()))
        for engine, (g_map, _) in outputs.items():
            if g_map != reference:
                where = _describe_difference(ref_engine, reference, engine, g_map)
                sys.stderr.write(
                    f"engine disagreement at D={degree}: {engine} differs; {where}\n"
                )
                return EXIT_VERIFY
        if not verify_inverse(parsed.f_map, reference).ok:
            sys.stderr.write(f"verification failed at D={degree}\n")
            return EXIT_VERIFY
        for engine in engines:
            g_map, wall_ms = outputs[engine]
            terms = sum(c.term_count() for c in g_map.components)
            bits = max(c.coeff_bits() for c in g_map.components)
            rows.append(
                f"{engine},{parsed.f_map.arity},{degree},"
                f"{wall_ms:.3f},{terms},{bits}"
            )
    _emit(args, "\n".join(rows) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_output(sub, default="json", format_help="output format"):
    sub.add_argument("--format", choices=("json", "text"), default=default, help=format_help)
    sub.add_argument("--output", help="write output to this path instead of stdout")


def _add_common(sub):
    sub.add_argument("--vars", help="comma-separated variable names")
    sub.add_argument(
        "-d", "--degree", type=int, required=True,
        help="truncation degree D",
    )
    sub.add_argument(
        "--ring", default="rational", help="'rational' or 'gfp:<p>' (default rational)"
    )
    _add_output(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncinvert",
        description="Exact inversion of formal maps z - H(z) in noncommutative variables",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_inv = subs.add_parser("invert", help="invert a map and verify the result")
    p_inv.add_argument("mapfile", nargs="?", help="map file ('-' for stdin)")
    p_inv.add_argument("--expr", help="inline map text instead of a file")
    p_inv.add_argument(
        "--engine", default="fixed-point",
        help=f"one of: {', '.join(_engine_table())} (default: %(default)s)",
    )
    _add_common(p_inv)
    p_inv.add_argument(
        "--no-timings", dest="timings", action="store_false",
        help="omit wall-clock fields (byte-stable output)",
    )
    p_inv.set_defaults(func=cmd_invert)

    p_ver = subs.add_parser("verify", help="check that two maps invert each other")
    p_ver.add_argument("fmap")
    p_ver.add_argument("gmap")
    _add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_tr = subs.add_parser("trees", help="planar binary trees: list and identities")
    p_tr.add_argument("--leaves", type=int, required=True, help="leaf count m")
    p_tr.add_argument(
        "--identity", action="store_true",
        help="check sum 1/T^! = 1 up to m (default: list the trees and factorials)",
    )
    _add_output(
        p_tr, default=None,
        format_help="output format (default text, json with --identity)",
    )
    p_tr.set_defaults(func=cmd_trees)

    p_id = subs.add_parser(
        "identities", aliases=["check-identities"],
        help="run the seeded identity suite",
    )
    p_id.add_argument("--n", type=int, default=3, help="max arity (default 3)")
    p_id.add_argument("-d", "--degree", type=int, default=6, help="max z-degree")
    p_id.add_argument("--torder", type=int, default=5, help="max t-order")
    p_id.add_argument("--seed", type=int, default=0, help="64-bit seed")
    p_id.add_argument("--trials", type=int, default=20, help="instances per identity")
    _add_output(p_id)
    p_id.add_argument("--no-timings", dest="timings", action="store_false")
    p_id.set_defaults(func=cmd_identities)

    p_b = subs.add_parser("bench", help="time all applicable engines on one map")
    p_b.add_argument("mapfile", nargs="?")
    p_b.add_argument("--expr")
    p_b.add_argument(
        "--degrees", default="6", help="'4:8' or comma list of truncation degrees"
    )
    p_b.add_argument("--engines", help="comma list (default: all applicable)")
    p_b.add_argument("--vars")
    p_b.add_argument("--ring", default="rational")
    p_b.add_argument("--output")
    p_b.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except MapFormError as exc:
        sys.stderr.write(f"map shape error: {exc}\n")
        return EXIT_PRECONDITION
    except (ValueError, ZeroDivisionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except AssertionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
