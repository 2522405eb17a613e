"""Smoke test of the benchmark itself, on one tiny input per workload.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import benchjobs
import control
import layertrace
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))


def tiny(name):
    """The workload shrunk to one map at D = 5, or one identity round."""
    spec = benchjobs.WORKLOADS[name]
    if isinstance(spec, benchjobs.IdentitySpec):
        return dataclasses.replace(spec, cells=((2, 4, 3),))
    return dataclasses.replace(spec, degrees=(5,), maps=1)


@pytest.mark.parametrize("name", sorted(benchjobs.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, tmp_path):
    wanted = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for trace in (0, 1):
        result, metrics, info = run.measure(name, tiny(name), 7, 0, trace, tmp_path)
        assert result.failed == 0, [o.why for o in result.outcomes]
        assert {k: u for k, (_, u) in metrics.items()} == wanted[trace]
        assert all(isinstance(v, (int, float)) for v, _ in metrics.values())
    if name != "q-engines":
        # only the tree engine runs threads, whose shared memo may be
        # filled twice; everything else must count exactly
        assert info["varying_counts"] == {}
    assert (tmp_path / f"spans-{name}.tsv").stat().st_size > 0


def _mutate_first_coefficient(original, engine):
    def dump(payload):
        if payload.get("engine") == engine:
            term = payload["map"][0]["terms"][0]
            term["coeff"] = str(Fraction(term["coeff"]) + 1)
        return original(payload)

    return dump


def test_gate_fails_a_mutated_coefficient(tmp_path, monkeypatch):
    name = "q-engines"
    mods, pool, _, _ = run.setup(name, tiny(name), 7, tmp_path)
    clean = benchjobs.run_passes(pool, mods, passes=1)
    assert clean.failed == 0
    monkeypatch.setattr(
        mods.cli, "_dump_json", _mutate_first_coefficient(mods.cli._dump_json, "recurrent")
    )
    mutated = benchjobs.run_passes(pool, mods, passes=1)
    assert mutated.failed == len(mutated.outcomes) > 0
    assert "engines disagree" in mutated.outcomes[0].why
    assert mutated.digest != clean.digest
    assert run.score(clean, clean.digest) == (len(clean.outcomes), 0)
    assert run.score(clean, mutated.digest) == (len(clean.outcomes), len(clean.outcomes))


def test_control_fails_an_output_that_every_engine_changed(tmp_path, monkeypatch):
    name = "q-deep"
    mods, pool, _, _ = run.setup(name, tiny(name), 7, tmp_path)
    original = mods.cli._dump_json
    for engine in benchjobs.WORKLOADS[name].engines:
        original = _mutate_first_coefficient(original, engine)
    monkeypatch.setattr(mods.cli, "_dump_json", original)
    alone = benchjobs.run_passes(pool, mods, passes=1)
    assert alone.failed == 0  # the engines still agree with each other
    with control.Control() as reference:
        checked = benchjobs.run_passes(pool, mods, passes=1, control=reference)
    assert checked.failed == len(checked.outcomes) > 0
    assert "reference copy" in checked.outcomes[0].why
    assert all(o.control_millis > 0 for o in checked.outcomes)


def test_gate_fails_an_unverified_payload(tmp_path, monkeypatch):
    name = "q-deep"
    mods, pool, _, _ = run.setup(name, tiny(name), 7, tmp_path)

    def unverified(payload):
        return json.dumps({**payload, "verified": False}, indent=2) + "\n"

    monkeypatch.setattr(mods.cli, "_dump_json", unverified)
    result = benchjobs.run_passes(pool, mods, passes=1)
    assert result.failed == len(result.outcomes)
    assert result.outcomes[0].why == "payload is not verified"


def test_a_job_that_raises_fails_without_stopping_the_run(tmp_path, monkeypatch):
    name = "identities"
    mods, pool, _, _ = run.setup(name, tiny(name), 7, tmp_path)
    check = next(iter(mods.suite.CHECKS))

    def broken(rng, bounds):
        raise AssertionError("broken check")

    monkeypatch.setitem(mods.suite.CHECKS, check, broken)
    result = benchjobs.run_passes(pool, mods, passes=1)
    assert result.failed == 1
    assert len(result.outcomes) == len(mods.suite.CHECKS)
    assert "broken check" in next(o.why for o in result.outcomes if not o.ok)


def test_tracer_replaces_every_binding_and_restores_them(tmp_path):
    mods, _, _, _ = run.setup("identities", tiny("identities"), 7, tmp_path)
    import ncinvert.deformation as deformation
    import ncinvert.suite as suite

    bound = [
        (deformation, "compose"), (suite, "compose"), (mods.freealg, "compose"),
        (mods.cli, "verify_inverse"), (deformation, "verify_inverse"),
    ]
    originals = [getattr(mod, attr) for mod, attr in bound]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for (mod, attr), original in zip(bound, originals):
            assert getattr(mod, attr) is not original
        assert mods.freealg.NCSeries.__mul__.__wrapped__ is not None
        assert suite.run_identity_suite.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert [getattr(mod, attr) for mod, attr in bound] == originals


def test_benchmark_files_agree_with_the_code():
    assert {m["name"] for m in BENCHMARK["per_layer"]} == (
        set(layertrace.Tracer().metrics()) | {"trace.jobs_per_s"}
    )
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(benchjobs.WORKLOADS)
    assert set(REFERENCE["layer_predictions"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    specs = {name: dataclasses.asdict(spec) for name, spec in benchjobs.WORKLOADS.items()}
    assert REFERENCE["workloads"] == json.loads(json.dumps(specs))
    assert set(REFERENCE["digests"]) == set(benchjobs.WORKLOADS)
    assert set(REFERENCE["control"]) == set(benchjobs.WORKLOADS)
    assert all(set(figures) == set(run.TIMINGS) for figures in REFERENCE["control"].values())
    assert set(run.TIMINGS) <= {m["name"] for m in BENCHMARK["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "q-engines", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
