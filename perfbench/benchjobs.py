"""Workloads, jobs and the correctness gate of the ncinvert benchmark.

A workload is a fixed-order pool of job groups built from ``--seed``, run in
whole passes:

* map workloads (``q-engines``, ``gfp-charp``, ``q-deep``): a group is one
  map file, run through ``ncinvert invert`` once per engine of the workload;
* ``identities``: a group is one identity instance, i.e. one call of
  ``suite.run_identity_suite(seed_i, trials=1, names={name})``.

Why the seed does not draw everything: the cost of a sparse random map is set
by its words and spans more than 100x between maps, and the cost of an
identity instance is set by its (arity, degree, t-order) draw and its random
map.  A run of half a minute holds too few of the dear ones for their costs to
average out, so drawing them from the seed moved the slowest jobs, and with
them the throughput and the tail, by 20-50% from seed to seed.  Hence:

* each map's skeleton (p, n, D and the words of H) comes from a fixed
  per-workload stream, and ``--seed`` relabels the variables and, over QQ,
  redraws every coefficient.  Over GF(p) the skeleton keeps its
  coefficients: there a redraw changes which terms cancel, and some seeds
  ran 20% faster than others;
* each identity round takes its (arity, degree, t-order) cell from a fixed
  list; rounds of arity 3, which take most of the time, use fixed suite
  seeds, and the other rounds draw theirs from ``--seed``.

A job is a plain JSON value, so that the control process (``control.py``)
can run the same job with the reference copy of the program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import itertools
import json
import random
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

PACKAGE_MODULES = ("cli", "suite", "randmaps", "rings", "freealg", "parsing")


class SetupError(Exception):
    pass


def import_package(src):
    """Import ``ncinvert`` afresh from the directory ``src``."""
    src = Path(src)
    for name in [n for n in sys.modules if n == "ncinvert" or n.startswith("ncinvert.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        mods = SimpleNamespace(
            **{m: importlib.import_module(f"ncinvert.{m}") for m in PACKAGE_MODULES}
        )
    except ImportError as exc:
        raise SetupError(f"cannot import ncinvert from {src}: {exc}") from exc
    if src.resolve() not in Path(mods.cli.__file__).resolve().parents:
        raise SetupError(f"ncinvert was imported from {mods.cli.__file__}, not {src}")
    return mods

@dataclass(frozen=True)
class MapSpec:
    """Generator parameters of a map workload (see ``randmaps``)."""

    primes: tuple  # () for QQ, else p is drawn from these per map
    arities: tuple
    degrees: tuple
    max_deg: int
    terms: int
    engines: tuple
    maps: int  # pool size


@dataclass(frozen=True)
class IdentitySpec:
    """Identity-suite workload: one round of every registered identity per
    (arity, degree, t-order) cell."""

    cells: tuple
    fixed_arity: int  # rounds of this arity use fixed suite seeds


WORKLOADS = {
    "q-engines": MapSpec(
        primes=(), arities=(1, 2, 3), degrees=(8,), max_deg=3, terms=2,
        engines=("fixed-point", "recurrent", "tree"), maps=12,
    ),
    "gfp-charp": MapSpec(
        primes=(2, 3, 5), arities=(2,), degrees=(8, 9, 10), max_deg=3, terms=2,
        engines=("fixed-point", "charp-direct", "charp-lift"), maps=8,
    ),
    "q-deep": MapSpec(
        primes=(), arities=(2,), degrees=(9, 10, 11), max_deg=2, terms=2,
        engines=("fixed-point", "recurrent"), maps=6,
    ),
    # every cell of SuiteBounds(max_arity=3, max_degree=5, max_torder=5): on a
    # 2-vCPU 2.1 GHz Xeon with Python 3.11 the default max_degree=6 adds
    # rounds of up to 4 s, and one pass over its 27 cells takes about 17 s
    "identities": IdentitySpec(
        cells=tuple(itertools.product((1, 2, 3), (4, 5), (3, 4, 5))), fixed_arity=3
    ),
}



def spec_to_json(spec):
    return [type(spec).__name__, dataclasses.asdict(spec)]


def spec_from_json(value):
    kind, fields = value
    return {"MapSpec": MapSpec, "IdentitySpec": IdentitySpec}[kind](**fields)


# ---------------------------------------------------------------------------
# job groups
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one job returned, and whether the gate passed it."""

    millis: float
    ok: bool
    why: str = ""
    control_millis: float = None  # the same job run by the control


@dataclass
class MapGroup:
    """One map file and the CLI invocations that invert it."""

    path: str
    degree: int
    ring: str
    engines: tuple

    def jobs(self):
        return [
            {"argv": ["invert", self.path, "-d", str(self.degree), "--ring", self.ring,
                      "--engine", e, "--no-timings"]}
            for e in self.engines
        ]


@dataclass
class IdentityGroup:
    """One identity instance: ``run_identity_suite(seed, trials=1,
    names={name})`` with bounds that always draw ``cell``."""

    seed: int
    name: str
    cell: tuple  # (arity, degree, t-order)

    def jobs(self):
        return [{"identity": [self.seed, self.name, list(self.cell)]}]


_CELL_BOUNDS = {}


def cell_bounds(suite, cell):
    """A ``suite.SuiteBounds`` that draws ``cell`` after consuming the
    suite's own random stream, so the rest of the instance is drawn as the
    suite draws it."""
    key = (id(suite), tuple(cell))
    if key not in _CELL_BOUNDS:
        class CellBounds(suite.SuiteBounds):
            def __init__(self):
                super().__init__(max_arity=3, max_degree=5, max_torder=5)

            def draw(self, rng):
                super().draw(rng)
                return tuple(cell)

        _CELL_BOUNDS[key] = CellBounds()
    return _CELL_BOUNDS[key]


def _relabel_and_redraw(h, rng, randmaps, NCSeries):
    """The skeleton under a random variable permutation; over QQ each word
    gets a freshly drawn nonzero coefficient."""
    ring, n, D = h[0].ring, h[0].arity, h[0].degree
    perm = list(range(n))
    rng.shuffle(perm)
    redraw = ring.characteristic == 0
    out = [None] * n
    for i, comp in enumerate(h):
        terms = [
            (
                tuple(perm[l] for l in word),
                randmaps.random_coefficient(rng, ring) if redraw else c,
            )
            for word, c in comp.terms()
        ]
        out[perm[i]] = NCSeries.from_terms(ring, n, D, terms)
    return tuple(out)


def build_pool(name, spec, seed, mods, workdir):
    """Generate the workload's inputs for ``seed``; map files go to workdir."""
    if isinstance(spec, IdentitySpec):
        fixed = random.Random(f"perfbench:{name}:fixed")
        drawn = random.Random(f"perfbench:{name}:{seed}")
        names = list(mods.suite.CHECKS)
        groups = []
        for cell in spec.cells:
            source = fixed if cell[0] == spec.fixed_arity else drawn
            instance_seed = source.getrandbits(63)
            groups.extend(IdentityGroup(instance_seed, n, tuple(cell)) for n in names)
        return groups
    randmaps = mods.randmaps
    skeleton = random.Random(f"perfbench:{name}:skeleton")
    rng = random.Random(f"perfbench:{name}:{seed}")
    groups = []
    for i in range(spec.maps):
        p = skeleton.choice(spec.primes) if spec.primes else 0
        ring = mods.rings.PrimeField(p) if p else mods.rings.QQ
        n = skeleton.choice(spec.arities)
        degree = skeleton.choice(spec.degrees)
        h = randmaps.random_displacement(
            skeleton, ring, n, degree, max_deg=spec.max_deg, terms=spec.terms
        )
        h = _relabel_and_redraw(h, rng, randmaps, mods.freealg.NCSeries)
        f_map = mods.freealg.FormalMap.f_form(h)
        text = mods.parsing.format_map(f_map, [f"z{j + 1}" for j in range(n)])
        path = Path(workdir) / f"map{i:03d}.txt"
        path.write_text(text, encoding="utf-8")
        groups.append(
            MapGroup(str(path), degree, f"gfp:{p}" if p else "rational", spec.engines)
        )
    return groups


# ---------------------------------------------------------------------------
# running jobs and the gate
# ---------------------------------------------------------------------------


def run_job(job, mods):
    """Run one job with the package ``mods``: (millis, output, why).

    ``output`` is the job's byte-stable text: the ``--no-timings`` payload
    of an inversion, the result rows without their times of an identity.
    ``why`` is empty when the job passed its own checks: exit code 0 and
    ``"verified": true``, or the identity instance passed.
    """
    if "argv" in job:
        out, err = io.StringIO(), io.StringIO()
        raised = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = mods.cli.main(job["argv"])
            except SystemExit as exc:  # argparse refusing the arguments
                code = exc.code
            except Exception as exc:  # an escaped traceback fails the job, not the run
                code, raised = None, exc
        millis = (time.perf_counter() - start) * 1000.0
        text = out.getvalue()
        if raised is not None:
            return millis, text, f"raised {raised!r}"
        if code != 0:
            return millis, text, f"exit code {code}: {err.getvalue().strip()}"
        try:
            payload = json.loads(text)
        except ValueError:
            return millis, text, "output is not JSON"
        if payload.get("verified") is not True:
            return millis, text, "payload is not verified"
        return millis, text, ""
    seed, name, cell = job["identity"]
    bounds = cell_bounds(mods.suite, cell)
    why = f"identity {name} failed"
    start = time.perf_counter()
    try:
        results = mods.suite.run_identity_suite(seed, trials=1, bounds=bounds, names={name})
    except Exception as exc:  # some checks raise instead of returning False
        results, why = [], f"identity {name} raised {exc!r}"
    millis = (time.perf_counter() - start) * 1000.0
    rows = [r.to_json_dict() for r in results]
    for row in rows:
        row.pop("millis")
    ok = len(results) == 1 and results[0].ok
    return millis, json.dumps(rows, indent=2) + "\n", "" if ok else why


def _map_of(text):
    """The ``map`` payload of an inversion's output, or None."""
    try:
        return json.dumps(json.loads(text).get("map"), indent=2)
    except (ValueError, AttributeError):
        return None


def run_group(group, mods, on_job=None, sink=None, control=None, control_first=True):
    """Run every job of one group and gate it.

    A job fails when its own checks fail (``run_job``), or, with a
    ``control``, when its output differs from the control's output for the
    same job.  All jobs of a map group fail when the engines' maps are not
    byte-identical.  ``sink`` receives each job's output; the control's
    time for each job goes to ``Outcome.control_millis``.
    """
    outcomes, maps = [], []
    for job in group.jobs():
        if on_job is not None:
            on_job()
        reference = None
        if control is not None and control_first:
            reference = control.run(job)
        millis, text, why = run_job(job, mods)
        if control is not None and not control_first:
            reference = control.run(job)
        if sink is not None:
            sink(text)
        if not why and reference is not None and text != reference[1]:
            why = "output differs from the reference copy's output"
        outcomes.append(Outcome(millis, not why, why, reference and reference[0]))
        maps.append(_map_of(text) if isinstance(group, MapGroup) else None)
    if isinstance(group, MapGroup):
        # a job without a map (None) matches no map, so its group fails too;
        # which engine is wrong is unknown, so every job of the group fails
        differing = [e for e, m in zip(group.engines, maps) if m is None or m != maps[0]]
        if differing:
            for outcome in outcomes:
                if outcome.ok:
                    outcome.ok = False
                    outcome.why = (
                        f"engines disagree: {', '.join(differing)} "
                        f"differ from {group.engines[0]}"
                    )
    return outcomes


@dataclass
class RunResult:
    outcomes: list
    pass_seconds: list  # wall time of each whole pass over the pool
    pass_ok: list  # jobs the gate passed in each pass
    digest: str  # SHA-256 over the outputs of the first pass
    # ru_maxrss after the first pass; later passes only add allocator
    # growth, which varies with their number
    first_pass_rss_mb: float

    @property
    def failed(self):
        return sum(1 for o in self.outcomes if not o.ok)


def run_passes(pool, mods, seconds=0.0, passes=None, on_job=None, control=None):
    """Closed loop over the pool, one job at a time, in whole passes.

    Runs ``passes`` passes when given, else as many passes as fit in
    ``seconds`` at the mean pass time so far; at least one pass either way.
    With a ``control``, each job is run by the control right before or
    right after the program, alternately from pass to pass.
    """
    outcomes, pass_seconds, pass_ok = [], [], []
    digest = hashlib.sha256()
    start = time.perf_counter()
    while True:
        sink = (lambda text: digest.update(text.encode("utf-8"))) if not pass_seconds else None
        control_first = len(pass_seconds) % 2 == 0
        pass_start = time.perf_counter()
        got = []
        for group in pool:
            got.extend(run_group(group, mods, on_job, sink, control, control_first))
        pass_seconds.append(time.perf_counter() - pass_start)
        pass_ok.append(sum(1 for o in got if o.ok))
        if len(pass_seconds) == 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcomes.extend(got)
        if passes is not None:
            if len(pass_seconds) >= passes:
                break
        elif time.perf_counter() - start + sum(pass_seconds) / len(pass_seconds) > seconds:
            break
    return RunResult(outcomes, pass_seconds, pass_ok, digest.hexdigest(), rss_mb)
