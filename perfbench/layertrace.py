"""Per-layer trace of ncinvert, installed from outside the package.

``Tracer.install`` replaces the public functions of the traced modules, and
a few hot methods, with wrappers that record a span per call: name, start,
end, parent span, job id and thread.  A function imported by name into other
modules (``compose`` into ``deformation`` and ``suite``, ``verify_inverse``
into ``cli`` and ``deformation``, ...) is replaced in every ``ncinvert``
module that holds it, so no call escapes.  ``TQuotientRing.mul`` and
``IntPolyRing.mul`` run millions of times and are only counted.

Span stacks and counters are thread-local: through the CLI the tree engine
sums on a thread pool, and a shared stack would charge one thread's child
spans to another thread's parent.  A span's self time is its duration minus
the durations of its direct children on the same thread; a worker thread's
spans are roots of that thread.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from fractions import Fraction

#: modules whose public functions become spans; ``rings`` is only counted
SPAN_MODULES = (
    "cli", "parsing", "inversion", "trees", "freealg", "deformation",
    "commutative", "suite",
)
#: hot methods traced as spans (module, class, method)
KERNELS = (
    ("freealg", "NCSeries", "__mul__"),
    ("freealg", "NCSeries", "__add__"),
    ("freealg", "NCSeries", "sum"),
    ("freealg", "NCSeries", "map_coefficients"),
    ("freealg", "Derivation", "apply"),
)
#: methods that are only counted (module, class, method, counter)
COUNTED = (
    ("rings", "TQuotientRing", "mul", "tq_mul"),
    ("rings", "IntPolyRing", "mul", "intpoly_mul"),
)


def coeff_bits(c) -> int:
    """Largest integer bit length inside a coefficient of any ring."""
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    if isinstance(c, int):
        return c.bit_length()
    if isinstance(c, tuple):  # TQuotientRing
        return max((coeff_bits(x) for x in c), default=0)
    if isinstance(c, dict):  # IntPolyRing
        return max((v.bit_length() for v in c.values()), default=0)
    return 0


def _series_bits(series_iter):
    return max(
        (coeff_bits(c) for s in series_iter for b in s.buckets.values() for c in b.values()),
        default=0,
    )


class _ThreadState:
    __slots__ = ("thread", "stack", "agg", "counts", "spans")

    def __init__(self, thread):
        self.thread = thread
        self.stack = []  # frames [span id, child seconds, name]
        self.agg = {}  # name -> [calls, inclusive s, self s]
        self.counts = defaultdict(int)
        self.spans = []


class Tracer:
    """Installs span wrappers into the ``ncinvert`` package and aggregates."""

    def __init__(self):
        self.job = 0  # set by the driving loop; read by every thread
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count()
        self._patches = []  # (owner, attribute, original value)
        self._origin = time.perf_counter()

    # -- per-thread state --------------------------------------------------

    def _state(self):
        try:
            return self._tls.state
        except AttributeError:
            state = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(state)
            self._tls.state = state
            return state

    def reset(self):
        """Drop everything recorded so far (no traced call may be running)."""
        with self._lock:
            for state in self._states:
                state.agg.clear()
                state.counts.clear()
                state.spans.clear()

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, post=None):
        state_of = self._state
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            st = state_of()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(st.counts, result, args, parent)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                agg = st.agg.get(name)
                if agg is None:
                    agg = st.agg[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                st.spans.append(
                    (frame[0], parent[0] if parent else -1, name, t0, t1, tracer.job, st.thread)
                )

        traced.__wrapped__ = fn
        return traced

    def _counter(self, key, fn):
        state_of = self._state

        def counted(*args):
            state_of().counts[key] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def _compose_with_cache_counts(self, original):
        state_of = self._state

        def compose(u, f_map, cache=None):
            if cache is None:
                cache = {}  # what compose does itself, made visible here
            seeded = () in cache
            before = len(cache)
            out = original(u, f_map, cache)
            counts = state_of().counts
            counts["compose_words"] += u.term_count()
            counts["compose_letters"] += sum(d * len(b) for d, b in u.buckets.items())
            counts["compose_prefix_new"] += len(cache) - before - (0 if seeded else 1)
            return out

        return compose

    # -- install / uninstall -------------------------------------------------

    def _hooks(self):
        def mul_post(counts, result, args, parent):
            a, b = args
            D = a.degree
            counts["mul_pairs"] += sum(
                len(b1) * len(b2)
                for d1, b1 in a.buckets.items()
                for d2, b2 in b.buckets.items()
                if d1 + d2 <= D
            )
            counts["mul_terms_out"] += result.term_count()

        def add_post(counts, result, args, parent):
            counts["add_terms_copied"] += args[0].term_count()

        def apply_post(counts, result, args, parent):
            counts["apply_terms_out"] += result.term_count()

        def compose_vector_post(counts, result, args, parent):
            if parent is not None and parent[2] == "inversion.invert_fixed_point":
                counts["fixed_point_passes"] += 1

        def nseq_post(counts, result, args, parent):
            series = [s for vec in result.terms for s in vec]
            counts["nseq_terms"] += sum(s.term_count() for s in series)
            counts["nseq_coeff_bits_max"] = max(
                counts["nseq_coeff_bits_max"], _series_bits(series)
            )

        def engine_out_post(counts, result, args, parent):
            counts["out_coeff_bits_max"] = max(
                counts["out_coeff_bits_max"], _series_bits(result.components)
            )

        def enumerate_post(counts, result, args, parent):
            counts["trees_enumerated"] += len(result)

        return {
            "freealg.NCSeries.__mul__": mul_post,
            "freealg.NCSeries.__add__": add_post,
            "freealg.Derivation.apply": apply_post,
            "freealg.compose_vector": compose_vector_post,
            "inversion.n_seq_recurrent": nseq_post,
            "inversion.n_seq_charp_direct": nseq_post,
            "inversion.invert": engine_out_post,
            "inversion.invert_fixed_point": engine_out_post,
            "trees.enumerate_pbtrees": enumerate_post,
        }

    def install(self):
        """Wrap the package's functions; ``uninstall`` restores them."""
        package = {
            name: mod for name, mod in sys.modules.items()
            if name == "ncinvert" or name.startswith("ncinvert.")
        }
        hooks = self._hooks()
        replacement = {}  # id(original function) -> wrapper
        for short in SPAN_MODULES:
            mod = package[f"ncinvert.{short}"]
            for attr, value in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                fn = value
                if name == "freealg.compose":
                    fn = self._compose_with_cache_counts(value)
                replacement[id(value)] = self._span(name, fn, hooks.get(name))
        # the originals stay referenced by their modules while this runs, so
        # their ids are unique
        for mod in package.values():
            for attr, value in list(vars(mod).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        for short, cls_name, meth in KERNELS:
            cls = getattr(package[f"ncinvert.{short}"], cls_name)
            raw = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span(name, raw.__func__, hooks.get(name)))
            else:
                wrapped = self._span(name, raw, hooks.get(name))
            self._patch(cls, meth, wrapped)
        for short, cls_name, meth, key in COUNTED:
            cls = getattr(package[f"ncinvert.{short}"], cls_name)
            self._patch(cls, meth, self._counter(key, cls.__dict__[meth]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def _merged(self):
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        counts = defaultdict(int)
        maxima = ("nseq_coeff_bits_max", "out_coeff_bits_max")
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, incl, self_s) in st.agg.items():
                a = agg[name]
                a[0] += calls
                a[1] += incl
                a[2] += self_s
            for key, value in st.counts.items():
                if key in maxima:
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value
        return agg, counts

    def metrics(self):
        """Per-layer metrics: name -> (value, unit)."""
        agg, counts = self._merged()

        unseen = (0, 0.0, 0.0)

        def calls(name):
            return agg.get(name, unseen)[0]

        def incl(name):
            return agg.get(name, unseen)[1]

        def self_s(name):
            return agg.get(name, unseen)[2]

        def layer(prefix, field):
            spans = [a for n, a in agg.items() if n.startswith(prefix + ".")]
            return sum((a[field] for a in spans), unseen[field])

        letters = counts["compose_letters"]
        hit_ratio = 1.0 - counts["compose_prefix_new"] / letters if letters else 0.0
        s, c = "s", "count"
        rows = [
            ("cli.self_s", layer("cli", 2), s),
            ("parsing.parse_map_s", incl("parsing.parse_map"), s),
            ("parsing.parse_map_calls", calls("parsing.parse_map"), c),
            ("inversion.verify_s", incl("inversion.verify_inverse"), s),
            ("inversion.verify_calls", calls("inversion.verify_inverse"), c),
            ("inversion.fixed_point_s", incl("inversion.invert_fixed_point"), s),
            ("inversion.fixed_point_passes", counts["fixed_point_passes"], c),
            ("inversion.recurrent_s", incl("inversion.n_seq_recurrent"), s),
            ("inversion.convolution_s", incl("inversion.convolution_sum"), s),
            ("inversion.convolution_calls", calls("inversion.convolution_sum"), c),
            ("inversion.nseq_terms", counts["nseq_terms"], c),
            ("inversion.nseq_coeff_bits_max", counts["nseq_coeff_bits_max"], "bits"),
            ("inversion.charp_direct_s", incl("inversion.n_seq_charp_direct"), s),
            ("inversion.residue_step_s", incl("inversion.alt_recurrent_step"), s),
            ("inversion.residue_step_calls", calls("inversion.alt_recurrent_step"), c),
            ("inversion.charp_lift_s", incl("inversion.invert_charp_lift"), s),
            ("trees.invert_tree_s", incl("trees.invert_tree"), s),
            ("trees.expansion_term_s", incl("trees.tree_expansion_term"), s),
            ("trees.enumerate_s", incl("trees.enumerate_pbtrees"), s),
            ("trees.trees_enumerated", counts["trees_enumerated"], c),
            ("freealg.apply_self_s", self_s("freealg.Derivation.apply"), s),
            ("freealg.apply_calls", calls("freealg.Derivation.apply"), c),
            ("freealg.apply_terms_out", counts["apply_terms_out"], c),
            ("freealg.mul_self_s", self_s("freealg.NCSeries.__mul__"), s),
            ("freealg.mul_calls", calls("freealg.NCSeries.__mul__"), c),
            ("freealg.mul_pairs", counts["mul_pairs"], c),
            ("freealg.mul_terms_out", counts["mul_terms_out"], c),
            ("freealg.add_self_s", self_s("freealg.NCSeries.__add__"), s),
            ("freealg.add_calls", calls("freealg.NCSeries.__add__"), c),
            ("freealg.add_terms_copied", counts["add_terms_copied"], c),
            ("freealg.sum_self_s", self_s("freealg.NCSeries.sum"), s),
            ("freealg.map_coefficients_self_s", self_s("freealg.NCSeries.map_coefficients"), s),
            ("freealg.compose_self_s", self_s("freealg.compose"), s),
            ("freealg.compose_calls", calls("freealg.compose"), c),
            ("freealg.compose_words", counts["compose_words"], c),
            ("freealg.compose_prefix_new", counts["compose_prefix_new"], c),
            ("freealg.compose_hit_ratio", hit_ratio, "ratio"),
            ("rings.tq_mul_calls", counts["tq_mul"], c),
            ("rings.intpoly_mul_calls", counts["intpoly_mul"], c),
            ("rings.out_coeff_bits_max", counts["out_coeff_bits_max"], "bits"),
            ("deformation.self_s", layer("deformation", 2), s),
            ("deformation.calls", layer("deformation", 0), c),
            ("commutative.self_s", layer("commutative", 2), s),
            ("commutative.calls", layer("commutative", 0), c),
            ("suite.self_s", layer("suite", 2), s),
        ]
        return {name: (value, unit) for name, value, unit in rows}

    def write_spans(self, path):
        """Write every recorded span as tab-separated text."""
        with self._lock:
            states = list(self._states)
        origin = self._origin
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\tjob\tthread\n")
            for st in states:
                for sid, parent, name, t0, t1, job, thread in st.spans:
                    fh.write(
                        f"{sid}\t{parent}\t{name}\t{t0 - origin:.9f}\t"
                        f"{t1 - origin:.9f}\t{job}\t{thread}\n"
                    )

    def span_count(self):
        return sum(len(st.spans) for st in self._states)
