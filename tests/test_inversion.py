"""Engine behavior, cross-validation and the verification report."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncinvert.freealg as freealg
import ncinvert.inversion as inversion
import ncinvert.trees as trees
from ncinvert.deformation import check_shifted_inverse_family, n_sequence_via_deformation
from ncinvert.freealg import Derivation, FormalMap, NCSeries, word_key
from ncinvert.inversion import (
    alt_recurrent_step,
    c_sequence,
    convolution_sum,
    engines_for_ring,
    invert,
    invert_charp_direct,
    invert_charp_lift,
    invert_fixed_point,
    n_seq_charp_direct,
    n_seq_charp_lift,
    n_seq_recurrent,
    verify_inverse,
)
from ncinvert.parsing import parse_map
from ncinvert.randmaps import random_displacement
from ncinvert.rings import QQ, IntPolyRing, PrimeField, TQuotientRing
from ncinvert.trees import invert_tree, n_seq_tree


def catalan_numbers(count):
    """Independent oracle: the convolution recurrence C_0 = 1,
    C_(k+1) = sum C_i C_(k-i)."""
    cats = [1]
    for k in range(1, count):
        cats.append(sum(cats[i] * cats[k - 1 - i] for i in range(k)))
    return cats


def ad_y_power(ring, degree, m, coefficient=None):
    """ad_y^m applied to x via direct series arithmetic: ad_y(u) = y*u - u*y,
    optionally post-scaled; an oracle independent of every engine."""
    out = NCSeries.variable(ring, 2, degree, 0)
    y = NCSeries.variable(ring, 2, degree, 1)
    for _ in range(m):
        out = y * out - out * y
    if coefficient is not None:
        out = out.scale(coefficient)
    return out


def commutator_displacement(ring, degree, scale=1):
    """H = scale * (yx - xy) in the first component."""
    h1 = ad_y_power(ring, degree, 1).scale(ring.from_int(scale))
    return (h1, NCSeries.zero(ring, 2, degree))


# -- fixed point --------------------------------------------------------------


def test_zero_displacement_gives_identity():
    h = (NCSeries.zero(QQ, 2, 5), NCSeries.zero(QQ, 2, 5))
    g = invert_fixed_point(h)
    assert g.is_identity()
    assert verify_inverse(FormalMap.f_form(h), g).ok


def test_catalan_inverse():
    D = 12
    h = (NCSeries.from_terms(QQ, 1, D, [((0, 0), Fraction(1))]),)
    g = invert_fixed_point(h)
    cats = catalan_numbers(D)
    for k in range(1, D + 1):
        assert g.component(0).coefficient((0,) * k) == cats[k - 1]
    assert verify_inverse(FormalMap.f_form(h), g).ok


def test_commutator_inverse_to_degree_three():
    h = commutator_displacement(QQ, 3)
    g = invert_fixed_point(h)
    expect = (
        NCSeries.variable(QQ, 2, 3, 0)
        + ad_y_power(QQ, 3, 1)
        + ad_y_power(QQ, 3, 2)
    )
    assert g.component(0) == expect
    assert g.component(1) == NCSeries.variable(QQ, 2, 3, 1)


def test_order_one_displacement_rejected():
    lin = NCSeries.from_terms(QQ, 2, 4, [((1,), Fraction(1))])
    with pytest.raises(ValueError):
        invert_fixed_point((lin, NCSeries.zero(QQ, 2, 4)))


# -- the recurrence ------------------------------------------------------------


def test_recurrent_terms_are_ad_powers():
    D = 6
    h = commutator_displacement(QQ, D)
    nseq = n_seq_recurrent(h)
    for m in range(1, D):
        assert nseq.term(m)[0] == ad_y_power(QQ, D, m)
        assert nseq.term(m)[1].is_zero()


def test_charp_direct_refuses_characteristic_zero():
    h = commutator_displacement(QQ, 4)
    with pytest.raises(ValueError, match="^charp-direct requires PrimeField coefficients$"):
        n_seq_charp_direct(h)


def test_assemble_at_one_matches_geometric_sum():
    D = 4
    h = commutator_displacement(QQ, D)
    g = n_seq_recurrent(h).assemble()
    expect = NCSeries.variable(QQ, 2, D, 0)
    for m in range(1, D):
        expect = expect + ad_y_power(QQ, D, m)
    assert g.component(0) == expect


def test_assemble_at_half_inverts_scaled_map():
    # z - H/2 is inverted by z + sum_m 2^-m N_[m]
    rng = random.Random(42)
    h = random_displacement(rng, QQ, 2, 6)
    assert check_shifted_inverse_family(h, Fraction(0), Fraction(1, 2))


def test_engine_equivalence_random_instances():
    rng = random.Random(2024)
    for _ in range(6):
        n = rng.choice([1, 2, 3])
        h = random_displacement(rng, QQ, n, 6)
        g_fixed = invert_fixed_point(h)
        g_rec = n_seq_recurrent(h).assemble()
        g_tree = invert_tree(h)
        assert g_fixed == g_rec == g_tree
        assert verify_inverse(FormalMap.f_form(h), g_fixed).ok


def test_engine_equivalence_homogeneous_quadratic():
    from ncinvert.randmaps import random_homogeneous_displacement

    rng = random.Random(88)
    h = random_homogeneous_displacement(rng, QQ, 2, 8, deg=2, terms=3)
    g_fixed = invert_fixed_point(h)
    assert n_seq_recurrent(h).assemble() == g_fixed
    assert verify_inverse(FormalMap.f_form(h), g_fixed).ok


def test_sequence_bounds_hold():
    rng = random.Random(9)
    h = random_displacement(rng, QQ, 3, 6, max_deg=3)
    nseq = n_seq_recurrent(h)
    # o(N_[m]) >= m+1 makes D-1 terms sufficient at truncation D
    assert len(nseq) == 6 - 1
    nseq.validate_bounds()


def test_sequence_bounds_are_set_by_the_first_term():
    # N_[1] = H of degree 2 bounds N_[2] to degree 3; a sequence without
    # terms (D <= 1) checks nothing
    h = (NCSeries.from_terms(QQ, 1, 6, [((0, 0), 1)]),)
    n2 = (NCSeries.from_terms(QQ, 1, 6, [((0, 0, 0, 0), 1)]),)
    with pytest.raises(AssertionError, match=r"^deg N_\[2\] = 4 > 3$"):
        inversion.NSequence(QQ, 1, 6, [h, n2]).validate_bounds()
    inversion.NSequence(QQ, 1, 1, []).validate_bounds()


def test_sequence_bounds_are_checked_under_python_O():
    # o(N_[2]) = 2 < 3: the check must not be an assert that -O strips
    code = (
        "from ncinvert.freealg import NCSeries\n"
        "from ncinvert.inversion import NSequence\n"
        "from ncinvert.rings import QQ\n"
        "h = (NCSeries.from_terms(QQ, 1, 4, [((0, 0), 1)]),)\n"
        "try:\n"
        "    NSequence(QQ, 1, 4, [h, h]).validate_bounds()\n"
        "except AssertionError as err:\n"
        "    print(__debug__, err)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False o(N_[2]) = 2 < 3\n"


def test_sequence_recursion_from_independent_oracle():
    # terms read from the fixed-point inverse of z - t*H satisfy the
    # division-free recursion (m-1) N_[m] = sum [N_[k] d/dz] N_[l]
    rng = random.Random(13)
    for ring in (QQ, PrimeField(3)):
        h = random_displacement(rng, ring, 2, 6)
        nseq = n_sequence_via_deformation(h)
        assert nseq.term(1) == h
        for m in range(2, len(nseq) + 1):
            lhs = tuple(s.scale_int(m - 1) for s in nseq.term(m))
            assert list(lhs) == list(convolution_sum(nseq.terms, m))


# -- iterated sequence ---------------------------------------------------------


def test_c_sequence_starts_with_h_and_iterates():
    D = 6
    h = commutator_displacement(QQ, D)
    cs = c_sequence(h, 4)
    assert cs[0] == h
    assert cs[1][0] == ad_y_power(QQ, D, 2)
    assert cs[2][0] == ad_y_power(QQ, D, 3)
    assert all(vec[1].is_zero() for vec in cs)


# -- residue extraction ---------------------------------------------------------


def test_residue_step_matches_recurrence_in_char_zero():
    rng = random.Random(77)
    h = random_displacement(rng, QQ, 2, 6)
    nseq = n_seq_recurrent(h)
    for m in range(2, len(nseq) + 1):
        step = alt_recurrent_step(nseq.terms[: m - 1], m)
        assert list(step) == list(nseq.term(m))


@pytest.mark.parametrize("m", [1, 0, -3])
def test_residue_step_starts_at_m_2(m):
    h = commutator_displacement(PrimeField(3), 5)
    with pytest.raises(ValueError, match=r"^residue step starts at m = 2$"):
        alt_recurrent_step([h], m)


def test_residue_step_needs_every_lower_term():
    h = commutator_displacement(PrimeField(3), 6)
    with pytest.raises(ValueError, match=r"^need N_\[1\.\.3\], got 2 terms$"):
        alt_recurrent_step([h, h], 4)
    with pytest.raises(ValueError, match=r"^need N_\[1\.\.1\], got 0 terms$"):
        alt_recurrent_step([], 2)


def test_residue_step_on_commutator_example():
    h = commutator_displacement(QQ, 5)
    step = alt_recurrent_step([h], 2)
    assert step[0] == ad_y_power(QQ, 5, 2)
    assert step[1].is_zero()


def test_residue_step_agrees_with_lift_at_wraparound_layer():
    # m = p + 1 is the first layer the recurrence cannot reach over GF(p)
    p, D = 5, 8
    field = PrimeField(p)
    h = commutator_displacement(field, D, scale=4)
    direct = n_seq_charp_direct(h)
    m = p + 1
    step = alt_recurrent_step(direct.terms[: m - 1], m)
    assert list(step) == list(direct.term(m))
    # against the lift: the integer N_[m] of the representatives, reduced mod p
    assert n_seq_charp_lift(h).term(m) == direct.term(m)


def _work(run):
    """run() with the number of ``replace_letters`` calls it makes, of
    ``NCSeries._collect`` calls, of the (key, coefficient) pairs those
    collect in pair lists, and of the dense rows (``freealg.Row``) they
    collect."""
    calls, collects, pairs, rows = [0], [0], [0], [0]
    replace, collect = inversion.replace_letters, NCSeries._collect

    def counted_replace(*args):
        calls[0] += 1
        return replace(*args)

    def counted_collect(self, stream, start=None):
        def counted():
            for d, batch in stream:
                if type(batch) is freealg.Row:
                    rows[0] += 1
                else:
                    batch = list(batch)
                    pairs[0] += len(batch)
                yield d, batch

        collects[0] += 1
        return collect(self, counted(), start)

    with mock.patch.object(inversion, "replace_letters", counted_replace), mock.patch.object(
        NCSeries, "_collect", counted_collect
    ):
        out = run()
    return out, calls[0], collects[0], pairs[0], rows[0]


@pytest.mark.parametrize(
    "p, D, text, work",
    [
        (2, 9, "x - x*y - y*x*x\ny - x*x - y*y*x", {3: 102, 5: 1312, 7: 1810}),
        (3, 10, "x - (y*x - x*y) + x*x*y\ny - y*x", {4: 428, 7: 9808}),
        (5, 9, "x - 2*x*y - y*y\ny - 3*x*x*x", {6: 3436}),
    ],
    ids=["GF(2)", "GF(3)", "GF(5)"],
)
def test_residue_step_is_one_substitution_per_component(p, D, text, work):
    # every lower layer enters one replace_letters call per component, so the
    # calls do not grow with m, and no second pass sums per-layer residues;
    # work maps layers m = kp + 1, where the recurrence would divide by 0, to
    # the pairs the step collects, sum |H_i| + n of them in building F = z - H
    # and reading its displacement for the one image table of the layer
    h = parse_map(text, PrimeField(p), D, ["x", "y"]).f_map.h_vector()
    nseq = n_seq_charp_direct(h)
    tables = mock.patch.object(freealg, "_image_table", wraps=freealg._image_table)
    for m, pairs in work.items():
        with tables as built:
            step, calls, _, collected, rows = _work(
                lambda: alt_recurrent_step(nseq.terms[: m - 1], m)
            )
        assert list(step) == list(nseq.term(m))
        assert (calls, collected, rows, built.call_count) == (len(h), pairs, 0, 1), m


@pytest.mark.parametrize(
    "p, D, text, work",
    [
        (3, 30, "x - x*x - 2*x*x*x", (2124, 11238)),
        (5, 12, "x - x*y - 2*y*x*x\ny - y*y + x*y*x", (506, 129350)),
    ],
    ids=["n1-GF(3)-D30", "n2-GF(5)-D12"],
)
def test_residue_step_skips_the_passes_from_an_empty_state(p, D, text, work):
    # a pass whose source state is empty would only copy its target, so
    # replace_letters keeps the target and collects nothing; work is the
    # (collect calls, pairs collected) of one charp-direct inversion, whose
    # calls grow with m * D when every pass runs
    names = ["x", "y"][: text.count("\n") + 1]
    h = parse_map(text, PrimeField(p), D, names).f_map.h_vector()
    g, _, collects, pairs, rows = _work(lambda: invert(h, engine="charp-direct"))
    assert g == invert_fixed_point(h)
    # no splice of these passes is dense enough for a row (n = 1 has one
    # key per degree), so every pair is still counted one at a time
    assert (collects, pairs, rows) == work + (0,)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_layered_engine_keeps_its_one_layer_rule(n, p):
    # charp-direct takes the residue step at every layer m = 2..D-1, one
    # replace_letters call per component and no convolution; the recurrence
    # of recurrent and charp-lift takes one convolution per layer and never
    # the residue step
    D = 7
    rng = random.Random(10 * p + n)
    h = random_displacement(rng, PrimeField(p), n, D)
    hq = random_displacement(rng, QQ, n, D)
    conv = mock.patch.object(inversion, "convolution_sum", wraps=inversion.convolution_sum)
    with conv as convolutions:
        _, calls, _, _, _ = _work(lambda: invert(h, engine="charp-direct"))
        assert (calls, convolutions.call_count) == (n * (D - 2), 0)
        for ring_h, engine in ((h, "charp-lift"), (hq, "recurrent")):
            convolutions.reset_mock()
            _, calls, _, _, _ = _work(lambda: invert(ring_h, engine=engine))
            assert (calls, convolutions.call_count) == (0, D - 2), engine


# -- characteristic p ------------------------------------------------------------


def test_charp_engines_match_reduced_power_series():
    # G_1 = sum 4^m ad_y^m(x) over GF(5), computed here by series arithmetic
    p, D = 5, 8
    field = PrimeField(p)
    h = commutator_displacement(field, D, scale=4)
    expect = NCSeries.variable(field, 2, D, 0)
    for m in range(1, D):
        expect = expect + ad_y_power(field, D, m, coefficient=pow(4, m, p))
    g_direct = invert_charp_direct(h)
    g_lift = invert_charp_lift(h)
    assert g_direct.component(0) == expect
    assert g_direct == g_lift
    f = FormalMap.f_form(h)
    assert verify_inverse(f, g_direct).ok
    assert verify_inverse(f, g_lift).ok
    # the fixed-point baseline agrees as well
    assert invert_fixed_point(h) == g_direct


def test_charp_convolution_vanishes_at_wraparound_layers():
    rng = random.Random(5)
    for p in (2, 3, 5):
        field = PrimeField(p)
        h = random_displacement(rng, field, 2, 8 if p == 5 else 6)
        nseq = n_seq_charp_direct(h)
        layers = [m for m in range(2, len(nseq) + 1) if m % p == 1]
        assert layers, f"no wraparound layer visible for p={p}"
        for m in layers:
            assert all(s.is_zero() for s in convolution_sum(nseq.terms, m))


def test_lift_of_zero_displacement():
    field = PrimeField(3)
    h = (NCSeries.zero(field, 2, 4), NCSeries.zero(field, 2, 4))
    assert invert_charp_lift(h).is_identity()


def test_lift_and_direct_agree_on_random_maps_per_prime():
    rng = random.Random(31)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for i in range(50):
            n = rng.choice([1, 2, 3])
            h = random_displacement(rng, field, n, 6, max_deg=3, terms=2)
            assert n_seq_charp_lift(h).terms == n_seq_charp_direct(h).terms, (p, i)
    # at D = 6 only p = 2, 3 reach a layer m = kp + 1 <= D - 1; these reach p + 1
    for p, D in ((5, 7), (7, 9)):
        field = PrimeField(p)
        for i in range(15):
            n = rng.choice([1, 2])
            h = random_displacement(rng, field, n, D, max_deg=3, terms=2)
            assert n_seq_charp_lift(h).terms == n_seq_charp_direct(h).terms, (p, D, i)


# -- dispatch -------------------------------------------------------------------


def test_engine_sets_per_ring():
    assert engines_for_ring(QQ) == ("fixed-point", "recurrent", "tree")
    assert engines_for_ring(PrimeField(7)) == (
        "fixed-point",
        "charp-direct",
        "charp-lift",
    )


def test_engine_sets_over_the_t_ring_follow_each_engines_rule():
    # the charp engines need PrimeField coefficients, not characteristic p
    tq3 = TQuotientRing(PrimeField(3), 2)
    assert engines_for_ring(tq3) == ("fixed-point",)
    with pytest.raises(ValueError, match="valid engines: fixed-point$"):
        invert(commutator_displacement(tq3, 4), engine="charp-direct")
    tq0 = TQuotientRing(QQ, 2)
    assert engines_for_ring(tq0) == ("fixed-point", "recurrent", "tree")
    h = (
        NCSeries.variable(tq0, 2, 4, 1) * NCSeries.variable(tq0, 2, 4, 0)
        + commutator_displacement(tq0, 4)[0].scale(tq0.embed(Fraction(1, 2), 1)),
        NCSeries.variable(tq0, 2, 4, 0) * NCSeries.variable(tq0, 2, 4, 0),
    )
    g = invert(h, engine="fixed-point")
    assert not g.is_identity()
    assert invert(h, engine="recurrent") == g == invert(h, engine="tree")


def test_dispatch_rejects_mismatched_engine():
    h = commutator_displacement(QQ, 4)
    with pytest.raises(ValueError, match="valid engines"):
        invert(h, engine="charp-direct")
    hp = commutator_displacement(PrimeField(5), 4)
    with pytest.raises(ValueError, match="valid engines"):
        invert(hp, engine="tree")
    with pytest.raises(ValueError, match="unknown engine"):
        invert(h, engine="newton")


def test_dispatch_calls_the_module_attributes_of_the_moment(monkeypatch):
    # a table that kept the functions from import time would miss these;
    # ``invert`` passes the fixed point's map through and assembles the
    # sequence of every layered engine
    def sentinel(name):
        return lambda h_vector: name

    def sequence(name):
        nseq = mock.Mock(spec=inversion.NSequence)
        nseq.assemble.return_value = name
        return lambda h_vector: nseq

    monkeypatch.setattr(inversion, "invert_fixed_point", sentinel("fp"))
    monkeypatch.setattr(inversion, "n_seq_recurrent", sequence("recurrent"))
    monkeypatch.setattr(inversion, "n_seq_charp_direct", sequence("direct"))
    monkeypatch.setattr(inversion, "n_seq_charp_lift", sequence("lift"))
    monkeypatch.setattr(trees, "n_seq_tree", sequence("tree"))
    h = commutator_displacement(QQ, 4)
    hp = commutator_displacement(PrimeField(5), 4)
    assert invert(h) == "fp"
    assert invert(h, engine="recurrent") == "recurrent"
    assert invert(h, engine="tree") == "tree"
    assert invert(hp, engine="fixed-point") == "fp"
    assert invert(hp, engine="charp-direct") == "direct"
    assert invert(hp, engine="charp-lift") == "lift"


SEQUENCE_AND_MAP_FUNCTIONS = (
    invert_fixed_point,
    n_seq_recurrent,
    n_seq_tree,
    n_seq_charp_direct,
    n_seq_charp_lift,
    n_sequence_via_deformation,
    invert_tree,
    invert_charp_direct,
    invert_charp_lift,
)
NOT_A_VECTOR = (
    ((), "^a vector of series needs at least one component$"),
    ([1, 2], "^a vector of series holds NCSeries of words, not int$"),
)


@pytest.mark.parametrize("h, message", NOT_A_VECTOR)
@pytest.mark.parametrize(
    "run",
    [lambda h, e=e: invert(h, engine=e) for e in inversion._engine_table()]
    + list(SEQUENCE_AND_MAP_FUNCTIONS),
    ids=[f"invert-{e}" for e in inversion._engine_table()]
    + [f.__name__ for f in SEQUENCE_AND_MAP_FUNCTIONS],
)
def test_every_entry_point_validates_the_vector_before_reading_it(run, h, message):
    with pytest.raises(ValueError, match=message):
        run(h)


# -- differential: every engine of a ring agrees on random sparse maps ----------


@st.composite
def sparse_displacements(draw, ring, max_arity, max_degree):
    """A random H over ``ring`` of drawn arity and degree: up to three words
    of length 2..3 per component, small nonzero coefficients."""
    n = draw(st.integers(1, max_arity))
    D = draw(st.integers(2, max_degree))
    if ring.characteristic:
        coeffs = st.integers(1, ring.characteristic - 1).map(ring.from_int)
    else:
        coeffs = st.fractions(-3, 3, max_denominator=3).filter(bool)
    words = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(3, D)).map(tuple)
    terms = st.lists(st.tuples(words, coeffs), max_size=3)
    return tuple(NCSeries.from_terms(ring, n, D, draw(terms)) for _ in range(n))


def _assert_engines_agree(h, engines):
    f_map = FormalMap.f_form(h)
    outputs = [invert(h, engine=engine) for engine in engines]
    for engine, g in zip(engines, outputs):
        assert g == outputs[0], engine
        assert verify_inverse(f_map, g).ok, engine


@given(sparse_displacements(QQ, 2, 6))
@settings(max_examples=80, deadline=None)
def test_characteristic_zero_engines_agree(h):
    _assert_engines_agree(h, ("fixed-point", "recurrent", "tree"))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_characteristic_p_engines_agree(data):
    # D up to 8 crosses the residue layers m = kp+1 for p = 2 and 3
    field = PrimeField(data.draw(st.sampled_from([2, 3])))
    h = data.draw(sparse_displacements(field, 2, 8))
    _assert_engines_agree(h, ("fixed-point", "charp-direct", "charp-lift"))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_layered_engines_agree_layer_by_layer(data):
    # each layered engine's N_[m] against the deformation oracle's, over QQ
    # and GF(p); the lift's reduced layers sum to its reduced integer map
    ring = data.draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(5)]))
    h = data.draw(sparse_displacements(ring, 2, 6))
    oracle = n_sequence_via_deformation(h).terms
    if not ring.characteristic:
        assert n_seq_tree(h).terms == n_seq_recurrent(h).terms == oracle
        return
    lift = n_seq_charp_lift(h)
    assert lift.terms == n_seq_charp_direct(h).terms == oracle
    lifted = tuple(s.map_coefficients(int, new_ring=IntPolyRing()) for s in h)
    integral = n_seq_recurrent(lifted).assemble()
    reduced = [s.map_coefficients(ring.from_int, new_ring=ring) for s in integral.components]
    assert lift.assemble() == FormalMap(reduced)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_charp_direct_runs_over_every_prime_field(data):
    # the residue step at every layer is the sequence over GF(p), layers
    # m = kp+1 included, and sums to the inverse; the recurrence divides by
    # m - 1 and refuses the field
    field = PrimeField(data.draw(st.sampled_from([2, 3, 5, 7])))
    h = data.draw(sparse_displacements(field, 3, 9))
    nseq = n_seq_charp_direct(h)
    assert nseq.terms == n_sequence_via_deformation(h).terms
    assert nseq.assemble() == invert_fixed_point(h)
    refusal = "^the recurrence divides by m - 1: it needs characteristic 0$"
    with pytest.raises(ValueError, match=refusal):
        n_seq_recurrent(h)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_layers_apply_no_derivation_alone(data):
    # the recurrence streams each layer's applications through one
    # derivation_sum pass per component, over QQ and over the integers of
    # charp-lift; charp-direct's residue step runs no derivation at all
    ring = data.draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
    h = data.draw(sparse_displacements(ring, 2, 7))
    expect = invert_fixed_point(h)
    refuse = AssertionError("Derivation.apply called")
    with mock.patch.object(Derivation, "apply", side_effect=refuse):
        if not ring.characteristic:
            assert n_seq_recurrent(h).assemble() == expect
            return
        assert n_seq_charp_lift(h).assemble() == expect
        with mock.patch.object(
            inversion, "derivation_sum", side_effect=AssertionError("derivation_sum called")
        ), mock.patch.object(
            inversion, "convolution_sum", side_effect=AssertionError("convolution_sum called")
        ):
            assert n_seq_charp_direct(h).assemble() == expect


# -- verification ----------------------------------------------------------------


def test_verify_identity_pair():
    ident = FormalMap.identity(QQ, 2, 4)
    assert verify_inverse(ident, ident).ok


def test_verify_reports_missing_displacement():
    h = commutator_displacement(QQ, 4)
    f = FormalMap.f_form(h)
    ident = FormalMap.identity(QQ, 2, 4)
    report = verify_inverse(f, ident)
    assert not report.ok
    assert report.degree == 2
    assert report.component == 1
    # F(id) - id = -H = xy - yx: the first residual term degree-lex is +1 * xy
    assert report.word == (1, 2)
    assert report.coefficient == "1"
    assert report.describe() == "residual in F(G), component 1: 1 * z1z2 at degree 2"
    assert verify_inverse(f, f).describe() == (
        "residual in F(G), component 1: 2 * z1z2 at degree 2"
    )
    assert inversion.VerifyReport(
        ok=False, side="G(F)", component=2, word=(), degree=0, coefficient="3"
    ).describe() == "residual in G(F), component 2: 3 * 1 at degree 0"


def test_mutating_any_coefficient_is_detected_at_its_degree():
    D = 6
    h = commutator_displacement(QQ, D)
    f = FormalMap.f_form(h)
    g = invert_fixed_point(h)
    for i, comp in enumerate(g.components):
        for word, _ in comp.terms():
            bumped = comp + NCSeries.from_terms(QQ, 2, D, [(word, Fraction(1))])
            mutant_comps = list(g.components)
            mutant_comps[i] = bumped
            mutant = FormalMap(mutant_comps)
            report = verify_inverse(f, mutant)
            assert not report.ok
            assert report.degree == len(word), (i, word)


def _first_residual_by_sorting(residuals):
    """The reference: each series' terms sorted in full, the first kept."""
    best = None
    for i, residual in enumerate(residuals):
        for word, c in residual.terms():
            cand = (word_key(word), i, word, c)
            if best is None or cand[:2] < best[:2]:
                best = cand
            break
    return best


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_first_residual_matches_the_sorted_reference(data):
    n = data.draw(st.integers(1, 3))
    D = data.draw(st.integers(0, 12))
    words = st.lists(st.integers(0, n - 1), max_size=D).map(tuple)
    terms = st.lists(st.tuples(words, st.integers(-3, 3)), max_size=6)
    vector = [NCSeries.from_terms(QQ, n, D, data.draw(terms)) for _ in range(n)]
    assert inversion._first_residual(vector) == _first_residual_by_sorting(vector)


def test_first_residual_prefers_the_lower_component_on_a_tie():
    def s(*terms):
        return NCSeries.from_terms(QQ, 2, 4, [(w, Fraction(c)) for w, c in terms])

    tie = [s(((1, 0), 5), ((0, 1, 1), 1)), s(((1, 0), 7), ((0, 0), 2)), s(((1, 0), 3))]
    expect = (word_key((0, 0)), 1, (0, 0), Fraction(2))
    assert inversion._first_residual(tie) == expect == _first_residual_by_sorting(tie)
    tie[1] = s(((1, 0), 7))
    expect = (word_key((1, 0)), 0, (1, 0), Fraction(5))
    assert inversion._first_residual(tie) == expect == _first_residual_by_sorting(tie)
    # the least key of the lowest bucket is found by min: no bucket is sorted
    with mock.patch.object(freealg, "sorted", create=True, side_effect=AssertionError):
        assert inversion._first_residual(tie) == expect
    assert inversion._first_residual([s(), s()]) is None
