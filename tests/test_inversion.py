"""Engine behavior, cross-validation and the verification report."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncinvert.inversion as inversion
import ncinvert.trees as trees
from ncinvert.deformation import check_shifted_inverse_family, n_sequence_via_deformation
from ncinvert.freealg import FormalMap, NCSeries
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
    n_seq_recurrent,
    verify_inverse,
)
from ncinvert.randmaps import random_displacement
from ncinvert.rings import QQ, IntPolyRing, PrimeField
from ncinvert.trees import invert_tree


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


def test_recurrent_refuses_prime_characteristic():
    h = commutator_displacement(PrimeField(5), 4)
    with pytest.raises(ValueError, match="charp"):
        n_seq_recurrent(h)


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
    nseq.validate_bounds(h)


def test_sequence_bounds_are_checked_under_python_O():
    # o(N_[2]) = 2 < 3: the check must not be an assert that -O strips
    code = (
        "from ncinvert.freealg import NCSeries\n"
        "from ncinvert.inversion import NSequence\n"
        "from ncinvert.rings import QQ\n"
        "h = (NCSeries.from_terms(QQ, 1, 4, [((0, 0), 1)]),)\n"
        "try:\n"
        "    NSequence(QQ, 1, 4, [h, h]).validate_bounds(h)\n"
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
        step = alt_recurrent_step(nseq.terms[: m - 1], h, m)
        assert list(step) == list(nseq.term(m))


def test_residue_step_on_commutator_example():
    h = commutator_displacement(QQ, 5)
    step = alt_recurrent_step([h], h, 2)
    assert step[0] == ad_y_power(QQ, 5, 2)
    assert step[1].is_zero()


def test_residue_step_agrees_with_lift_at_wraparound_layer():
    # m = p + 1 is the first layer the recurrence cannot reach over GF(p)
    p, D = 5, 8
    field = PrimeField(p)
    h = commutator_displacement(field, D, scale=4)
    direct = n_seq_charp_direct(h)
    m = p + 1
    step = alt_recurrent_step(direct.terms[: m - 1], h, m)
    assert list(step) == list(direct.term(m))
    # against the lift: the integer N_[m] of the representatives, reduced mod p
    lifted = tuple(s.map_coefficients(int, new_ring=IntPolyRing()) for s in h)
    integral = n_seq_recurrent(lifted)
    reduced = tuple(
        s.map_coefficients(field.from_int, new_ring=field) for s in integral.term(m)
    )
    assert list(reduced) == list(direct.term(m))


# -- characteristic p ------------------------------------------------------------


def test_charp_engines_match_reduced_power_series():
    # G_1 = sum 4^m ad_y^m(x) over GF(5), computed here by series arithmetic
    p, D = 5, 8
    field = PrimeField(p)
    h = commutator_displacement(field, D, scale=4)
    expect = NCSeries.variable(field, 2, D, 0)
    for m in range(1, D):
        expect = expect + ad_y_power(field, D, m, coefficient=field.pow(field.from_int(4), m))
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
            assert invert_charp_lift(h) == invert_charp_direct(h), (p, i)
    # at D = 6 only p = 2, 3 reach a layer m = kp + 1 <= D - 1; these reach p + 1
    for p, D in ((5, 7), (7, 9)):
        field = PrimeField(p)
        for i in range(15):
            n = rng.choice([1, 2])
            h = random_displacement(rng, field, n, D, max_deg=3, terms=2)
            assert invert_charp_lift(h) == invert_charp_direct(h), (p, D, i)


# -- dispatch -------------------------------------------------------------------


def test_engine_sets_per_ring():
    assert engines_for_ring(QQ) == ("fixed-point", "recurrent", "tree")
    assert engines_for_ring(PrimeField(7)) == (
        "fixed-point",
        "charp-direct",
        "charp-lift",
    )


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
    # a table that kept the functions from import time would miss these
    def sentinel(name):
        return lambda h_vector: name

    monkeypatch.setattr(inversion, "invert_fixed_point", sentinel("fp"))
    monkeypatch.setattr(inversion, "invert_charp_lift", sentinel("lift"))
    monkeypatch.setattr(trees, "invert_tree", sentinel("tree"))
    h = commutator_displacement(QQ, 4)
    hp = commutator_displacement(PrimeField(5), 4)
    assert invert(h) == "fp"
    assert invert(h, engine="tree") == "tree"
    assert invert(hp, engine="fixed-point") == "fp"
    assert invert(hp, engine="charp-lift") == "lift"


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
