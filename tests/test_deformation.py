"""Deformed inverses, the h/m derivation pair, PDE and flow identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncinvert.inversion as inversion
from ncinvert.deformation import (
    DeformedMap,
    SpecialDeformation,
    check_composed_with_forward_map,
    check_h_m_structure,
    check_inverse_flow_identities,
    check_inversion_pde,
    check_pushforward_swap,
    check_shifted_inverse_family,
    check_substitution_flow,
    check_transport_pde,
    embed_series,
    n_sequence_via_deformation,
    solves_cauchy_problem,
    t_agree,
    t_derivative_series,
    t_derivative_vector,
    t_graded,
    t_residue_series,
)
from ncinvert.freealg import Derivation, NCSeries, compose, compose_vector
from ncinvert.inversion import n_seq_recurrent, verify_inverse
from ncinvert.randmaps import (
    random_deformed_displacement,
    random_displacement,
    random_series,
)
from ncinvert.rings import QQ, PrimeField


def commutator_displacement(ring, degree):
    x = NCSeries.variable(ring, 2, degree, 0)
    y = NCSeries.variable(ring, 2, degree, 1)
    return (y * x - x * y, NCSeries.zero(ring, 2, degree))


def test_zero_deformation_inverts_to_identity():
    kind = t_graded(NCSeries, 3)
    h_t = (kind.zero(QQ, 2, 4), kind.zero(QQ, 2, 4))
    d = DeformedMap(h_t)
    assert d.g_t.is_identity()


def test_deformed_inverse_is_verified_on_construction():
    rng = random.Random(4)
    h_t = random_deformed_displacement(rng, QQ, 2, 5, 3)
    d = DeformedMap(h_t)
    assert verify_inverse(d.f_t, d.g_t).ok
    assert all(s.order() >= 2 for s in d.m_t)


def test_deformed_map_requires_tquotient_coefficients():
    h = commutator_displacement(QQ, 4)
    with pytest.raises(ValueError):
        DeformedMap(h)


def test_special_deformation_matches_sequence_readout():
    # M_t = t * N_t and the t-coefficients of N_t are the N-sequence
    D = 6
    h = commutator_displacement(QQ, D)
    sd = SpecialDeformation(h, torder=4)
    assert sd.n_term(1) == h
    nseq = n_seq_recurrent(h)
    for m in range(1, 6):
        assert list(sd.n_term(m)) == list(nseq.term(m))


def test_squared_parameter_shifts_orders():
    # H_t = t^2 H: all of M_t sits at t-order >= 2
    D, K = 5, 4
    h = commutator_displacement(QQ, D)
    h_t = tuple(embed_series(s, K, 2) for s in h)
    d = DeformedMap(h_t)
    for s in d.m_t:
        for j in (0, 1):
            assert t_residue_series(s, j).is_zero()


def test_embed_series_refuses_a_negative_t_exponent():
    x = NCSeries.variable(QQ, 1, 2, 0)
    with pytest.raises(ValueError, match=r"t\^-1"):
        embed_series(x, 2, -1)


def test_inverse_flow_identities_random():
    rng = random.Random(21)
    for _ in range(4):
        n = rng.choice([1, 2, 3])
        h_t = random_deformed_displacement(rng, QQ, n, 5, 4)
        assert check_inverse_flow_identities(DeformedMap(h_t))


def test_pushforward_swap_random():
    rng = random.Random(22)
    for _ in range(3):
        h_t = random_deformed_displacement(rng, QQ, 2, 5, 3)
        assert check_pushforward_swap(DeformedMap(h_t))


def test_substitution_flow_random_and_edge_cases():
    rng = random.Random(23)
    h_t = random_deformed_displacement(rng, QQ, 2, 6, 4)
    d = DeformedMap(h_t)
    # u = z_i reduces to the basic flow identities
    assert check_substitution_flow(d, NCSeries.variable(QQ, 2, 6, 0))
    # constants are annihilated on both sides
    assert check_substitution_flow(d, NCSeries.one(QQ, 2, 6))
    assert check_substitution_flow(d, random_series(rng, QQ, 2, 6, 0, 3, terms=3))


def test_composition_flow_pdes_directly():
    # dU_t/dt = -h(t) U_t for U_t = u(F_t); dV_t/dt = m(t) V_t for V_t = u(G_t)
    rng = random.Random(24)
    h_t = random_deformed_displacement(rng, QQ, 2, 5, 4)
    d = DeformedMap(h_t)
    u = random_series(rng, QQ, 2, 5, 0, 3, terms=3)
    u_t = embed_series(u, d.torder)
    big_u = compose(u_t, d.f_t)
    assert t_agree((t_derivative_series(big_u),), (-d.h_derivation().apply(big_u),))
    big_v = compose(u_t, d.g_t)
    assert t_agree((t_derivative_series(big_v),), (d.m_derivation().apply(big_v),))


def test_parameter_chain_rule():
    rng = random.Random(25)
    n, D, K = 2, 5, 4
    h_t = random_deformed_displacement(rng, QQ, n, D, K)
    d = DeformedMap(h_t)
    u_t = embed_series(random_series(rng, QQ, n, D, 0, 3, terms=2), d.torder)
    u_t = u_t + embed_series(random_series(rng, QQ, n, D, 0, 3, terms=2), d.torder, 2)
    lhs = t_derivative_series(compose(u_t, d.f_t))
    carried = Derivation(compose_vector(t_derivative_vector(d.f_t.components), d.g_t))
    rhs = compose(t_derivative_series(u_t), d.f_t) + compose(
        carried.apply(u_t), d.f_t
    )
    assert t_agree((lhs,), (rhs,))


def test_inversion_pde_and_boundary():
    rng = random.Random(26)
    for ring in (QQ, PrimeField(5)):
        h = random_displacement(rng, ring, 2, 5)
        sd = SpecialDeformation(h, torder=4)
        assert check_inversion_pde(sd.n_t, sd.h_base)


def test_inversion_pde_rejects_mutation():
    h = commutator_displacement(QQ, 5)
    sd = SpecialDeformation(h, torder=3)

    bump = embed_series(NCSeries.from_terms(QQ, 2, 5, [((0, 0), 1)]), sd.torder)
    mutated = (sd.n_t[0] + bump, sd.n_t[1])
    assert not check_inversion_pde(mutated, sd.h_base)


def test_h_m_structure():
    rng = random.Random(27)
    h = random_displacement(rng, QQ, 2, 5)
    assert check_h_m_structure(SpecialDeformation(h, torder=4))


def test_composed_with_forward_map_full_order():
    rng = random.Random(28)
    h = random_displacement(rng, QQ, 2, 5)
    assert check_composed_with_forward_map(SpecialDeformation(h, torder=5))


def test_shifted_inverse_family_cases():
    rng = random.Random(29)
    h = random_displacement(rng, QQ, 2, 6)
    # s = 0: both maps are the identity
    assert check_shifted_inverse_family(h, Fraction(1, 2), Fraction(0))
    # t0 = 0, s = 1 recovers the plain inverse pair
    assert check_shifted_inverse_family(h, Fraction(0), Fraction(1))
    assert check_shifted_inverse_family(h, Fraction(1, 3), Fraction(1, 2))


@pytest.mark.parametrize(
    "ring, degree", [(QQ, 6), (PrimeField(5), 7)], ids=["QQ-D6", "GF5-D7"]
)
def test_shifted_inverse_family_sees_a_doubled_coefficient(monkeypatch, ring, degree):
    x = NCSeries.variable(ring, 2, degree, 0)
    y = NCSeries.variable(ring, 2, degree, 1)
    three = ring.from_int(3)
    h = (x * y + (y * x).scale(three), x * x - y * y * x)
    # the check reads the recurrence over QQ and charp-direct over GF(p)
    engine = "n_seq_charp_direct" if ring.characteristic else "n_seq_recurrent"
    original = getattr(inversion, engine)
    # N_[D-1] is visible at D; over GF(5) at D = 7 it is m = 6 = p + 1, the
    # first layer where the recurrence would divide by zero
    assert any(not s.is_zero() for s in original(h).term(degree - 1))
    pairs = [(ring.from_int(t), ring.from_int(s)) for t, s in ((0, 1), (2, 3), (1, 4), (3, 2))]
    for t0, s0 in pairs:
        assert check_shifted_inverse_family(h, t0, s0)

    def doubled(h_vector):
        nseq = original(h_vector)
        n2 = list(nseq.terms[1])
        i = next(i for i, s in enumerate(n2) if not s.is_zero())
        word, c = next(n2[i].terms())
        n2[i] = n2[i] + NCSeries.from_terms(ring, 2, degree, [(word, c)])
        nseq.terms[1] = tuple(n2)
        return nseq

    monkeypatch.setattr(inversion, engine, doubled)
    for t0, s0 in pairs:
        assert not check_shifted_inverse_family(h, t0, s0)
        assert check_shifted_inverse_family(h, t0, ring.zero())


def test_transport_pde_cases():
    rng = random.Random(30)
    h = random_displacement(rng, QQ, 2, 5)
    # u = z_1 reduces to the component PDE
    assert check_transport_pde(h, NCSeries.variable(QQ, 2, 5, 0), 4)
    # constants transport trivially
    assert check_transport_pde(h, NCSeries.one(QQ, 2, 5), 4)
    assert check_transport_pde(h, random_series(rng, QQ, 2, 5, 0, 3, terms=3), 4)


def test_transport_pde_rejects_perturbed_solution():
    # U_t + t*w keeps the boundary u but adds w to dU_t/dt at t^0
    rng = random.Random(32)
    h = random_displacement(rng, QQ, 2, 5)
    sd = SpecialDeformation(h, torder=4)
    u = random_series(rng, QQ, 2, 5, 0, 3, terms=3)
    big_u = compose(embed_series(u, sd.torder), sd.g_t)
    flow = Derivation(sd.n_t).apply_vector
    assert solves_cauchy_problem((big_u,), (u,), flow)
    w = NCSeries.variable(QQ, 2, 5, 1) * NCSeries.variable(QQ, 2, 5, 0)
    perturbed = big_u + embed_series(w, sd.torder, 1)
    assert not solves_cauchy_problem((perturbed,), (u,), flow)


def test_oracle_sequence_equals_recurrent_sequence():
    rng = random.Random(31)
    h = random_displacement(rng, QQ, 3, 6)
    assert n_sequence_via_deformation(h).terms == n_seq_recurrent(h).terms


def test_star_action_swap_over_special_family():
    h = commutator_displacement(QQ, 4)
    sd = SpecialDeformation(h, torder=3)
    assert check_pushforward_swap(sd)


@st.composite
def base_series(draw, ring, n=2, D=3):
    words = st.lists(st.integers(0, n - 1), max_size=D).map(tuple)
    terms = draw(st.lists(st.tuples(words, st.integers(-3, 3)), min_size=1, max_size=5))
    return NCSeries.from_terms(ring, n, D, [(w, ring.from_int(c)) for w, c in terms])


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_embed_series_puts_each_coefficient_at_t_k(data):
    ring = data.draw(st.sampled_from([QQ, PrimeField(3)]))
    K = data.draw(st.integers(0, 4))
    k = data.draw(st.integers(0, K + 1))
    s = data.draw(base_series(ring))
    lifted = embed_series(s, K, k)
    assert type(lifted) is t_graded(NCSeries, K) and lifted.ring == ring
    assert lifted.term_count() == (s.term_count() if k <= K else 0)
    for word, c in s.terms():
        for j in range(K + 1):
            assert lifted.coefficient((word, j)) == (c if j == k else ring.zero())


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_t_agree_compares_through_t_order_k_minus_1(data):
    ring = data.draw(st.sampled_from([QQ, PrimeField(3)]))
    K = data.draw(st.integers(0, 4))
    vector = tuple(
        embed_series(data.draw(base_series(ring)), K, data.draw(st.integers(0, K)))
        for _ in range(2)
    )
    other = tuple(embed_series(data.draw(base_series(ring)), K) for _ in range(2))
    with pytest.raises(ValueError, match="lengths 1 and 2"):
        t_agree(vector[:1], other)
    with pytest.raises(ValueError, match="lengths 2 and 1"):
        t_agree(vector, other[:1])
    if K == 0:
        assert t_agree(vector, other)
        return
    i = data.draw(st.integers(0, 1))
    word = tuple(data.draw(st.lists(st.integers(0, 1), max_size=3)))
    bump = NCSeries.from_terms(ring, 2, 3, [(word, ring.one())])

    def bumped(j):
        # vector with the coefficient of word in component i changed at t^j
        step = embed_series(bump, K, j)
        return tuple(s + step if c == i else s for c, s in enumerate(vector))

    assert t_agree(vector, vector)
    assert not t_agree(vector, bumped(K - 1))
    assert t_agree(vector, bumped(K))
