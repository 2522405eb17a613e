"""Abelianization and the commutative specializations."""

import itertools
import random
from fractions import Fraction

import pytest

from ncinvert.commutative import (
    CommPoly,
    abelianize,
    abelianize_vector,
    inversion_pde_check,
    jacobian,
    jacobian_power_apply,
    substitute,
    substitute_vector,
)
from ncinvert.deformation import embed_series, solves_cauchy_problem, special_inverse
from ncinvert.freealg import Derivation, FormalMap, NCSeries, compose
from ncinvert.inversion import c_sequence, invert_fixed_point, verify_inverse
from ncinvert.randmaps import random_coefficient, random_displacement, random_series
from ncinvert.rings import QQ, PrimeField, TQuotientRing


def nc(n, degree, *terms):
    return NCSeries.from_terms(QQ, n, degree, [(w, Fraction(c)) for w, c in terms])


def test_commutators_die():
    s = nc(2, 3, ((0, 1), 1), ((1, 0), -1))
    assert abelianize(s).is_zero()


def test_multidegree_collapse():
    s = nc(2, 3, ((0, 0), 1), ((0, 1), 2))
    ab = abelianize(s)
    assert dict(ab.terms()) == {(2, 0): Fraction(1), (1, 1): Fraction(2)}


def test_iterated_commutator_dies():
    ad2 = nc(2, 4, ((1, 1, 0), 1), ((1, 0, 1), -2), ((0, 1, 1), 1))
    assert abelianize(ad2).is_zero()


def test_abelianize_is_ring_homomorphism():
    # abelianize commutes with CommPoly's own product and with the arithmetic
    # it inherits from NCSeries
    rng = random.Random(6)
    for ring, _ in itertools.product((QQ, PrimeField(3)), range(5)):
        tring = TQuotientRing(ring, 2)
        a = random_series(rng, ring, 2, 6, 0, 3, terms=4)
        b = random_series(rng, ring, 2, 6, 0, 3, terms=4)
        ab_a, ab_b = abelianize(a), abelianize(b)
        assert abelianize(a * b) == ab_a * ab_b
        assert abelianize(a + b) == ab_a + ab_b
        assert abelianize(a - b) == ab_a - ab_b
        c = random_coefficient(rng, ring)
        assert abelianize(a.scale(c)) == ab_a.scale(c)
        # 3 is zero in GF(3)
        assert abelianize(a.scale_int(3)) == ab_a.scale_int(3)
        for k in range(4):
            assert abelianize(a ** k) == ab_a ** k
        assert abelianize(
            a.map_coefficients(tring.embed, new_ring=tring)
        ) == ab_a.map_coefficients(tring.embed, new_ring=tring)


def test_equality_needs_the_same_kind():
    # the same stored buckets under both kinds: only the kind tells them apart
    raw = {2: {(1, 1): Fraction(1)}}
    yy = NCSeries(QQ, 2, 3, raw)
    xy = CommPoly(QQ, 2, 3, raw)
    assert yy != xy
    assert xy != yy


def test_arithmetic_refuses_mixed_kinds():
    yy = nc(2, 3, ((1, 1), 1))
    xy = CommPoly.from_terms(QQ, 2, 3, [((1, 1), Fraction(1))])
    for op in (
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: type(a).sum(QQ, 2, 3, [a, b]),
    ):
        with pytest.raises(ValueError, match="cannot mix"):
            op(yy, xy)
        with pytest.raises(ValueError, match="cannot mix"):
            op(xy, yy)
    # the entry points that take a series next to a map or a derivation; a
    # map cannot hold a CommPoly, so verify_inverse never meets one
    x = nc(2, 3, ((0,), 1))
    ident = FormalMap.identity(QQ, 2, 3)
    for refuse in (
        lambda: compose(xy, ident),
        lambda: Derivation([x * x, yy]).apply(xy),
        lambda: Derivation([xy, xy]).apply(x),
        lambda: verify_inverse(ident, FormalMap([xy, xy])),
    ):
        with pytest.raises(ValueError, match="NCSeries.*CommPoly"):
            refuse()


def test_abelianize_commutes_with_slot_derivations():
    rng = random.Random(7)
    f = random_series(rng, QQ, 2, 5, 0, 4, terms=5)
    for i in range(2):
        delta = Derivation.coordinate(QQ, 2, 5, i)
        assert abelianize(delta.apply(f)) == abelianize(f).partial(i)


def test_jacobian_power_base_case():
    rng = random.Random(8)
    h_ab = abelianize_vector(random_displacement(rng, QQ, 2, 5))
    assert list(jacobian_power_apply(h_ab, 1)) == list(h_ab)


def test_jacobian_power_single_variable():
    # H = z^2: (JH)^(m-1) H = (2z)^(m-1) z^2 = 2^(m-1) z^(m+1)
    D = 8
    h = CommPoly.from_terms(QQ, 1, D, [((2,), Fraction(1))])
    for m in range(1, 6):
        out = jacobian_power_apply((h,), m)[0]
        assert dict(out.terms()) == {(m + 1,): Fraction(2 ** (m - 1))}


def test_jacobian_power_matches_abelianized_iterates():
    rng = random.Random(9)
    h = random_displacement(rng, QQ, 2, 6)
    h_ab = abelianize_vector(h)
    for m, c_vec in enumerate(c_sequence(h, 5), start=1):
        assert list(abelianize_vector(c_vec)) == list(jacobian_power_apply(h_ab, m))


def test_quotient_compatibility_of_inversion():
    rng = random.Random(10)
    for n in (1, 2, 3):
        h = random_displacement(rng, QQ, n, 6)
        f = FormalMap.f_form(h)
        g = invert_fixed_point(h)
        f_ab = abelianize_vector(f.components)
        g_ab = abelianize_vector(g.components)
        identity = [CommPoly.variable(QQ, n, 6, i) for i in range(n)]
        assert list(substitute_vector(f_ab, g_ab)) == identity
        assert list(substitute_vector(g_ab, f_ab)) == identity


def test_substitution_truncates():
    x = CommPoly.variable(QQ, 1, 3, 0)
    p = x * x
    out = substitute(p, (x + x * x,))
    # (z + z^2)^2 = z^2 + 2 z^3 + ... truncated at 3
    assert dict(out.terms()) == {(2,): Fraction(1), (3,): Fraction(2)}
    # terms of different monomials that cancel after substitution
    y = CommPoly.variable(QQ, 2, 3, 1)
    x2 = CommPoly.variable(QQ, 2, 3, 0)
    assert dict(substitute(x2 * x2 - y, (x2, x2 * x2)).terms()) == {}


def test_power_equals_repeated_product():
    x = CommPoly.variable(QQ, 2, 5, 0)
    one = CommPoly.one(QQ, 2, 5)
    p = one + x + CommPoly.variable(QQ, 2, 5, 1).scale_int(-2)
    prod = one
    for k in range(8):
        assert p ** k == prod
        prod = prod * p
    assert (x ** (10**9)).is_zero()


def test_commutative_pde_zero_and_catalan():
    zero = (CommPoly.zero(QQ, 1, 6),)
    assert inversion_pde_check(zero, torder=4)
    h = (CommPoly.from_terms(QQ, 1, 8, [((2,), Fraction(1))]),)
    assert inversion_pde_check(h, torder=5)


def test_commutative_pde_random_symmetric_words():
    rng = random.Random(11)
    for _ in range(3):
        h = abelianize_vector(random_displacement(rng, QQ, 2, 6))
        assert inversion_pde_check(h, torder=4)


def comm_flow(n_t):
    # the right-hand side (J N_t) N_t of the commutative inversion PDE
    return jacobian_power_apply(n_t, 2)


def catalan_case(torder):
    x = CommPoly.variable(QQ, 1, 8, 0)
    h = (x * x,)
    _, _, n_t = special_inverse(h, torder, substitute_vector)
    return x, h, n_t


def test_commutative_pde_at_torder_zero_is_the_boundary():
    _, h, n_t = catalan_case(0)
    assert inversion_pde_check(h, torder=0)
    assert n_t[0].torder == 0

    def never(_):
        raise AssertionError("no equation to check at t-order 0")

    assert solves_cauchy_problem(n_t, h, never)


def test_commutative_pde_rejects_extra_t_constant_term():
    # N_t + x^3 starts at H + x^3 but does not follow (J N) N from there
    x, h, n_t = catalan_case(4)
    assert solves_cauchy_problem(n_t, h, comm_flow)
    bump = embed_series(x ** 3, n_t[0].torder)
    assert not solves_cauchy_problem((n_t[0] + bump,), (h[0] + x ** 3,), comm_flow)


def test_commutative_pde_rejects_wrong_boundary():
    x, h, n_t = catalan_case(4)
    assert not solves_cauchy_problem(n_t, (h[0].scale_int(2),), comm_flow)
    assert not solves_cauchy_problem(n_t, (h[0] + x ** 3,), comm_flow)


def test_commutative_pde_needs_order_two():
    x = CommPoly.variable(QQ, 1, 4, 0)
    with pytest.raises(ValueError, match="H component 1 has order 1, need >= 2"):
        inversion_pde_check((x + x * x,), torder=2)


def test_commpoly_terms_and_coefficients_by_exponent_vector():
    p = CommPoly.from_terms(
        QQ, 2, 4, [((1, 2), Fraction(-3, 7)), ((2, 0), Fraction(1))]
    )
    assert (p.arity, p.degree) == (2, 4)
    assert list(p.terms()) == [((2, 0), 1), ((1, 2), Fraction(-3, 7))]
    assert p.coefficient((1, 2)) == Fraction(-3, 7)
    assert p.coefficient([2, 0]) == Fraction(1)
    assert p.coefficient((0, 1)) == 0


def test_commpoly_terms_yield_the_stored_exponent_vectors_sorted():
    rng = random.Random(8)
    for n in (1, 2, 3):
        expos = {
            tuple(rng.randrange(4) for _ in range(n)): Fraction(rng.randrange(1, 9))
            for _ in range(12)
        }
        p = CommPoly.from_terms(QQ, n, 12, expos.items())
        expect = sorted(expos.items(), key=lambda t: (sum(t[0]), t[0]))
        assert list(p.terms()) == expect
        assert list(p.terms(1)) == expect
        assert p.first_term() == expect[0]
        # the keys are the stored tuples themselves, not decoded copies
        stored = {e for b in p.buckets.values() for e in b}
        assert all(any(e is k for k in stored) for e, _ in p.terms())
    assert CommPoly.zero(QQ, 2, 3).first_term() is None


def test_jacobian_entries():
    x = CommPoly.variable(QQ, 2, 4, 0)
    y = CommPoly.variable(QQ, 2, 4, 1)
    vec = (x * x + y, x * y)
    j = jacobian(vec)
    assert dict(j[0][0].terms()) == {(1, 0): Fraction(2)}
    assert dict(j[0][1].terms()) == {(0, 0): Fraction(1)}
    assert dict(j[1][0].terms()) == {(0, 1): Fraction(1)}
    assert dict(j[1][1].terms()) == {(1, 0): Fraction(1)}
