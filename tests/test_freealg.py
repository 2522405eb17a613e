"""Series arithmetic, substitution, derivations, Jacobians, chain rules."""

import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncinvert.commutative import (
    CommPoly,
    abelianize,
    abelianize_vector,
    substitute,
    substitute_vector,
)
from ncinvert import deformation, freealg
from ncinvert.cli import _dump_json, _map_json
from ncinvert.deformation import embed_series, special_inverse, t_residue_series
from ncinvert.freealg import (
    Derivation,
    FormalMap,
    INFINITE_ORDER,
    NCSeries,
    _fixed_point,
    _image_table,
    _substitute,
    compose,
    compose_vector,
    derivation_sum,
    jacobian_tilde,
    matrix_derivation_apply,
    replace_letters,
    star_action,
    vector_sum,
)
from ncinvert.inversion import invert_fixed_point
from ncinvert.parsing import _check_unitriangular
from ncinvert.randmaps import random_displacement, random_series
from ncinvert.rings import QQ, PrimeField, RationalField, TQuotientRing


def series(n, degree, *terms):
    return NCSeries.from_terms(
        QQ, n, degree, [(w, Fraction(c)) for w, c in terms]
    )


X, Y = (0,), (1,)


def test_product_concatenates_words():
    # (xy) * x = xyx
    a = series(2, 4, ((0, 1), 1))
    b = series(2, 4, ((0,), 1))
    assert a * b == series(2, 4, ((0, 1, 0), 1))


def test_product_is_noncommutative():
    x = NCSeries.variable(QQ, 2, 3, 0)
    y = NCSeries.variable(QQ, 2, 3, 1)
    prod = (x - y) * (x + y)
    assert prod == series(2, 3, ((0, 0), 1), ((0, 1), 1), ((1, 0), -1), ((1, 1), -1))
    assert (x * y) != (y * x)


def test_truncation_drops_overflow():
    d = 4
    top = series(2, d, (tuple([0] * d), 1))
    x = NCSeries.variable(QQ, 2, d, 0)
    assert (top * x).is_zero()


@pytest.mark.parametrize("cut", [lambda s: s, abelianize], ids=["NCSeries", "CommPoly"])
def test_truncated_raises_and_lowers_the_bound(cut):
    s = cut(series(2, 4, ((0,), 1), ((1, 0), 2), ((0, 1, 1), -1), ((1, 1, 0, 1), 3)))
    up = s.truncated(7)
    # raising adds no terms, and lowering again gives the series back
    assert up.degree == 7
    assert list(up.terms()) == list(s.terms())
    assert up.truncated(4) == s
    low = s.truncated(2)
    assert low == cut(series(2, 2, ((0,), 1), ((1, 0), 2)))
    assert low.truncated(4) != s


def test_mixed_degree_operands_rejected():
    a = NCSeries.variable(QQ, 2, 3, 0)
    b = NCSeries.variable(QQ, 2, 4, 0)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    for components in ((a, b), ()):
        with pytest.raises(ValueError):
            Derivation(components)
    # a sum checks every item: x^5 at D = 5 would land above truncation 3
    x5 = NCSeries.variable(QQ, 2, 5, 0) ** 5
    with pytest.raises(ValueError, match="truncation degree mismatch: 3 vs 5"):
        NCSeries.sum(QQ, 2, 3, [a, x5])
    with pytest.raises(ValueError, match="arity mismatch: 2 vs 3"):
        NCSeries.sum(QQ, 2, 3, [NCSeries.variable(QQ, 3, 3, 0)])
    with pytest.raises(ValueError, match="coefficient rings differ"):
        NCSeries.sum(PrimeField(5), 2, 3, [a])


def test_mixed_ring_operands_rejected():
    a = NCSeries.variable(QQ, 2, 3, 0)
    b = NCSeries.variable(PrimeField(5), 2, 3, 0)
    with pytest.raises(ValueError):
        a + b


@pytest.mark.parametrize(
    "kind, key, message",
    [
        (NCSeries, (0, 1, 0), "term of degree 3 exceeds truncation 2"),
        (NCSeries, (0, 2), r"letter out of range in word \(0, 2\)"),
        (CommPoly, (1, 2), "term of degree 3 exceeds truncation 2"),
        (CommPoly, (1, 0, 0), r"exponent vector \(1, 0, 0\) has length 3, not 2"),
    ],
    ids=["word-past-degree", "letter-out-of-range", "exponents-past-degree", "exponents-wrong-length"],
)
def test_from_terms_rejects_overflow_words(kind, key, message):
    with pytest.raises(ValueError, match=message):
        kind.from_terms(QQ, 2, 2, [(key, Fraction(1))])


def test_coefficient_rejects_letters_outside_the_alphabet():
    # (0, 2) and (1, 0) share the base-2 code 2: the letter must be refused
    s = series(2, 2, ((1, 0), 5))
    assert s.coefficient((1, 0)) == 5
    with pytest.raises(ValueError, match=r"letter out of range in word \(0, 2\)"):
        s.coefficient((0, 2))


def test_normalization_drops_zero_coefficients():
    s = series(2, 3, ((0, 1), 1), ((0, 1), -1), ((1,), 2))
    assert s == series(2, 3, ((1,), 2))
    assert s.term_count() == 1


def test_order():
    assert series(2, 4, ((0,), 1), ((0, 0, 1), 1)).order() == 1
    assert NCSeries.zero(QQ, 2, 4).order() == INFINITE_ORDER
    ad2 = series(2, 4, ((1, 1, 0), 1), ((1, 0, 1), -2), ((0, 1, 1), 1))
    assert ad2.order() == 3


def test_terms_sorted_degree_lex():
    s = series(2, 3, ((1, 0), 2), ((0,), 1), ((0, 1), 3))
    assert [w for w, _ in s.terms()] == [(0,), (0, 1), (1, 0)]


def test_map_json_form_is_pinned():
    # a zero component, the constant word, 1-based letters, a QQ fraction
    # and a GF(5) residue, as the CLI writes them: the JSON value of each
    # map, and the same value read back from the text the CLI writes of it
    f_map = FormalMap([
        series(2, 3, ((), 2), ((1,), 1), ((0, 1), Fraction(-3, 7))),
        NCSeries.zero(QQ, 2, 3),
    ])
    f_expected = [
        {
            "arity": 2,
            "degree": 3,
            "terms": [
                {"word": [], "coeff": "2"},
                {"word": [2], "coeff": "1"},
                {"word": [1, 2], "coeff": "-3/7"},
            ],
        },
        {"arity": 2, "degree": 3, "terms": []},
    ]
    gf5 = PrimeField(5)
    g_map = FormalMap([NCSeries.from_terms(gf5, 1, 2, [((0, 0), gf5.from_int(-1))])])
    g_expected = [
        {"arity": 1, "degree": 2, "terms": [{"word": [1, 1], "coeff": "4"}]}
    ]
    for a_map, expected in ((f_map, f_expected), (g_map, g_expected)):
        assert _map_json(a_map) == expected
        text = _dump_json({"map": _map_json(a_map)})
        assert json.loads(text) == {"map": expected}


# -- composition ------------------------------------------------------------


def test_compose_variable_swap():
    u = series(2, 4, ((0, 1), 1))  # z1 z2
    swap = FormalMap(
        [NCSeries.variable(QQ, 2, 4, 1), NCSeries.variable(QQ, 2, 4, 0)]
    )
    assert compose(u, swap) == series(2, 4, ((1, 0), 1))


def test_compose_identity_fixes_everything():
    rng = random.Random(7)
    u = random_series(rng, QQ, 2, 5, 0, 4, terms=5)
    ident = FormalMap.identity(QQ, 2, 5)
    assert compose(u, ident) == u


class CountingField(RationalField):
    """QQ that counts its products."""

    def __init__(self):
        self.muls = 0

    def mul(self, a, b):
        self.muls += 1
        return super().mul(a, b)


def test_compose_multiplies_no_kept_letter():
    # the identity map keeps every letter, so composing with it multiplies
    # no coefficient at all
    ring = CountingField()
    terms = [((), 3), ((0,), 1), ((1, 0), -2), ((0, 1, 1, 0), Fraction(1, 2))]
    u = NCSeries.from_terms(ring, 2, 5, [(w, Fraction(c)) for w, c in terms])
    ident = FormalMap.identity(ring, 2, 5)
    ring.muls = 0
    assert compose(u, ident) == u
    assert ring.muls == 0


def test_compose_example_with_commutator():
    # u = x into F = (x - (yx - xy), y) gives x - yx + xy
    h = series(2, 4, ((1, 0), 1), ((0, 1), -1))
    f = FormalMap.f_form([h, NCSeries.zero(QQ, 2, 4)])
    u = series(2, 4, ((0,), 1))
    assert compose(u, f) == series(2, 4, ((0,), 1), ((1, 0), -1), ((0, 1), 1))


def test_compose_rejects_constant_terms():
    u = series(2, 3, ((0,), 1))
    bad = FormalMap(
        [NCSeries.one(QQ, 2, 3), NCSeries.variable(QQ, 2, 3, 1)]
    )
    with pytest.raises(ValueError):
        compose(u, bad)


def test_replace_letters_replaces_exactly_j_letters():
    # x*y with x -> yy, y -> xx: one letter gives yyy + xxx, both give yyxx
    images = [series(2, 4, ((1, 1), 1)), series(2, 4, ((0, 0), 1))]
    u = series(2, 4, ((0, 1), 1), ((), 5))
    assert replace_letters(u, images, 0) == u
    assert replace_letters(u, images, 1) == series(2, 4, ((1, 1, 1), 1), ((0, 0, 0), 1))
    assert replace_letters(u, images, 2) == series(2, 4, ((1, 1, 0, 0), 1))
    assert replace_letters(u, images, 3).is_zero()


def test_replace_letters_refuses_a_negative_j():
    u = series(2, 4, ((0, 1), 1))
    images = [series(2, 4, ((1, 1), 1)), series(2, 4, ((0, 0), 1))]
    for v in (u, NCSeries.zero(QQ, 2, 4)):
        with pytest.raises(ValueError, match="j = -1"):
            replace_letters(v, images, -1)


def test_replace_letters_rejects_constant_images():
    u = series(2, 3, ((0,), 1))
    with pytest.raises(ValueError, match="image 1 has a constant term"):
        replace_letters(u, [NCSeries.one(QQ, 2, 3), NCSeries.zero(QQ, 2, 3)], 1)


def test_compose_associativity():
    rng = random.Random(11)
    n, D = 2, 6
    u = random_series(rng, QQ, n, D, 0, 3, terms=4)
    f = FormalMap.f_form(random_displacement(rng, QQ, n, D))
    g = FormalMap.f_form(random_displacement(rng, QQ, n, D))
    lhs = compose(compose(u, f), g)
    rhs = compose(u, f.after(g))
    assert lhs == rhs


# -- the fixed-point loop -------------------------------------------------------


@pytest.mark.parametrize("D", [0, 1, 2, 5])
@pytest.mark.parametrize("r", [2, 3])
def test_fixed_point_pass_count_is_fixed_by_the_order_of_h(D, r):
    # with r = o(H), pass k leaves M exact through degree (k + 1)(r - 1);
    # each caller makes the same passes: NCSeries, special_inverse over
    # R[t], and CommPoly
    quadratic = ((0, 0), 1), ((1, 0), -1)
    h = tuple(
        s.truncated(D)
        for s in (
            series(2, 5, *(quadratic if r == 2 else ()), ((0, 0, 1), 2)),
            series(2, 5, ((1, 1, 1), 3), ((0, 1, 0, 1), 1)),
        )
    )
    passes = max(D - 1, 0) if r == 2 else max((D - 1) // 2, 0)
    # pass k evaluates at truncation r - 1 + k(r - 1), capped at D
    truncations = [min(D, (r - 1) + k * (r - 1)) for k in range(1, passes + 1)]
    calls = []

    def counting(substitute):
        def counted(vector, point):
            calls.append(point)
            return substitute(vector, point)

        return counted

    def fixed_point_of(h_vector, substitute):
        calls.clear()
        m_vec = _fixed_point(h_vector, counting(substitute))
        assert [point[0].degree for point in calls] == truncations
        first = h_vector[0]
        z = [type(first).variable(first.ring, 2, D, i) for i in range(2)]
        assert m_vec == substitute(h_vector, tuple(v + m for v, m in zip(z, m_vec)))

    fixed_point_of(h, _substitute)
    fixed_point_of(abelianize_vector(h), substitute_vector)
    calls.clear()
    special_inverse(h, 1, counting(_substitute))
    assert [point[0].degree for point in calls] == truncations


def _full_degree_fixed_point(h_vector, substitute):
    """The fixed-point loop with every pass at the full truncation D."""
    first = h_vector[0]
    kind, ring, n, D = type(first), first.ring, first.arity, first.degree
    r = min(h.order() for h in h_vector)
    variables = [kind.variable(ring, n, D, i) for i in range(n)]
    m_vec = tuple(kind.zero(ring, n, D) for _ in range(n))
    for _ in range((D - 1) // (r - 1) if r <= D else 0):
        m_vec = substitute(h_vector, tuple(v + m for v, m in zip(variables, m_vec)))
    return m_vec


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_degree_raising_fixed_point_matches_the_full_degree_loop(data):
    r = data.draw(st.sampled_from([2, 3, 4]))
    route = data.draw(st.sampled_from(["QQ", "GF(3)", "R[t]", "CommPoly"]))
    ring = PrimeField(3) if route == "GF(3)" else QQ
    n = data.draw(st.integers(1, 2))
    D = data.draw(st.integers(r, 7))
    h = [data.draw(sparse_series(ring, n, D, r)) for _ in range(n)]
    # a word of degree r makes o(H) = r unless a drawn term cancels it
    h[0] = h[0] + NCSeries.from_terms(ring, n, D, [((0,) * r, ring.one())])
    h = tuple(h)
    if route == "R[t]":
        torder = data.draw(st.integers(0, 2))
        with mock.patch.object(deformation, "_fixed_point", _full_degree_fixed_point):
            expect = special_inverse(h, torder, _substitute)
        assert special_inverse(h, torder, _substitute) == expect
    elif route == "CommPoly":
        h = abelianize_vector(h)
        assert _fixed_point(h, substitute_vector) == _full_degree_fixed_point(
            h, substitute_vector
        )
    else:
        assert _fixed_point(h, _substitute) == _full_degree_fixed_point(h, _substitute)


# -- derivations --------------------------------------------------------------


def test_derivation_is_not_left_multiplication():
    # the derivation x -> u applied to yx gives y*u, not u*y
    u = series(2, 4, ((0, 0), 1))
    delta = Derivation([u, NCSeries.zero(QQ, 2, 4)])
    yx = series(2, 4, ((1, 0), 1))
    assert delta.apply(yx) == series(2, 4, ((1, 0, 0), 1))
    xy = series(2, 4, ((0, 1), 1))
    assert delta.apply(xy) == series(2, 4, ((0, 0, 1), 1))


def test_euler_derivation_scales_by_degree():
    delta = Derivation(
        [NCSeries.variable(QQ, 2, 5, i) for i in range(2)]
    )
    f = series(2, 5, ((0, 1, 1), 1), ((1, 0, 1), -2))
    assert delta.apply(f) == f.scale_int(3)
    g = series(2, 5, ((0,), 5))
    assert delta.apply(g) == g


def test_ad_derivation_iterates():
    # [ad_y(x) d/dx] ad_y(x) = ad_y^2(x) with ad_y(u) = yu - uy
    ad1 = series(2, 5, ((1, 0), 1), ((0, 1), -1))
    delta = Derivation([ad1, NCSeries.zero(QQ, 2, 5)])
    ad2 = series(2, 5, ((1, 1, 0), 1), ((1, 0, 1), -2), ((0, 1, 1), 1))
    assert delta.apply(ad1) == ad2
    ad3 = delta.apply(ad2)
    expect = series(
        2, 5, ((1, 1, 1, 0), 1), ((1, 1, 0, 1), -3), ((1, 0, 1, 1), 3), ((0, 1, 1, 1), -1)
    )
    assert ad3 == expect


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_derivation_sum_is_the_sum_of_the_applications(seed):
    rng = random.Random(seed)
    n, D = rng.randint(1, 3), rng.randint(2, 6)
    applications = [
        (Derivation(random_displacement(rng, QQ, n, D)), random_series(rng, QQ, n, D, 0, D))
        for _ in range(rng.randint(0, 3))
    ]
    expect = NCSeries.sum(QQ, n, D, (delta.apply(f) for delta, f in applications))
    assert derivation_sum(QQ, n, D, iter(applications)) == expect
    # a series of another truncation is refused, as by ``apply``
    delta = Derivation(random_displacement(rng, QQ, n, D))
    with pytest.raises(ValueError, match="truncation degree mismatch"):
        derivation_sum(QQ, n, D, [(delta, NCSeries.zero(QQ, n, D + 1))])


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_leibniz_rule(seed):
    rng = random.Random(seed)
    n, D = rng.choice([1, 2, 3]), 6
    delta = Derivation(
        tuple(random_series(rng, QQ, n, D, 0, 2, terms=2) for _ in range(n))
    )
    f = random_series(rng, QQ, n, D, 0, 3, terms=3)
    g = random_series(rng, QQ, n, D, 0, 3, terms=3)
    lhs = delta.apply(f * g)
    rhs = delta.apply(f) * g + f * delta.apply(g)
    assert lhs == rhs


# -- Jacobians ----------------------------------------------------------------


def test_derivation_builds_its_image_table_once():
    rng = random.Random(5)
    delta = Derivation(random_displacement(rng, QQ, 2, 5))
    vector = random_displacement(rng, QQ, 2, 5)
    expect = delta.apply_vector(vector)
    with mock.patch.object(freealg, "_image_table", side_effect=AssertionError):
        assert delta.apply_vector(vector) == expect


def identity_rows(n, D):
    one, zero = NCSeries.one(QQ, n, D), NCSeries.zero(QQ, n, D)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def test_jacobian_of_identity_is_identity_matrix():
    ident = FormalMap.identity(QQ, 3, 4)
    assert jacobian_tilde(ident) == identity_rows(3, 4)


def test_jacobian_square_entry():
    # slot derivative of x^2 is x*1 + 1*x = 2x
    u = (series(2, 4, ((0, 0), 1)), NCSeries.variable(QQ, 2, 4, 1))
    jt = jacobian_tilde(u)
    assert jt[0][0] == series(2, 4, ((0,), 2))
    assert jt[1][0].is_zero()
    assert jt[1][1] == NCSeries.one(QQ, 2, 4)


def test_jacobian_of_commutator_map_is_identity():
    # for F = (x - (yx - xy), y) the commutator contributions cancel
    h = series(2, 4, ((1, 0), 1), ((0, 1), -1))
    f = FormalMap.f_form([h, NCSeries.zero(QQ, 2, 4)])
    assert jacobian_tilde(f) == identity_rows(2, 4)


def test_jacobian_chain_rule_on_random_maps():
    rng = random.Random(3)
    for _ in range(5):
        n, D = rng.choice([1, 2, 3]), 5
        h = random_displacement(rng, QQ, n, D)
        f = FormalMap.f_form(h)
        g = invert_fixed_point(h)
        # a matrix composes row by row
        lhs = matrix_derivation_apply(
            [compose_vector(row, g) for row in jacobian_tilde(f)], g.components
        )
        # slot derivations have constant components, so the top degree is
        # not certified by truncation: compare at D-1
        cut = lambda m: tuple(tuple(e.truncated(D - 1) for e in row) for row in m)
        assert cut(lhs) == identity_rows(n, D - 1)
        rhs = matrix_derivation_apply(
            [compose_vector(row, f) for row in jacobian_tilde(g)], f.components
        )
        assert cut(rhs) == identity_rows(n, D - 1)


def test_derivation_chain_rule_random():
    rng = random.Random(5)
    for _ in range(5):
        n, D = rng.choice([1, 2, 3]), 6
        h = random_displacement(rng, QQ, n, D)
        f = FormalMap.f_form(h)
        g = invert_fixed_point(h)
        delta = Derivation(
            tuple(random_series(rng, QQ, n, D, 1, 2, terms=2) for _ in range(n))
        )
        u = random_series(rng, QQ, n, D, 0, 3, terms=3)
        lhs = delta.apply(compose(u, f))
        carried = Derivation(compose_vector(delta.apply_vector(f.components), g))
        rhs = compose(carried.apply(u), f)
        assert lhs == rhs


# -- star action ---------------------------------------------------------------


def test_star_action_identity_map_fixes_derivation():
    ident = FormalMap.identity(QQ, 2, 4)
    delta = Derivation(
        [series(2, 4, ((0, 1), 1)), series(2, 4, ((1, 1), -2))]
    )
    assert star_action(ident, ident, delta) == delta


def test_star_action_of_zero_derivation():
    rng = random.Random(1)
    h = random_displacement(rng, QQ, 2, 4)
    f = FormalMap.f_form(h)
    g = invert_fixed_point(h)
    zero = Derivation([NCSeries.zero(QQ, 2, 4)] * 2)
    assert star_action(f, g, zero).is_zero()


def test_star_action_rejects_wrong_inverse():
    rng = random.Random(2)
    h = random_displacement(rng, QQ, 2, 4)
    f = FormalMap.f_form(h)
    not_inverse = FormalMap.identity(QQ, 2, 4)
    delta = Derivation([NCSeries.variable(QQ, 2, 4, 0)] * 2)
    with pytest.raises(ValueError):
        star_action(f, not_inverse, delta)


# -- vectors of series ------------------------------------------------------------


def test_vector_sum_adds_componentwise():
    x = NCSeries.variable(QQ, 2, 3, 0)
    y = NCSeries.variable(QQ, 2, 3, 1)
    zero = NCSeries.zero(QQ, 2, 3)
    vectors = [(x * y, zero), (-(x * y), y * y), (x, y * y)]
    assert vector_sum(QQ, 2, 3, iter(vectors)) == (x, (y * y).scale_int(2))
    assert vector_sum(QQ, 2, 3, []) == (zero, zero)
    with pytest.raises(ValueError, match="truncation degree mismatch"):
        vector_sum(QQ, 2, 4, vectors)


def test_a_map_and_a_derivation_with_equal_components_differ():
    comps = [series(2, 4, ((0, 1), 1)), series(2, 4, ((1, 1), -2))]
    assert FormalMap(comps) == FormalMap(list(comps))
    assert Derivation(comps) == Derivation(list(comps))
    assert FormalMap(comps) != Derivation(comps)
    assert Derivation(comps) != FormalMap(comps)
    with pytest.raises(ValueError, match="3 components for arity 2"):
        Derivation(comps + comps[:1])


# -- form validation -----------------------------------------------------------


def test_f_form_requires_order_two():
    lin = series(2, 3, ((1,), 1))
    with pytest.raises(ValueError):
        FormalMap.f_form([lin, NCSeries.zero(QQ, 2, 3)])


def test_tagged_form_validates_linear_part():
    # A map read from outside input must be z - H; the check runs in parsing.
    x = NCSeries.variable(QQ, 2, 3, 0)
    y = NCSeries.variable(QQ, 2, 3, 1)
    with pytest.raises(ValueError, match="stray linear term in z2"):
        _check_unitriangular([x + y, y], QQ)
    with pytest.raises(ValueError, match="coefficient of z1 must be 1"):
        _check_unitriangular([x.scale_int(2), y], QQ)
    with pytest.raises(ValueError, match="component 1 is missing its z1 term"):
        _check_unitriangular([x * x, y], QQ)
    with pytest.raises(ValueError, match="component 1 has a constant term"):
        _check_unitriangular([x + NCSeries.one(QQ, 2, 3), y], QQ)
    _check_unitriangular([x - x * y, y], QQ)


def test_tquotient_coefficients_supported():
    tring = TQuotientRing(QQ, 2)
    x = NCSeries.variable(tring, 1, 3, 0)
    tx = x.scale(tring.embed(1, 1))
    prod = tx * tx
    assert prod.coefficient((0, 0)) == tring.embed(1, 2)


def test_power_equals_repeated_product():
    rng = random.Random(8)
    for ring in (QQ, PrimeField(3)):
        # terms of degree 0 keep high powers nonzero
        s = random_series(rng, ring, 2, 6, 0, 2, terms=3)
        prod = NCSeries.one(ring, 2, 6)
        for k in range(9):
            assert s ** k == prod
            prod = prod * s


def test_power_past_the_truncation_is_zero_at_once():
    x = NCSeries.variable(QQ, 2, 4, 0)
    assert (x ** (10**9)).is_zero()
    assert (x ** 4).coefficient((0, 0, 0, 0)) == 1
    assert (NCSeries.zero(QQ, 2, 4) ** 0) == NCSeries.one(QQ, 2, 4)


# rings in which sums cancel (QQ, GF(3)) and in which products of nonzero
# coefficients vanish too (t * t^2 = 0 in QQ[t]/(t^3))
KERNEL_RINGS = (QQ, PrimeField(3), TQuotientRing(QQ, 2))


@st.composite
def coefficients(draw, ring, min_t):
    n = draw(st.integers(-2, 2))
    if isinstance(ring, TQuotientRing):
        return ring.embed(ring.base.from_int(n), draw(st.integers(min_t, ring.torder)))
    return ring.from_int(n)


@st.composite
def sparse_series(draw, ring, n, D, min_deg):
    # over the t-quotient the map's coefficients are multiples of t, so that
    # most products of two or three of them vanish
    words = st.lists(st.integers(0, n - 1), min_size=min_deg, max_size=D).map(tuple)
    terms = draw(st.lists(st.tuples(words, coefficients(ring, min_deg)), max_size=6))
    return NCSeries.from_terms(ring, n, D, terms)


def _substitute_copy_per_term(poly, vector):
    """commutative.substitute as a fold with +, one product per term."""
    ring, n, D = poly.ring, poly.arity, poly.degree
    out = CommPoly.zero(ring, n, D)
    for expo, c in poly.terms():
        prod = CommPoly.constant(ring, n, D, c)
        for i, k in enumerate(expo):
            for _ in range(k):
                prod = prod * vector[i]
        out = out + prod
    return out


def _word_product(word, components):
    """F_i1 * ... * F_im for the word z_i1...z_im, one product per letter."""
    first = components[0]
    prod = NCSeries.one(first.ring, first.arity, first.degree)
    for letter in word:
        prod = prod * components[letter]
    return prod


@st.composite
def reaching_series(draw, ring, n, D, min_deg):
    """A sparse series plus up to three words of degree D; zero when no word
    of degree >= ``min_deg`` fits."""
    if D < min_deg:
        return NCSeries.zero(ring, n, D)
    top = st.lists(st.integers(0, n - 1), min_size=D, max_size=D).map(tuple)
    tops = draw(st.lists(top, max_size=3))
    return draw(sparse_series(ring, n, D, min_deg)) + NCSeries.from_terms(
        ring, n, D, [(w, ring.one()) for w in tops]
    )


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_compose_matches_word_by_word_reference(data):
    ring = data.draw(st.sampled_from(KERNEL_RINGS))
    n = data.draw(st.integers(1, 3))
    D = data.draw(st.integers(0, 6))
    u = data.draw(reaching_series(ring, n, D, 0))
    f_map = FormalMap([data.draw(reaching_series(ring, n, D, 1)) for _ in range(n)])
    expect = NCSeries.sum(
        ring, n, D, (_word_product(w, f_map.components).scale(c) for w, c in u.terms())
    )
    assert compose(u, f_map) == expect
    # keeping z_i or splicing V_i = F_i - z_i at each letter: u(z + V) is the
    # sum over j of the terms with exactly j letters replaced
    v = f_map.displacement()
    assert expect == NCSeries.sum(ring, n, D, (replace_letters(u, v, j) for j in range(D + 1)))
    poly, vector = abelianize(u), abelianize_vector(f_map.components)
    assert substitute(poly, vector) == _substitute_copy_per_term(poly, vector)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_compose_vector_shares_one_image_table(data):
    ring = data.draw(st.sampled_from(KERNEL_RINGS))
    n = data.draw(st.integers(1, 3))
    D = data.draw(st.integers(0, 6))
    vector = [data.draw(reaching_series(ring, n, D, 0)) for _ in range(n)]
    f_map = FormalMap([data.draw(reaching_series(ring, n, D, 1)) for _ in range(n)])
    cache = {}
    shared = compose_vector(vector, f_map, cache)
    assert shared == tuple(compose(u, f_map, {}) for u in vector)
    # the map's image table is all the cache holds, and a second pass reuses it
    assert list(cache) == [()]
    assert compose_vector(vector, f_map, cache) == shared


def _t_residue_route(u, h_vector, j):
    """(-1)^j [t^j] u(z - t*H) over R[t]/(t^(j+1)), one word product per
    term of u (products only, no substitution pass)."""
    ring, n, D = u.ring, u.arity, u.degree
    tring = TQuotientRing(ring, j)
    shifted = [
        NCSeries.variable(tring, n, D, i) - embed_series(h, tring, 1)
        for i, h in enumerate(h_vector)
    ]
    image = t_residue_series(
        NCSeries.sum(
            tring, n, D,
            (_word_product(w, shifted).scale(tring.embed(c)) for w, c in u.terms()),
        ),
        j,
    )
    return image if j % 2 == 0 else -image


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_replace_letters_matches_the_t_residue_route(data):
    ring = data.draw(st.sampled_from((QQ, PrimeField(2), PrimeField(3))))
    n = data.draw(st.integers(1, 3))
    D = data.draw(st.integers(0, 7))
    j = data.draw(st.integers(0, 4))
    # words of every length, shorter than j too, and a constant term
    u = data.draw(reaching_series(ring, n, D, 0)) + NCSeries.constant(
        ring, n, D, ring.from_int(data.draw(st.integers(-2, 2)))
    )
    zero = NCSeries.zero(ring, n, D)
    if data.draw(st.booleans()):
        # H = 0, of order infinity: S_0 is u and every other S_j is 0
        h_vector = [zero] * n
    else:
        # some components may be zero; order 1 is allowed as in compose
        h_vector = [
            data.draw(st.sampled_from([zero, data.draw(reaching_series(ring, n, D, 1))]))
            for _ in range(n)
        ]
    got = replace_letters(u, h_vector, j)
    assert got == _t_residue_route(u, h_vector, j)
    _assert_stored_clean(got)


def _tuple_product(a, b):
    """a * b written over tuple words: each pair of words concatenates."""
    ring, D = a.ring, a.degree
    pairs = [
        (w1 + w2, ring.mul(c1, c2))
        for w1, c1 in a.terms()
        for w2, c2 in b.terms()
        if len(w1) + len(w2) <= D
    ]
    return NCSeries.from_terms(ring, a.arity, D, pairs)


def _tuple_derivation(images, f, positions=None):
    """The Leibniz rule written over tuple words: each image term is
    spliced into each position of its letter (each one in ``positions``)."""
    ring, D = f.ring, f.degree
    pairs = [
        (w[:j] + uw + w[j + 1 :], ring.mul(c, uc))
        for w, c in f.terms()
        for j, letter in enumerate(w)
        if positions is None or j in positions
        for uw, uc in images[letter].terms()
        if len(w) - 1 + len(uw) <= D
    ]
    return NCSeries.from_terms(ring, f.arity, D, pairs)


def _splices_at(images, f, positions):
    """The packed splices of ``images`` into ``f`` at the given positions."""
    table = _image_table(images)
    return f._collect(
        (e, pairs)
        for d, bucket in f.buckets.items()
        for e, pairs in f._splices(
            bucket, d, table, f.ring.mul, [j for j in positions if j < d]
        )
    )


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_packed_kernels_match_a_tuple_word_reference(data):
    ring = data.draw(st.sampled_from(KERNEL_RINGS))
    n = data.draw(st.integers(1, 3))
    D = data.draw(st.integers(0, 5))
    full = st.lists(st.integers(0, n - 1), min_size=D, max_size=D).map(tuple)

    def draw_series(min_deg):
        # every series holds words of degree D besides its sparse terms
        tops = data.draw(st.lists(full, min_size=1, max_size=4))
        top = NCSeries.from_terms(ring, n, D, [(w, ring.one()) for w in tops])
        return data.draw(sparse_series(ring, n, D, min_deg)) + top

    a, b = draw_series(0), draw_series(0)
    assert a * b == _tuple_product(a, b)
    if data.draw(st.booleans()):
        delta = Derivation.coordinate(ring, n, D, data.draw(st.integers(0, n - 1)))
    else:
        delta = Derivation([draw_series(0) for _ in range(n)])
    assert delta.apply(a) == _tuple_derivation(delta.components, a)
    positions = sorted(data.draw(st.sets(st.integers(0, max(D - 1, 0)), max_size=3)))
    assert _splices_at(delta.components, a, positions) == _tuple_derivation(
        delta.components, a, positions
    )
    assert NCSeries.from_terms(ring, n, D, a.terms()) == a


def _assert_stored_clean(s):
    """No empty bucket and no coefficient that the ring calls zero."""
    for d, bucket in s.buckets.items():
        assert bucket, (d, s)
        assert not any(s.ring.is_zero(c) for c in bucket.values()), (d, s)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_every_kernel_stores_no_empty_bucket_and_no_zero(data):
    # the equality properties compare two results of the one collector, so
    # an empty bucket or a stored zero would sit on both sides; this looks
    # at the storage itself
    ring = data.draw(st.sampled_from(KERNEL_RINGS))
    n = data.draw(st.integers(1, 2))
    D = data.draw(st.integers(1, 4))
    a = data.draw(sparse_series(ring, n, D, 0))
    c = data.draw(sparse_series(ring, n, D, 0))
    # b holds the negated terms of a, so a + b cancels them
    b = c - a
    terms = list(a.terms())
    k = data.draw(st.integers(0, len(terms)))
    cancelled = terms + [(w, ring.neg(v)) for w, v in terms[:k]] + list(c.terms())
    delta = Derivation([data.draw(sparse_series(ring, n, D, 0)) for _ in range(n)])
    f_map = FormalMap(
        [NCSeries.variable(ring, n, D, i) + data.draw(sparse_series(ring, n, D, 1))
         for i in range(n)]
    )
    three = ring.from_int(3)
    results = [
        a + b, a - c, b - b + a, a * b, b * a, a * a,
        NCSeries.sum(ring, n, D, [a, b, c]),
        NCSeries.sum(ring, n, D, [b, a]),
        NCSeries.from_terms(ring, n, D, cancelled),
        a.map_coefficients(lambda v: ring.mul(v, v)),
        a.map_coefficients(lambda v: ring.mul(v, three)),
        -a,
        delta.apply(a), delta.apply(b),
        compose(a, f_map), compose(b, f_map),
    ]
    p, q = abelianize(a), abelianize(b)
    results += [p + q, p * q, p - q] + [p.partial(i) for i in range(n)]
    results += [(p * q).partial(i) for i in range(n)]
    for s in results:
        _assert_stored_clean(s)
    for s in (a, b, p):
        assert (s + (-s)).buckets == {}
        assert (s - s).buckets == {}


def test_repr_prints_words_as_z_letters():
    s = NCSeries.from_terms(QQ, 2, 3, [((), 2), ((1, 0), -1), ((0, 0, 1), 3)])
    assert repr(s) == "NCSeries(2*1, -1*z2z1, 3*z1z1z2; n=2, D=3)"
    assert repr(NCSeries.zero(QQ, 2, 3)) == "NCSeries(0; n=2, D=3)"
