"""Series arithmetic, substitution, derivations, Jacobians, chain rules."""

import contextlib
import itertools
import json
import math
import operator
import random
from fractions import Fraction
from functools import partial
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
from ncinvert.deformation import embed_series, special_inverse, t_graded, t_residue_series
from ncinvert.freealg import (
    DENSE_BLOCK,
    WORD_TABLE_CAP,
    Derivation,
    FormalMap,
    INFINITE_ORDER,
    NCSeries,
    Row,
    _fixed_point,
    _image_table,
    _substitute,
    chunk_length,
    compose,
    compose_vector,
    derivation_sum,
    derivation_sum_keeping,
    jacobian_tilde,
    matrix_derivation_apply,
    replace_letters,
    star_action,
    vector_sum,
    word_decoder,
    word_key,
)
from ncinvert.inversion import convolution_sum, invert, invert_fixed_point, n_seq_recurrent
from ncinvert.parsing import _check_unitriangular, parse_map
from ncinvert.randmaps import random_displacement, random_series
from ncinvert.rings import QQ, IntPolyRing, PrimeField, RationalField, TQuotientRing
from ncinvert.suite import SuiteBounds, run_identity_suite


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


# -- decoding stored words ----------------------------------------------------


def _word_per_letter(code, d, n, first=0):
    """The reference decoder: the word of length d with base-n code
    ``code``, one divmod per letter."""
    word = [0] * d
    for j in range(d - 1, -1, -1):
        code, word[j] = divmod(code, n)
    return tuple(letter + first for letter in word)


def test_chunk_length_is_the_longest_under_the_cap():
    # 2**8, 4**4 and 16**2 are exactly the cap; one letter stops at the
    # chunk of two letters, and past the cap a chunk is still one letter
    assert WORD_TABLE_CAP == 256
    expected = {1: 8, 2: 8, 3: 5, 4: 4, 5: 3, 12: 2, 16: 2, 17: 1, 256: 1, 2000: 1}
    assert {n: chunk_length(n) for n in expected} == expected
    for n in range(2, 40):
        L = chunk_length(n)
        assert n**L <= WORD_TABLE_CAP < n ** (L + 1) or L == 1 < n


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_word_decoder_matches_the_per_letter_decoder(data):
    n = data.draw(st.integers(1, 12), label="n")
    L = chunk_length(n)
    d = data.draw(st.integers(0, 3 * L + 2), label="d")
    codes = data.draw(st.lists(st.integers(0, n**d - 1), max_size=20), label="codes")
    first = data.draw(st.sampled_from([0, 1]), label="first")
    decoded = word_decoder(n, first)(codes, d)
    assert list(decoded) == [_word_per_letter(c, d, n, first) for c in codes]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_terms_order_is_degree_lex_over_the_decoded_words(data):
    n = data.draw(st.integers(1, 12), label="n")
    D = data.draw(st.integers(0, 3 * chunk_length(n) + 2), label="D")
    words = st.lists(st.integers(0, n - 1), max_size=D).map(tuple)
    terms = data.draw(st.dictionaries(words, st.integers(1, 9), max_size=12), label="terms")
    s = NCSeries.from_terms(QQ, n, D, terms.items())
    expect = sorted(((w, Fraction(c)) for w, c in terms.items()), key=lambda t: word_key(t[0]))
    assert list(s.terms()) == expect
    assert list(s.terms(1)) == [(tuple(i + 1 for i in w), c) for w, c in expect]
    assert s.first_term() == (expect[0] if expect else None)


class _CountedCode(int):
    """A stored code that counts the divisions made on it and on the codes
    divided out of it."""

    divisions = 0

    def _counted(op):
        def method(self, other):
            _CountedCode.divisions += 1
            result = op(int(self), other)
            if isinstance(result, tuple):
                return tuple(map(_CountedCode, result))
            return _CountedCode(result)

        return method

    __floordiv__ = _counted(int.__floordiv__)
    __mod__ = _counted(int.__mod__)
    __divmod__ = _counted(divmod)


@pytest.mark.parametrize("n, d", [(2, 31), (3, 13), (5, 4), (1, 25)])
def test_terms_and_map_json_decode_by_chunk_not_by_letter(monkeypatch, n, d):
    # one division pair per chunk boundary: ceil(d/L) - 1 of them, where a
    # per-letter decoder divides d times
    rng = random.Random(d)
    codes = sorted({rng.randrange(n**d) for _ in range(8)})
    bucket = {_CountedCode(c): Fraction(1) for c in codes}
    s = NCSeries(QQ, n, d, {d: bucket})
    bound = len(codes) * 2 * (-(-d // chunk_length(n)) - 1)
    monkeypatch.setattr(_CountedCode, "divisions", 0)
    assert [w for w, _ in s.terms()] == [_word_per_letter(c, d, n) for c in codes]
    assert _CountedCode.divisions <= bound < len(codes) * d
    monkeypatch.setattr(_CountedCode, "divisions", 0)
    words = [t["word"] for t in _map_json(FormalMap([s] * n))[0]["terms"]]
    assert words == [list(_word_per_letter(c, d, n, 1)) for c in codes]
    assert _CountedCode.divisions <= bound * n


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
    """QQ that counts its products, the pair kernels' through its rules."""

    def __init__(self):
        self.muls = 0
        self.row_rules = (operator.add, self.mul, None)

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


def shifted(images):
    """The map z + V for the displacement vector V = ``images``."""
    first = images[0]
    kind, ring, n, D = type(first), first.ring, first.arity, first.degree
    return FormalMap([kind.variable(ring, n, D, i) + v for i, v in enumerate(images)])


# one refusal, in FormalMap.image_table, names the first constant component
CONSTANT_MAP = FormalMap([NCSeries.variable(QQ, 2, 3, 0), NCSeries.one(QQ, 2, 3)])
CONSTANT_REFUSAL = "^map component 2 has a constant term$"


def test_compose_rejects_constant_terms():
    with pytest.raises(ValueError, match=CONSTANT_REFUSAL):
        compose(series(2, 3, ((0,), 1)), CONSTANT_MAP)


def test_replace_letters_rejects_constant_images():
    with pytest.raises(ValueError, match=CONSTANT_REFUSAL):
        replace_letters({1: series(2, 3, ((0,), 1))}, CONSTANT_MAP)


def test_replace_letters_replaces_exactly_j_letters():
    # x*y with x -> yy, y -> xx: one letter gives yyy + xxx, both give yyxx
    f_map = shifted([series(2, 4, ((1, 1), 1)), series(2, 4, ((0, 0), 1))])
    u = series(2, 4, ((0, 1), 1), ((), 5))
    assert replace_letters({0: u}, f_map) == u
    assert replace_letters({1: u}, f_map) == series(2, 4, ((1, 1, 1), 1), ((0, 0, 0), 1))
    assert replace_letters({2: u}, f_map) == series(2, 4, ((1, 1, 0, 0), 1))
    assert replace_letters({3: u}, f_map).is_zero()


def test_replace_letters_refuses_a_negative_j():
    u = series(2, 4, ((0, 1), 1))
    f_map = shifted([series(2, 4, ((1, 1), 1)), series(2, 4, ((0, 0), 1))])
    for v in (u, NCSeries.zero(QQ, 2, 4)):
        with pytest.raises(ValueError, match="j = -1"):
            replace_letters({-1: v}, f_map)


def test_compose_associativity():
    rng = random.Random(11)
    n, D = 2, 6
    u = random_series(rng, QQ, n, D, 0, 3, terms=4)
    f = FormalMap.f_form(random_displacement(rng, QQ, n, D))
    g = FormalMap.f_form(random_displacement(rng, QQ, n, D))
    lhs = compose(compose(u, f), g)
    rhs = compose(u, f.after(g))
    assert lhs == rhs
    # u(F) = u(z + V) is the sum over j of the terms with j letters replaced
    assert compose(u, f) == replace_letters({j: u for j in range(D + 1)}, f)


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
        def counted(vector, point, bound=0):
            calls.append(point)
            return substitute(vector, point, bound)

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
    # the same sum, keeping each application without its terms of degree D
    kept = []
    assert derivation_sum_keeping(QQ, n, D, iter(applications), kept) == expect
    assert kept == [delta.apply(f).truncated(D - 1).truncated(D) for delta, f in applications]
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
    prod = type(first).one(first.ring, first.arity, first.degree)
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
    assert expect == replace_letters({j: u for j in range(D + 1)}, f_map)
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


@st.composite
def t_graded_series(draw, ring, n, D, K, min_deg):
    """A series of the t-graded kind at t-order K: up to three sparse pieces,
    each times a drawn power of t."""
    kind = t_graded(NCSeries, K)
    pieces = draw(st.lists(st.tuples(reaching_series(ring, n, D, min_deg), st.integers(0, K)),
                           max_size=3))
    return kind.sum(ring, n, D, (embed_series(s, K, t) for s, t in pieces))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_a_bounded_substitution_is_compose_without_its_low_degrees(data):
    # the fixed point's pass: the bound applies only at the last position
    # pass, and the result is compose(u, F) less its terms below the bound
    route = data.draw(st.sampled_from(["QQ", "GF(3)", "lift", "R[t]"]))
    ring = {"GF(3)": PrimeField(3), "lift": IntPolyRing()}.get(route, QQ)
    n = data.draw(st.integers(1, 3))
    D = data.draw(st.integers(0, 6))
    if route == "R[t]":
        K = data.draw(st.integers(0, 3))
        u = data.draw(t_graded_series(ring, n, D, K, 0))
        comps = [data.draw(t_graded_series(ring, n, D, K, 1)) for _ in range(n)]
    else:
        u = data.draw(reaching_series(ring, n, D, 0))
        comps = [data.draw(reaching_series(ring, n, D, 1)) for _ in range(n)]
    f_map = FormalMap(comps)
    full = compose(u, f_map)
    for bound in range(D + 2):
        got = compose_vector([u], f_map, bound=bound)[0]
        assert got == type(u)(ring, n, D, {d: b for d, b in full.buckets.items() if d >= bound})
        _assert_stored_clean(got)


def _pairs_spliced(run):
    """The result of ``run()`` and the pairs that ``NCSeries._splices``
    yields while it runs, in pair lists and in rows (one per slot)."""
    splices = NCSeries._splices
    pairs = [0]

    def counted(self, *args):
        for d, block in splices(self, *args):
            pairs[0] += len(block)
            yield d, block

    with mock.patch.object(NCSeries, "_splices", counted):
        out = run()
    return out, pairs[0]


def test_compose_without_a_bound_splices_what_it_spliced_before_the_bound():
    # the verify path: both sides of F(G) = id = G(F) keep every splice
    f_map = parse_map("x - x*y - y*x*x\ny - x*x - y*y*x", QQ, 9, ["x", "y"]).f_map
    g_map = invert(f_map.h_vector(), "recurrent")
    f_of_g, pairs = _pairs_spliced(lambda: f_map.after(g_map))
    assert f_of_g.is_identity() and pairs == 9315
    g_of_f, pairs = _pairs_spliced(lambda: g_map.after(f_map))
    assert g_of_f.is_identity() and pairs == 6096


@pytest.mark.parametrize(
    "ring, work",
    [(QQ, {20: 342, 40: 1482, 80: 6162}), (PrimeField(3), {20: 197, 40: 600, 80: 1772})],
    ids=["QQ", "GF(3)"],
)
def test_the_fixed_point_splices_each_degree_once(ring, work):
    # x - x*x: each pass splices only the degree it adds, about D pairs, so
    # the work grows about 4x per doubling of D (D^2); re-substituting every
    # degree in each pass spliced 1,311 / 10,621 / 85,241 pairs over QQ and
    # 756 / 3,694 / 20,139 over GF(3) (D^3 over QQ)
    for D, pairs in work.items():
        h = parse_map("x - x*x", ring, D, ["x"]).f_map.h_vector()
        g_map, spliced = _pairs_spliced(lambda: invert_fixed_point(h))
        assert spliced == pairs, D
        assert g_map == invert(h, "charp-direct" if ring.characteristic else "recurrent")


def _t_residue_route(u, images, j):
    """[t^j] u(z + t*V) over R[t]/(t^(j+1)) with V = ``images``, one word
    product per term of u (products only, no substitution pass)."""
    ring, n, D = u.ring, u.arity, u.degree
    kind = t_graded(NCSeries, j)
    moved = [
        kind.variable(ring, n, D, i) + embed_series(v, j, 1)
        for i, v in enumerate(images)
    ]
    return t_residue_series(
        kind.sum(ring, n, D, (_word_product(w, moved).scale(c) for w, c in u.terms())),
        j,
    )


def _draw_images(data, ring, n, D):
    """V for ``replace_letters``: zero, or components that may be zero and
    may have order 1."""
    zero = NCSeries.zero(ring, n, D)
    if data.draw(st.booleans()):
        # V = 0, of order infinity: [t^0] is u and every other [t^j] is 0
        return [zero] * n
    # order 1 is allowed as in compose
    return [
        data.draw(st.sampled_from([zero, data.draw(reaching_series(ring, n, D, 1))]))
        for _ in range(n)
    ]


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
    images = _draw_images(data, ring, n, D)
    got = replace_letters({j: u}, shifted(images))
    assert got == _t_residue_route(u, images, j)
    _assert_stored_clean(got)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_replace_letters_sums_every_input_in_one_substitution(data):
    # the inputs share the states of one pass: the result is the sum of the
    # residues of the inputs, each taken alone
    ring = data.draw(st.sampled_from((QQ, PrimeField(2), PrimeField(3))))
    n = data.draw(st.integers(1, 3))
    D = data.draw(st.integers(0, 6))
    zero = NCSeries.zero(ring, n, D)
    # j up to 5, past D for the small D; zero inputs too, and no input at all
    inputs = data.draw(
        st.dictionaries(
            st.integers(0, 5),
            st.one_of(st.just(zero), reaching_series(ring, n, D, 0)),
            max_size=4,
        )
    )
    images = _draw_images(data, ring, n, D)
    got = replace_letters(inputs, shifted(images))
    assert got == NCSeries.sum(
        ring, n, D, (_t_residue_route(u, images, j) for j, u in inputs.items())
    )
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
        block
        for d, bucket in f.buckets.items()
        for block in NCSeries(f.ring, f.arity, f.degree, {d: bucket})._splices(
            table, [j for j in positions if j < d]
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


# -- dense rows of the splice kernel -------------------------------------------

#: QQ (over ints, and over p/q when drawn), the prime fields, whose rows sum
#: unreduced ints, the integer lift, and a ring whose zero is a truthy tuple
ROW_RINGS = (QQ, PrimeField(2), PrimeField(3), PrimeField(5), IntPolyRing(), TQuotientRing(QQ, 2))

#: no block is dense enough for a row, and no pair list counts toward a list
#: bucket: every splice leaves as pairs and every bucket is collected as a dict
pairs_only = partial(mock.patch.object, freealg, "DENSE_BLOCK", math.inf)


@st.composite
def filled_series(draw, ring, n, D, degrees, fractions=False):
    """A series holding a drawn share, from none to all, of the words of each
    degree in ``degrees``, with small nonzero coefficients (p/q ones when
    ``fractions``)."""
    fill = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def value():
        c = rng.choice([-3, -1, 1, 2])
        return Fraction(c, rng.randint(1, 3)) if fractions else ring.from_int(c)

    words = [w for d in degrees for w in itertools.product(range(n), repeat=d)]
    return NCSeries.from_terms(ring, n, D, [(w, value()) for w in words if rng.random() < fill])


def _pairs_replaced(bucket, d, by_letter, positions, n):
    """The pairs that the pair list of one block of ``_splices`` holds."""
    return sum(len(by_letter[code // n ** (d - 1 - j) % n]) for code in bucket for j in positions)


@contextlib.contextmanager
def _rows_made():
    """The (degree, slots, pairs replaced) of every row made inside, each
    checked to hold no more slots than the pairs it stands for."""
    made = []
    splice_row = NCSeries._splice_row

    def checked(self, bucket, d, du, by_letter, positions):
        row = splice_row(self, bucket, d, du, by_letter, positions)
        pairs = _pairs_replaced(bucket, d, by_letter, positions, self.arity)
        assert len(row) <= pairs, (d, du, len(row), pairs)
        made.append((d - 1 + du, len(row), pairs))
        return row

    with mock.patch.object(NCSeries, "_splice_row", checked):
        yield made


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_row_splices_match_the_pair_path_and_a_tuple_word_reference(data):
    ring = data.draw(st.sampled_from(ROW_RINGS))
    fractions = ring == QQ and data.draw(st.booleans())
    n = data.draw(st.integers(1, 3))
    D = data.draw(st.integers(2, (8, 6, 4)[n - 1]))
    f = data.draw(filled_series(ring, n, D, range(1, D + 1), fractions))
    # two image degrees at most; at the top of f the larger one passes D
    dus = data.draw(st.sets(st.integers(1, D - 1), min_size=1, max_size=2))
    images = [data.draw(filled_series(ring, n, D, dus, fractions)) for _ in range(n)]
    table = _image_table(images)
    k = data.draw(st.integers(0, D - 1))
    # the kernel alone, on every block at every fill: both sides of the rule
    for d, bucket in f.buckets.items():
        part = NCSeries(ring, n, D, {d: bucket})
        for du, by_letter, fewest in table:
            if d - 1 + du > D:
                continue
            image = [NCSeries(ring, n, D, {du: u.buckets[du]} if du in u.buckets else {})
                     for u in images]
            for positions in (range(d), [k % d]):
                row = f._splice_row(bucket, d, du, by_letter, positions)
                assert type(row) is Row and len(row) == n ** (d - 1 + du)
                # a row has at least DENSE_BLOCK slots when _splices makes it
                with mock.patch.object(freealg, "DENSE_BLOCK", 1):
                    got = f._collect([(d - 1 + du, row)])
                with pairs_only():
                    blocks = part._splices([(du, by_letter, fewest)], positions)
                    pairs = f._collect(blocks)
                assert got == pairs == _tuple_derivation(image, part, positions)
                _assert_stored_clean(got)
    # the kernels that splice, each with the rule; the pass at position k
    # adds to a nonempty target the terms of a source longer than k + 1
    delta = Derivation(images)
    source = NCSeries(ring, n, D, {d: b for d, b in f.buckets.items() if d > k})
    room = data.draw(st.integers(k, D))
    j = data.draw(st.integers(0, 3))

    def run():
        return [
            delta.apply(f),
            derivation_sum(ring, n, D, [(delta, f), (delta, images[-1])]),
            images[0]._collect(source.truncated(room)._splices(table, (k,)), start=images[0]),
            _splices_at(images, f, [k]),
            replace_letters({j: f}, shifted(images)),
        ]

    with _rows_made():
        got = run()
    with pairs_only():
        assert got == run()
    spliced = _tuple_derivation(images, source, [k])
    assert got[:4] == [
        _tuple_derivation(images, f),
        _tuple_derivation(images, f) + _tuple_derivation(images, images[-1]),
        images[0] + NCSeries(ring, n, D, {d: b for d, b in spliced.buckets.items() if d <= room}),
        _tuple_derivation(images, f, [k]),
    ]
    if f.term_count() <= 12 and not isinstance(ring, TQuotientRing):
        assert got[4] == _t_residue_route(f, images, j)
    for s in got:
        _assert_stored_clean(s)


@pytest.mark.parametrize(
    "size, counts, positions, block, row",
    [
        # n = 2, d = 4, du = 1: S = 2**4 = 16 slots, and P = size * (4 or 1
        # positions) * the fewest image terms of one letter
        (16, (2, 2), None, 16, True),  # DENSE_BLOCK = S
        (16, (2, 2), None, 17, False),  # DENSE_BLOCK = S + 1
        (16, (2, 2), [2], 16, True),
        (16, (2, 2), [2], 17, False),
        (16, (0, 2), None, 16, False),  # z1 has no image term at du: the fewest is 0
        (16, (2, 0), [2], 16, False),
        (4, (1, 2), None, 16, True),  # P = 16 = S
        (3, (2, 1), None, 16, False),  # P = 12, though z1 alone would make 24
        (16, (1, 2), [2], 16, True),  # P = 16 = S
        (15, (2, 1), [2], 16, False),  # P = 15
    ],
)
def test_a_row_is_made_exactly_when_dense_block_le_s_le_reach_times_fewest(
    size, counts, positions, block, row
):
    n, D, d, du = 2, 6, 4, 1
    images = [
        NCSeries(QQ, n, D, {du: dict.fromkeys(range(c), 1)} if c else {}) for c in counts
    ]
    table = _image_table(images)
    assert [(e, fewest) for e, _, fewest in table] == [(du, min(counts))]
    source = NCSeries(QQ, n, D, {d: dict.fromkeys(range(size), 1)})
    with mock.patch.object(freealg, "DENSE_BLOCK", block), _rows_made() as made:
        got = source._collect(source._splices(table, positions))
    assert [e for e, _, _ in made] == ([d - 1 + du] if row else [])
    assert got == _tuple_derivation(images, source, positions)


def test_a_row_takes_the_axis_with_the_fewest_slice_assignments():
    # n = 2, d = 5, du = 2, four image terms: at position j the hi or lo axis
    # takes min(2**j, 2**(4 - j)) * 4 slices, the image axis one per stored
    # term; a sparse bucket takes the image axis, a full one the other two
    n, D, d, du = 2, 7, 5, 2
    images = [NCSeries(QQ, n, D, {du: {0: 1, 3: 2}})] * n
    table = _image_table(images)
    by_letter = table[0][1]
    slices = []

    def counted(self, key, value):
        if isinstance(key, slice):
            slices.append(key)
        list.__setitem__(self, key, value)

    sparse = {1: 1, 9: 2, 22: 3}
    full = {code: code % 3 + 1 for code in range(n**d)}
    for bucket, j, assignments in [(sparse, 2, 3), (full, 2, 16), (full, 1, 8), (full, 3, 8)]:
        source = NCSeries(QQ, n, D, {d: bucket})
        slices.clear()
        with mock.patch.object(Row, "__setitem__", counted):
            row = source._splice_row(bucket, d, du, by_letter, [j])
        assert len(slices) == assignments, (len(bucket), j)
        with mock.patch.object(freealg, "DENSE_BLOCK", 1):
            got = source._collect([(d - 1 + du, row)])
        assert got == _tuple_derivation(images, source, [j])


def test_a_full_bucket_leaves_in_rows_and_a_sparse_one_in_pairs():
    # n = 2, D = 7: each image holds both letters and the four words of
    # degree 2; on a bucket of degree 5 a full bucket and a quarter-full one
    # leave as one row per image degree, and a sparse one in pairs
    ring, n, D = QQ, 2, 7
    words = [w for d in (1, 2) for w in itertools.product(range(n), repeat=d)]
    images = [NCSeries.from_terms(ring, n, D, [(w, len(w)) for w in words])] * n
    delta = Derivation(images)
    top = list(itertools.product(range(n), repeat=5))
    cases = ((32, [(5, 32, 320), (6, 64, 640)]), (8, [(5, 32, 80), (6, 64, 160)]), (2, []))
    for size, rows in cases:
        f = NCSeries.from_terms(ring, n, D, [(w, 1) for w in top[:size]])
        with _rows_made() as made:
            got = delta.apply(f)
        assert sorted(made) == rows, size
        assert got == _tuple_derivation(images, f)


def test_the_top_layer_of_the_recurrence_sends_its_top_degree_as_rows():
    h = parse_map("x - x*y - y*x\ny - x*x + 2*y*y", QQ, 11, ["x", "y"]).f_map.h_vector()
    terms = n_seq_recurrent(h).terms
    with _rows_made() as made, mock.patch.object(
        NCSeries, "_key_space", side_effect=AssertionError
    ):
        convolution_sum(terms, 10)
    # each [N_k d/dz] N_l, k + l = 10, on each component is one row of the
    # 2**11 keys of degree 11, which the collector adds slot by slot: no pair
    # list is sent, so no count asks for the key space
    assert [(e, slots) for e, slots, _ in made] == [(11, 2048)] * 18
    assert sum(pairs for _, _, pairs in made) == 107328


@pytest.mark.parametrize(
    "run",
    [
        # a q-engines map: n = 2, D = 8, two terms of degree <= 3 per component
        lambda: invert(
            random_displacement(random.Random(11), QQ, 2, 8, max_deg=3, terms=2), engine="tree"
        ),
        # one instance of a t-graded identity: its TSeries splice in pairs
        lambda: run_identity_suite(
            1, trials=1, bounds=SuiteBounds(2, 5, 4), names={"parameter-chain-rule"}
        ),
    ],
    ids=["sparse-tree-inversion", "t-graded-identity"],
)
def test_sparse_and_t_graded_work_makes_no_row(run):
    with _rows_made() as made:
        run()
    assert made == []


#: every word of degree 2 in both components
FULL_QUADRATIC = "x - x*x - x*y - y*x - y*y\ny - x*x - y*x - x*y - 2*y*y"


@pytest.mark.parametrize(
    "text, ring, engine",
    [
        ("x - x*y - y*x\ny - x*x + 2*y*y", QQ, "recurrent"),
        ("x - x*y - y*x\ny - x*x + 2*y*y", QQ, "tree"),
        (FULL_QUADRATIC, PrimeField(3), "charp-direct"),
        (FULL_QUADRATIC, PrimeField(3), "charp-lift"),
        (FULL_QUADRATIC, PrimeField(5), "fixed-point"),
    ],
)
def test_no_row_holds_more_slots_than_the_pairs_it_replaces(text, ring, engine):
    # so a row never takes more memory than the pair list it stands for;
    # each inversion makes rows
    h = parse_map(text, ring, 8, ["x", "y"]).f_map.h_vector()
    with _rows_made() as made:
        g = invert(h, engine=engine)
    assert made
    assert g == invert_fixed_point(h)


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


# -- the two bucket forms of the collector ------------------------------------

#: IntPolyRing's values are ints, TQuotientRing's zero is a truthy tuple
COLLECT_RINGS = (QQ, PrimeField(5), IntPolyRing(), TQuotientRing(QQ, 2))


def _draw_value(data, ring):
    """A small value of ``ring``, zero included."""
    c = ring.from_int(data.draw(st.integers(-2, 2)))
    if isinstance(ring, TQuotientRing):
        c = ring.embed(c[0], data.draw(st.integers(0, ring.torder)))
    return c


def _draw_stream(data, ring, n, D, K):
    """(degree, block) pairs with keys of the t-graded kind at t-order K
    (K = 0: plain words): blocks on both sides of ``DENSE_BLOCK``, and at
    times a block that cancels an earlier one of its degree."""
    stream = []
    for _ in range(data.draw(st.integers(0, 6))):
        if stream and data.draw(st.booleans()):
            d, block = data.draw(st.sampled_from(stream))
            stream.append((d, [(key, ring.neg(c)) for key, c in block]))
            continue
        d = data.draw(st.integers(0, D))
        keys = st.integers(0, n**d * (K + 1) - 1)
        size = data.draw(st.integers(1, 3 * DENSE_BLOCK))
        stream.append((d, [(data.draw(keys), _draw_value(data, ring)) for _ in range(size)]))
    return stream


def _reference_collect(ring, start_buckets, stream):
    """The buckets of ``start_buckets`` plus the pairs of ``stream``, summed
    into plain dicts, with zero sums and empty buckets dropped at the end."""
    acc = {d: dict(b) for d, b in start_buckets.items()}
    for d, block in stream:
        tgt = acc.setdefault(d, {})
        for key, c in block:
            tgt[key] = ring.add(tgt[key], c) if key in tgt else c
    cleaned = {d: {k: c for k, c in b.items() if not ring.is_zero(c)} for d, b in acc.items()}
    return {d: b for d, b in cleaned.items() if b}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_collect_in_either_bucket_form_is_the_dict_sum(data):
    ring = data.draw(st.sampled_from(COLLECT_RINGS))
    K = data.draw(st.sampled_from([0, 2]))
    kind = NCSeries if K == 0 else t_graded(NCSeries, K)
    n = data.draw(st.integers(1, 2))
    D = data.draw(st.integers(0, 4))
    start = None
    if data.draw(st.booleans()):
        start = kind(ring, n, D, _reference_collect(ring, {}, _draw_stream(data, ring, n, D, K)))
    before = {} if start is None else {d: dict(b) for d, b in start.buckets.items()}
    stream = _draw_stream(data, ring, n, D, K)
    got = kind(ring, n, D)._collect(iter(stream), start=start)
    assert type(got) is kind
    assert got.buckets == _reference_collect(ring, before, stream)
    _assert_stored_clean(got)
    if start is not None:
        assert start.buckets == before


# -- GF(p) on the builtin rules ------------------------------------------------

#: small primes, whose sums wrap often, and a 61-bit one, whose products
#: pass a machine word before they are reduced
REDUCED_PRIMES = (2, 3, 5, 2**61 - 1)


@st.composite
def integral_series(draw, n, D, min_deg):
    """A QQ series of int coefficients, small or past 2**64, on drawn words
    of degree ``min_deg`` to D, and at times on every word of one degree,
    so that dense buckets and rows are drawn too."""
    if D < min_deg:
        return NCSeries.zero(QQ, n, D)
    words = st.lists(st.integers(0, n - 1), min_size=min_deg, max_size=D).map(tuple)
    values = st.one_of(st.integers(-6, 6), st.integers(-(2**80), 2**80))
    terms = draw(st.lists(st.tuples(words, values), max_size=8))
    if draw(st.integers(0, 3)) == 0:
        d = draw(st.integers(min_deg, D))
        rng = random.Random(draw(st.integers(0, 2**32)))
        terms += [(w, rng.randint(-(2**70), 2**70)) for w in itertools.product(range(n), repeat=d)]
    return NCSeries.from_terms(QQ, n, D, terms)


def _assert_reduced(s, p):
    """Every stored coefficient is a residue in [1, p)."""
    for bucket in s.buckets.values():
        assert all(type(c) is int and 0 < c < p for c in bucket.values()), bucket


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_gfp_kernels_are_the_qq_kernels_reduced_mod_p(data):
    # the pair kernels multiply GF(p) residues unreduced and the collector
    # reduces each sum once: every kernel over PrimeField(p) must give the
    # same operation over QQ on the integer lifts, reduced mod p
    p = data.draw(st.sampled_from(REDUCED_PRIMES))
    field = PrimeField(p)
    n = data.draw(st.integers(1, 3))
    D = data.draw(st.integers(0, (7, 6, 4)[n - 1]))

    def reduced(s):
        return s.map_coefficients(field.from_int, new_ring=field)

    a, b = (data.draw(integral_series(n, D, 0)) for _ in range(2))
    images = [data.draw(integral_series(n, D, 0)) for _ in range(n)]
    f_map = FormalMap([data.draw(integral_series(n, D, 1)) for _ in range(n)])
    fp_map = FormalMap([reduced(c) for c in f_map.components])
    inputs = {j: data.draw(integral_series(n, D, 0)) for j in data.draw(st.sets(st.integers(0, 4)))}
    pairs = [
        (a * b, reduced(a) * reduced(b)),
        (Derivation(images).apply(a), Derivation([reduced(u) for u in images]).apply(reduced(a))),
        (compose(a, f_map), compose(reduced(a), fp_map)),
        (
            replace_letters(inputs, f_map),
            replace_letters({j: reduced(u) for j, u in inputs.items()}, fp_map),
        ),
    ]
    for over_qq, over_field in pairs:
        assert over_field == reduced(over_qq)
        _assert_reduced(over_field, p)


def test_from_terms_over_gfp_stores_residues():
    # the dict loop reduces every sum mod p, a term's first one included, so
    # an int outside [0, p) is stored as its residue and a multiple of p not
    s = NCSeries.from_terms(PrimeField(3), 1, 3, [((0,), 7), ((0, 0), -1), ((0, 0, 0), 3)])
    assert s.buckets == {1: {0: 1}, 2: {0: 2}}


class _ZeroCountingQQ(RationalField):
    """QQ that counts its calls of ``zero()``: ``_collect`` makes one call
    per bucket that it moves into a list, to fill the list."""

    def __init__(self):
        self.zeros = 0

    def zero(self):
        self.zeros += 1
        return 0


def test_a_collect_of_small_blocks_never_asks_for_the_key_space():
    # 150 pairs on the one key of degree 3 in one letter, all in blocks
    # below the switch: the dict takes them, and no key space is asked for
    blocks = [(3, [(0, 1)] * (DENSE_BLOCK - 1)) for _ in range(10)]
    with mock.patch.object(NCSeries, "_key_space", side_effect=AssertionError):
        got = NCSeries(QQ, 1, 3)._collect(iter(blocks))
    assert got.buckets == {3: {0: 10 * (DENSE_BLOCK - 1)}}


@pytest.mark.parametrize("K", [None, 0, 2])
@pytest.mark.parametrize("n, d", [(1, 3), (2, 4), (3, 2), (2, 0)])
def test_key_space_is_one_past_the_largest_stored_key(K, n, d):
    kind = NCSeries if K is None else t_graded(NCSeries, K)
    s = kind(QQ, n, d)
    space = s._key_space(d)
    words = list(itertools.product(range(n), repeat=d))
    keys = words if K is None else [(w, t) for w in words for t in range(K + 1)]
    # the keys of degree d are exactly 0 .. space - 1
    assert sorted(s._key_in(key) for key in keys) == list(range(space))
    largest = (n - 1,) * d if K is None else ((n - 1,) * d, K)
    assert list(s._keys_out([space - 1], d)) == [largest]


@pytest.mark.parametrize("kind", [CommPoly, t_graded(CommPoly, 1)])
def test_commpoly_never_collects_a_bucket_as_a_list(kind):
    ring = _ZeroCountingQQ()
    unit = kind._unit_key(2, 0)
    # 320 pairs on one key of degree 1: far more than the keys of degree 1
    blocks = [(1, [(unit, 1)] * (4 * DENSE_BLOCK)) for _ in range(5)]
    got = kind(ring, 2, 3)._collect(iter(blocks))
    assert got.buckets == {1: {unit: 20 * DENSE_BLOCK}}
    assert ring.zeros == 0


@pytest.mark.parametrize("K", [None, 2])
def test_a_map_builds_its_image_table_once(K):
    rng = random.Random(11)
    h = random_displacement(rng, QQ, 2, 5)
    f_map = FormalMap.f_form(h if K is None else [embed_series(c, K, 1) for c in h])
    vector = list(f_map.components)
    expect = compose_vector(vector, f_map)
    table = f_map.image_table()
    with mock.patch.object(freealg, "_image_table", side_effect=AssertionError):
        assert compose_vector(vector, f_map) == expect
        assert f_map.image_table() is table
        # a cache that compose is given still holds the table under ()
        cache = {}
        assert compose(vector[0], f_map, cache) == expect[0]
        assert cache == {(): table}


def test_repr_prints_words_as_z_letters():
    s = NCSeries.from_terms(QQ, 2, 3, [((), 2), ((1, 0), -1), ((0, 0, 1), 3)])
    assert repr(s) == "NCSeries(2*1, -1*z2z1, 3*z1z1z2; n=2, D=3)"
    assert repr(NCSeries.zero(QQ, 2, 3)) == "NCSeries(0; n=2, D=3)"
