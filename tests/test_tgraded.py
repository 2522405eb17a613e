"""The t-graded series kinds against the coefficient-tuple ring.

``TQuotientRing`` is the oracle: an NCSeries (or CommPoly) whose
coefficients are tuples over R[t]/(t^(K+1)), lifted term by term into the
t-graded kind, must give the same series as the t-graded kind's own
arithmetic and key maps.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncinvert.commutative import CommPoly
from ncinvert.deformation import (
    DeformedMap,
    embed_series,
    shift_down_series,
    t_derivative_series,
    t_graded,
    t_residue_series,
    t_truncate_series,
)
from ncinvert.freealg import Derivation, FormalMap, NCSeries, compose
from ncinvert.randmaps import random_deformed_displacement
from ncinvert.rings import QQ, PrimeField, TQuotientRing
from ncinvert.suite import SuiteBounds, run_identity_suite

BASES = (QQ, PrimeField(3))


def lift(series):
    """A series over TQuotientRing(base, K) as the t-graded kind over base:
    the term w with coefficient (c_0, ..., c_K) becomes the terms (w, j)."""
    tring = series.ring
    base = tring.base
    return t_graded(type(series), tring.torder).from_terms(
        base, series.arity, series.degree,
        [
            ((key, j), c)
            for key, cs in series.terms()
            for j, c in enumerate(cs)
            if not base.is_zero(c)
        ],
    )


@st.composite
def tq_coefficient(draw, tring, min_t=0):
    # sparse tuples: most t-slots are 0, as in the deformation checks
    base = tring.base
    slot = st.one_of(st.just(0), st.just(0), st.integers(-2, 2))
    values = [0] * min_t + [draw(slot) for _ in range(tring.torder + 1 - min_t)]
    return tuple(base.from_int(v) for v in values)


@st.composite
def tq_series(draw, tring, n, D, min_deg=0, min_t=0, kind=NCSeries):
    if min_deg > D:
        return kind.zero(tring, n, D)
    if kind is CommPoly:
        keys = st.lists(st.integers(0, D), min_size=n, max_size=n).map(tuple).filter(
            lambda e: min_deg <= sum(e) <= D
        )
    else:
        keys = st.lists(st.integers(0, n - 1), min_size=min_deg, max_size=D).map(tuple)
    terms = draw(st.lists(st.tuples(keys, tq_coefficient(tring, min_t)), max_size=6))
    return kind.from_terms(tring, n, D, terms)


@st.composite
def setting(draw):
    base = draw(st.sampled_from(BASES))
    K = draw(st.integers(0, 4))
    return TQuotientRing(base, K), draw(st.integers(1, 3)), draw(st.integers(0, 5))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_lifting_commutes_with_sum_product_derivation_and_compose(data):
    tring, n, D = data.draw(setting())
    a, b = (data.draw(tq_series(tring, n, D)) for _ in range(2))
    assert lift(a + b) == lift(a) + lift(b)
    assert lift(a * b) == lift(a) * lift(b)
    comps = [data.draw(tq_series(tring, n, D, min_deg=1)) for _ in range(n)]
    delta = Derivation(comps)
    assert lift(delta.apply(a)) == Derivation([lift(c) for c in comps]).apply(lift(a))
    f_map = FormalMap(comps)
    assert lift(compose(a, f_map)) == compose(lift(a), FormalMap([lift(c) for c in comps]))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_lifting_commutes_with_the_key_maps(data):
    tring, n, D = data.draw(setting())
    base, K = tring.base, tring.torder
    a = data.draw(tq_series(tring, n, D))
    s = lift(a)

    k = data.draw(st.integers(0, K + 1))
    plain = t_residue_series(s, 0)
    assert embed_series(plain, K, k) == lift(
        plain.map_coefficients(lambda c: tring.embed(c, k), new_ring=tring)
    )
    with pytest.raises(ValueError, match=r"t\^-1"):
        embed_series(plain, K, -1)
    with pytest.raises(ValueError, match=r"t\^-1"):
        tring.embed(base.one(), -1)

    for j in range(K + 1):
        assert t_residue_series(s, j) == a.map_coefficients(
            lambda c: tring.residue_at(c, j), new_ring=base
        )
    with pytest.raises(ValueError, match="out of range"):
        t_residue_series(s, K + 1)

    assert t_derivative_series(s) == lift(a.map_coefficients(tring.t_derivative))

    for small in range(K + 1):
        assert t_truncate_series(s, small) == lift(
            a.map_coefficients(
                lambda c: tring.restrict(c, small), new_ring=TQuotientRing(base, small)
            )
        )
    with pytest.raises(ValueError, match="cannot extend"):
        t_truncate_series(s, K + 1)

    divisible = data.draw(tq_series(tring, n, D, min_t=1))
    assert shift_down_series(lift(divisible)) == lift(
        divisible.map_coefficients(tring.shift_down)
    )
    if not plain.is_zero():
        with pytest.raises(ValueError, match="t\\^0 is nonzero"):
            shift_down_series(s)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_lifting_commutes_with_the_commutative_product_and_partials(data):
    tring, n, D = data.draw(setting())
    a, b = (data.draw(tq_series(tring, n, D, kind=CommPoly)) for _ in range(2))
    assert lift(a * b) == lift(a) * lift(b)
    for i in range(n):
        assert lift(a.partial(i)) == lift(a).partial(i)


def test_kinds_at_two_t_orders_are_refused_where_they_meet():
    x = NCSeries.variable(QQ, 1, 3, 0)
    for op in (lambda a, b: a + b, lambda a, b: a * b):
        with pytest.raises(ValueError, match=r"TSeries\[K=2\] with TSeries\[K=3\]"):
            op(embed_series(x, 2), embed_series(x, 3))
    # K travels with the kind through _collect, map_coefficients and truncated
    s = embed_series(x, 2, 1)
    kind = t_graded(NCSeries, 2)
    assert type(s) is kind and s.torder == 2
    assert type(s + s) is type(s * s) is type(-s) is type(s.truncated(1)) is kind
    assert (s * s).coefficient(((0, 0), 2)) == 1 and (s * s * s).is_zero()
    with pytest.raises(ValueError, match=r"TSeries\[K=2\] has no t-graded kind"):
        embed_series(s, 3)


# -- the work pin: no t-ring value call on the identity checks ----------------

T_IDENTITIES = (
    "pushforward-swap",
    "inverse-flow-identities",
    "substitution-flow",
    "parameter-chain-rule",
    "inversion-pde",
    "special-composition-readback",
    "deformation-generators",
    "transport-pde",
    "sequence-recursion",
    "commutative-pde",
)


def test_identities_with_t_make_no_t_ring_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("a t-ring value call")

    monkeypatch.setattr(TQuotientRing, "mul", refuse)
    monkeypatch.setattr(TQuotientRing, "add", refuse)
    bounds = SuiteBounds(max_arity=2, max_degree=5, max_torder=4)
    results = run_identity_suite(11, trials=1, bounds=bounds, names=set(T_IDENTITIES))
    assert sorted(r.name for r in results) == sorted(T_IDENTITIES)
    assert all(r.ok for r in results), [r.name for r in results if not r.ok]


# terms of random_deformed_displacement, lifted to (word, t-power), and the
# SHA-256 of repr(rng.getstate()) after the draw, as the tuple ring gave them
DRAWN = {
    (5, "QQ", 2, 5, 3): (
        [
            [(((0, 0), 0), -3), (((0, 0, 0), 2), 2), (((0, 0, 0), 3), 4), (((1, 0, 1), 0), 3),
             (((1, 1), 2), -2)],
            [(((0, 0), 0), -2), (((0, 0), 1), -1), (((0, 1, 1), 2), 3), (((1, 0), 2), -1),
             (((1, 1), 0), -2), (((1, 1), 1), -2)],
        ],
        "e742a0fadafc15af97d68df2e414d021f659d68b2bf89e6cc362f416c67fd40c",
    ),
    (17, "GF3", 3, 4, 4): (
        [
            [(((0, 0, 0), 0), 2), (((0, 2), 2), 1), (((1, 1, 1), 0), 1), (((1, 2, 1), 1), 2),
             (((2, 0), 1), 1), (((2, 0, 2), 2), 1)],
            [(((0, 0, 2), 1), 1), (((0, 1, 0), 2), 2), (((0, 1, 1), 0), 1), (((0, 1, 1), 1), 1),
             (((2, 2), 2), 1), (((2, 2, 0), 0), 2)],
            [(((0, 1), 4), 1), (((1, 0, 0), 0), 2), (((1, 0, 1), 0), 1), (((1, 0, 2), 2), 2),
             (((1, 1), 4), 2), (((2, 0, 2), 2), 1)],
        ],
        "ed324ed8eb2559407ce0be4c6c769c3998d3e889667da9d2ff6b904b3eb43967",
    ),
}


@pytest.mark.parametrize("case", sorted(DRAWN), ids=str)
def test_random_deformed_displacement_draws_as_before(case):
    seed, ring_name, n, D, K = case
    terms, state = DRAWN[case]
    rng = random.Random(seed)
    ring = {"QQ": QQ, "GF3": PrimeField(3)}[ring_name]
    h_t = random_deformed_displacement(rng, ring, n, D, K)
    assert [type(s) for s in h_t] == [t_graded(NCSeries, K)] * n
    assert [sorted(s.terms()) for s in h_t] == terms
    assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == state


# -- the failure path: a wrong inverse names the term ---------------------------


def test_deformed_map_refuses_a_wrong_inverse_naming_the_term():
    h_t = random_deformed_displacement(random.Random(5), QQ, 2, 5, 3)
    m_t = DeformedMap(h_t).m_t
    bump = embed_series(NCSeries.from_terms(QQ, 2, 5, [((0, 1), 1)]), 3, 2)
    with pytest.raises(AssertionError) as caught:
        DeformedMap(h_t, m_t=(m_t[0], m_t[1] + bump))
    assert str(caught.value) == (
        "deformed inverse failed verification: "
        "residual in F(G), component 2: 1 * z1z2 * t^2 at degree 2"
    )
