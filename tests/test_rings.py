"""Ring axioms and the exactness contracts of every coefficient ring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncinvert.rings import QQ, IntPolyRing, PrimeField, TQuotientRing

GF5 = PrimeField(5)
GF3 = PrimeField(3)


def rationals():
    return st.fractions(max_denominator=10**4).map(Fraction)


def gf5_elements():
    return st.integers(min_value=0, max_value=4)


@st.composite
def tq_elements(draw, base=QQ, torder=3):
    if base.characteristic == 0:
        coeff = st.integers(min_value=-50, max_value=50).map(Fraction)
    else:
        coeff = st.integers(min_value=0, max_value=base.characteristic - 1)
    return tuple(draw(coeff) for _ in range(torder + 1))


def t_power(ring, k):
    return ring.times_t(ring.one(), k)


TQ3 = TQuotientRing(QQ, 3)


@pytest.mark.parametrize(
    "ring,sample",
    [
        (QQ, [Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(22, 5)]),
        (GF5, [0, 1, 2, 3, 4]),
        (TQ3, [TQ3.from_int(2), t_power(TQ3, 1), t_power(TQ3, 3), TQ3.from_int(-1)]),
    ],
)
def test_ring_axioms_on_samples(ring, sample):
    for a in sample:
        for b in sample:
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.mul(a, b) == ring.mul(b, a)
            assert ring.add(a, ring.neg(a)) == ring.zero()
            assert ring.mul(a, ring.one()) == a
            for c in sample:
                assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
                assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
                assert ring.mul(a, ring.add(b, c)) == ring.add(
                    ring.mul(a, b), ring.mul(a, c)
                )


@given(rationals(), rationals(), rationals())
def test_rational_axioms_random(a, b, c):
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.mul(a, b) == QQ.mul(b, a)


@given(gf5_elements(), gf5_elements(), gf5_elements())
def test_gf5_axioms_random(a, b, c):
    assert GF5.add(GF5.add(a, b), c) == GF5.add(a, GF5.add(b, c))
    assert GF5.mul(a, GF5.add(b, c)) == GF5.add(GF5.mul(a, b), GF5.mul(a, c))
    assert GF5.mul(a, b) == GF5.mul(b, a)


@given(tq_elements(), tq_elements(), tq_elements())
@settings(max_examples=50)
def test_tquotient_axioms_random(a, b, c):
    R = TQ3
    assert R.add(R.add(a, b), c) == R.add(a, R.add(b, c))
    assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
    assert R.mul(a, b) == R.mul(b, a)


def test_characteristics():
    assert QQ.characteristic == 0
    assert GF5.characteristic == 5
    assert TQuotientRing(GF5, 2).characteristic == 5
    assert TQuotientRing(QQ, 2).characteristic == 0
    assert IntPolyRing().characteristic == 0


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_modulus_check_matches_trial_division():
    def trial(p):
        return p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))

    for p in range(3000):
        if trial(p):
            assert PrimeField(p).p == p
        else:
            with pytest.raises(ValueError):
                PrimeField(p)


def test_prime_field_large_moduli():
    assert PrimeField(2**61 - 1).characteristic == 2**61 - 1
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(2147483647 * 2147483629)
    # a strong pseudoprime to every prime base up to 37
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(318665857834031151167461)
    with pytest.raises(ValueError, match="too large"):
        PrimeField(3317044064679887385961981)


@pytest.mark.parametrize("a", range(5))
def test_gf5_fermat(a):
    assert GF5.pow(a, 5) == a


@pytest.mark.parametrize("a", range(3))
def test_gf3_fermat(a):
    assert GF3.pow(a, 3) == a


def test_div_by_int_roundtrip():
    for ring, values, ms in [
        (QQ, [Fraction(3, 7), Fraction(-2)], [2, 3, -5]),
        (GF5, [1, 2, 3], [1, 2, 3, 4, 6]),
        (TQ3, [t_power(TQ3, 1), TQ3.from_int(7)], [2, -3]),
    ]:
        for x in values:
            for m in ms:
                assert ring.div_by_int(ring.mul_int(x, m), m) == x


def test_gf_div_by_multiple_of_p_fails():
    with pytest.raises(ZeroDivisionError):
        GF5.div_by_int(3, 5)
    with pytest.raises(ZeroDivisionError):
        GF5.div_by_int(3, 10)
    assert GF5.div_by_int(3, 6) == 3  # 6 = 1 mod 5


# -- t-quotient specifics ---------------------------------------------------


def test_t_derivative_power_rule():
    # 1 + 2t + 3t^2 -> 2 + 6t
    R = TQuotientRing(QQ, 2)
    x = (Fraction(1), Fraction(2), Fraction(3))
    assert R.t_derivative(x) == (Fraction(2), Fraction(6), Fraction(0))


def test_t_derivative_constant():
    R = TQuotientRing(QQ, 4)
    assert R.t_derivative(R.from_int(9)) == R.zero()


def test_t_derivative_char5_kills_t5():
    R = TQuotientRing(GF5, 5)
    assert R.t_derivative(t_power(R, 5)) == R.zero()


def test_residue_at():
    R = TQuotientRing(QQ, 2)
    x = (Fraction(1), Fraction(2), Fraction(3))
    assert R.residue_at(x, 1) == Fraction(2)
    assert R.residue_at(R.zero(), 0) == Fraction(0)
    K = 4
    R2 = TQuotientRing(QQ, K)
    assert R2.residue_at(t_power(R2, K), K) == Fraction(1)
    with pytest.raises(ValueError):
        R.residue_at(x, 3)
    with pytest.raises(ValueError):
        R.residue_at(x, -1)


@given(tq_elements(), tq_elements())
@settings(max_examples=50)
def test_tquotient_product_convolution(a, b):
    R = TQ3
    prod = R.mul(a, b)
    for j in range(R.torder + 1):
        conv = sum(
            (R.residue_at(a, i) * R.residue_at(b, j - i) for i in range(j + 1)),
            Fraction(0),
        )
        assert R.residue_at(prod, j) == conv


def test_tquotient_truncates_product():
    R = TQuotientRing(QQ, 2)
    t = t_power(R, 1)
    t2 = R.mul(t, t)
    assert t2 == t_power(R, 2)
    assert R.mul(t2, t) == R.zero()


def test_tquotient_rejects_mixed_torders():
    R2 = TQuotientRing(QQ, 2)
    R3 = TQuotientRing(QQ, 3)
    with pytest.raises(ValueError):
        R2.add(R2.one(), R3.one())
    assert R2 != R3
    assert R2 == TQuotientRing(QQ, 2)


def test_shift_down_requires_zero_lower_coefficients():
    R = TQuotientRing(QQ, 3)
    x = R.times_t(R.from_int(4), 2)
    assert R.shift_down(x, 2) == R.from_int(4)
    with pytest.raises(ValueError):
        R.shift_down(R.one(), 1)


def test_restrict():
    R = TQuotientRing(QQ, 3)
    x = (Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    assert R.restrict(x, 1) == (Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        R.restrict(x, 5)


# -- integer polynomial lift ring -------------------------------------------


def test_intpoly_variables_interned_by_key():
    R = IntPolyRing()
    a1 = R.variable(("c1", (0, 1)))
    a2 = R.variable(("c1", (1, 0)))
    again = R.variable(("c1", (0, 1)))
    assert a1 == again
    assert a1 != a2
    # two variables interned so far: the next key gets index 2
    assert R.variable(("c2", (1, 1))) == {(2,): 1}


def test_intpoly_commutative_lift():
    R = IntPolyRing()
    a = R.variable("a")
    b = R.variable("b")
    assert R.sub(R.mul(a, b), R.mul(b, a)) == R.zero()


def test_intpoly_arithmetic_and_strings():
    R = IntPolyRing()
    a = R.variable("a")
    b = R.variable("b")
    p = R.add(R.mul_int(R.mul(a, a), 3), R.neg(b))
    assert R.to_string(p) == "3*A1^2 - A2"
    assert R.to_string(R.zero()) == "0"
    assert R.to_string(R.from_int(-7)) == "-7"
    q = R.mul(p, p)
    # (3a^2 - b)^2 = 9a^4 - 6a^2 b + b^2
    expect = R.add(
        R.add(R.mul_int(R.pow(a, 4), 9), R.mul_int(R.mul(R.mul(a, a), b), -6)),
        R.mul(b, b),
    )
    assert q == expect


def test_intpoly_exact_division():
    R = IntPolyRing()
    a = R.variable("a")
    p = R.mul_int(a, 6)
    assert R.div_by_int(p, 3) == R.mul_int(a, 2)
    with pytest.raises(ZeroDivisionError):
        R.div_by_int(R.add(p, R.one()), 3)


def test_evaluate_mod_p_examples():
    R = IntPolyRing()
    a = R.variable("a")
    # q = 7*A, A -> 3, p = 5: 21 mod 5 = 1
    q = R.mul_int(a, 7)
    assert R.evaluate_mod_p(q, {"a": 3}, GF5) == 1
    assert R.evaluate_mod_p(R.zero(), {}, GF5) == 0
    b = R.variable("b")
    comm = R.sub(R.mul(a, b), R.mul(b, a))
    assert R.evaluate_mod_p(comm, {"a": 2, "b": 4}, GF5) == 0


def test_evaluate_mod_p_missing_assignment():
    R = IntPolyRing()
    a = R.variable("a")
    with pytest.raises(KeyError):
        R.evaluate_mod_p(a, {}, GF5)


# A reference for the lift ring in the other monomial format: a monomial as
# the sorted (variable index, exponent) pairs, multiplied by adding exponents.


@st.composite
def pair_polys(draw):
    """A lift polynomial in four variables as {pair monomial: int}."""
    terms = draw(st.lists(
        st.tuples(st.lists(st.integers(0, 3), max_size=4), st.integers(-5, 5)), max_size=5,
    ))
    out = {}
    for indices, c in terms:
        mono = tuple((v, indices.count(v)) for v in sorted(set(indices)))
        out[mono] = out.get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


def ref_add(p, q):
    out = dict(p)
    for mono, c in q.items():
        out[mono] = out.get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


def ref_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            out = ref_add(out, {tuple(sorted(exps.items())): c1 * c2})
    return out


def ref_to_string(p):
    parts = []
    for mono, c in sorted(p.items()):
        factors = "*".join(f"A{v + 1}" + (f"^{e}" if e > 1 else "") for v, e in mono)
        if not factors:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(("-" if c < 0 else "") + factors)
        else:
            parts.append(f"{c}*{factors}")
    return " + ".join(parts).replace(" + -", " - ") or "0"


def ref_evaluate(p, values, prime):
    total = 0
    for mono, c in p.items():
        for v, e in mono:
            c *= values[v] ** e
        total += c
    return total % prime


def from_pairs(p):
    """The lift ring's value: each variable index repeated by its exponent."""
    return {tuple(v for v, e in mono for _ in range(e)): c for mono, c in p.items()}


@settings(max_examples=200, deadline=None)
@given(pair_polys(), pair_polys(), st.lists(gf5_elements(), min_size=4, max_size=4))
def test_intpoly_matches_exponent_pair_reference(p, q, values):
    R = IntPolyRing()
    keys = ["a", "b", "c", "d"]
    for key in keys:
        R.variable(key)
    assignment = dict(zip(keys, values))
    a, b = from_pairs(p), from_pairs(q)
    for got, ref in ((a, p), (R.add(a, b), ref_add(p, q)), (R.mul(a, b), ref_mul(p, q))):
        assert got == from_pairs(ref)
        assert R.to_string(got) == ref_to_string(ref)
        assert R.evaluate_mod_p(got, assignment, GF5) == ref_evaluate(ref, values, 5)


def test_ring_serialization_roundtrip():
    assert QQ.from_string(QQ.to_string(Fraction(-3, 7))) == Fraction(-3, 7)
    assert GF5.from_string(GF5.to_string(4)) == 4
    R = TQuotientRing(QQ, 2)
    x = (Fraction(1, 2), Fraction(0), Fraction(-3))
    assert R.from_string(R.to_string(x)) == x
