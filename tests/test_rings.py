"""Ring axioms and the exactness contracts of every coefficient ring."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncinvert.freealg import NCSeries
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
    return ring.embed(ring.base.one(), k)


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
    assert reduce(GF5.mul, [a] * 5) == a


@pytest.mark.parametrize("a", range(3))
def test_gf3_fermat(a):
    assert reduce(GF3.mul, [a] * 3) == a


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
    # the rings differ, so series over them are refused where they meet
    R2 = TQuotientRing(QQ, 2)
    R3 = TQuotientRing(QQ, 3)
    with pytest.raises(ValueError, match="coefficient rings differ"):
        NCSeries.one(R2, 1, 2) + NCSeries.one(R3, 1, 2)
    assert R2 != R3
    assert R2 == TQuotientRing(QQ, 2)


def test_shift_down_requires_zero_lower_coefficients():
    R = TQuotientRing(QQ, 3)
    assert R.shift_down(R.embed(4, 2)) == R.embed(4, 1)
    assert R.shift_down(R.embed(4, 3)) == R.embed(4, 2)
    assert R.shift_down(R.zero()) == R.zero()
    with pytest.raises(ValueError, match=r"t\^0 is nonzero"):
        R.shift_down(R.one())


def test_equality_hash_and_repr_come_from_the_constructor_arguments():
    rings = [QQ, IntPolyRing(), GF5, GF3, TQuotientRing(QQ, 2), TQuotientRing(GF5, 2)]
    assert [repr(r) for r in rings] == [
        "RationalField()",
        "IntPolyRing()",
        "PrimeField(5)",
        "PrimeField(3)",
        "TQuotientRing(RationalField(), 2)",
        "TQuotientRing(PrimeField(5), 2)",
    ]
    for i, a in enumerate(rings):
        for j, b in enumerate(rings):
            assert (a == b) == (i == j), (a, b)
    # a subclass with the same arguments is another ring
    assert IntPolyRing() != QQ
    assert PrimeField(5) == GF5 and hash(PrimeField(5)) == hash(GF5)
    assert TQuotientRing(QQ, 2) == TQuotientRing(QQ, 2)
    assert hash(TQuotientRing(QQ, 2)) == hash(TQuotientRing(QQ, 2))


def test_restrict():
    R = TQuotientRing(QQ, 3)
    x = (Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    assert R.restrict(x, 1) == (Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        R.restrict(x, 5)


# -- value rules held as C builtins -----------------------------------------------


def test_is_zero_is_true_exactly_on_zero():
    for zero in (0, Fraction(0, 5), Fraction(1, 3) - Fraction(1, 3)):
        assert QQ.is_zero(zero) is True
    for nonzero in (1, -2, Fraction(1, 3), Fraction(-(10**30), 7)):
        assert QQ.is_zero(nonzero) is False
    for ring in (GF5, GF3):
        p = ring.characteristic
        residues = [ring.from_int(k) for k in range(-2 * p, 2 * p)]
        assert [ring.is_zero(r) for r in residues] == [k % p == 0 for k in range(-2 * p, 2 * p)]


def test_rational_add_neg_and_mul():
    total = QQ.add(Fraction(1, 2), Fraction(1, 2))
    assert total == 1 and total.denominator == 1
    assert QQ.neg(Fraction(-3, 7)) == Fraction(3, 7)
    assert QQ.neg(5) == -5
    assert QQ.mul(3, Fraction(2, 9)) == QQ.mul(Fraction(2, 9), 3) == Fraction(2, 3)
    assert type(QQ.mul(4, -5)) is int
    # the integer lift takes the rules it inherits and keeps its own mul
    R = IntPolyRing()
    assert R.add(R.neg(6), R.mul(2, 3)) == 0 and R.is_zero(0)


def test_collect_drops_a_key_whose_fractions_cancel():
    third = Fraction(1, 3)
    s = NCSeries.from_terms(QQ, 2, 3, [((0, 1), third), ((1,), 2), ((0, 1), -third)])
    assert s.buckets == {1: {1: 2}}
    x = NCSeries.from_terms(QQ, 2, 3, [((0, 1), third), ((1, 1, 0), Fraction(-2, 7))])
    assert (x - x).buckets == {}


# -- the integer lift ring ----------------------------------------------------


def test_intpoly_exact_division():
    R = IntPolyRing()
    assert R.div_by_int(-42, 6) == -7
    assert R.div_by_int(0, 5) == 0
    assert type(R.div_by_int(10**30, 10**10)) is int
    # a remainder means the lift left the integers: a failed check, not a Fraction
    with pytest.raises(AssertionError, match="charp-lift: .*7 is not divisible by 2"):
        R.div_by_int(7, 2)
    with pytest.raises(ZeroDivisionError):
        R.div_by_int(7, 0)
    assert R == IntPolyRing() and R != QQ and QQ != R


def test_ring_to_string_forms():
    assert QQ.to_string(Fraction(-3, 7)) == "-3/7"
    assert QQ.to_string(Fraction(4, 2)) == "2"
    assert GF5.to_string(GF5.from_int(-1)) == "4"
    R = TQuotientRing(QQ, 2)
    assert R.to_string((Fraction(1, 2), Fraction(0), Fraction(-3))) == "[1/2, 0, -3]"
