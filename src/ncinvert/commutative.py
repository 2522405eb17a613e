"""The abelianization quotient: commutative images of everything above.

Sending each word to its exponent vector collapses the free algebra onto
ordinary commutative polynomials; commutators die, and the letterwise
derivation calculus collapses onto the classical Jacobian calculus.  This
module keeps the commutative side honest as an independent check: the
iterated sequence C_m abelianizes to (JH)^(m-1) H, inverses stay inverses,
and the inverse-flow PDE becomes dN_t/dt = (J N_t) N_t.
"""

from __future__ import annotations

from .deformation import solves_cauchy_problem, special_inverse
from .freealg import NCSeries
from .rings import _accumulate


class CommPoly:
    """A truncated commutative polynomial keyed by exponent vectors."""

    __slots__ = ("ring", "arity", "degree", "terms")

    def __init__(self, ring, arity, degree, terms=None):
        self.ring = ring
        self.arity = arity
        self.degree = degree
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls, ring, arity, degree):
        return cls(ring, arity, degree)

    @classmethod
    def constant(cls, ring, arity, degree, c):
        p = cls(ring, arity, degree)
        if not ring.is_zero(c):
            p.terms[(0,) * arity] = c
        return p

    @classmethod
    def one(cls, ring, arity, degree):
        return cls.constant(ring, arity, degree, ring.one())

    @classmethod
    def variable(cls, ring, arity, degree, i):
        if not 0 <= i < arity:
            raise ValueError(f"variable index {i} out of range")
        p = cls(ring, arity, degree)
        if degree >= 1:
            expo = [0] * arity
            expo[i] = 1
            p.terms[tuple(expo)] = ring.one()
        return p

    @classmethod
    def from_terms(cls, ring, arity, degree, pairs):
        p = cls(ring, arity, degree)
        for expo, c in pairs:
            expo = tuple(expo)
            if len(expo) != arity:
                raise ValueError("exponent vector has wrong length")
            if sum(expo) > degree:
                raise ValueError("total degree exceeds truncation")
            _accumulate(p.terms, ((expo, c),), ring.add, ring.is_zero)
        return p

    def _check_compatible(self, other):
        if self.ring != other.ring or self.arity != other.arity or self.degree != other.degree:
            raise ValueError("commutative polynomials are not compatible")

    def is_zero(self):
        return not self.terms

    def order(self):
        if not self.terms:
            return float("inf")
        return min(sum(e) for e in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __eq__(self, other):
        if not isinstance(other, CommPoly):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.arity == other.arity
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __repr__(self):
        parts = [
            f"{self.ring.to_string(c)}*x^{list(e)}" for e, c in self.sorted_terms()
        ]
        return f"CommPoly({' + '.join(parts) or '0'}; n={self.arity}, D={self.degree})"

    def __add__(self, other):
        self._check_compatible(other)
        ring = self.ring
        terms = _accumulate(dict(self.terms), other.terms.items(), ring.add, ring.is_zero)
        return CommPoly(ring, self.arity, self.degree, terms)

    def __neg__(self):
        neg = self.ring.neg
        return CommPoly(
            self.ring, self.arity, self.degree,
            {e: neg(c) for e, c in self.terms.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        ring = self.ring
        if ring.is_zero(c):
            return CommPoly.zero(ring, self.arity, self.degree)
        mul = ring.mul
        is_zero = ring.is_zero
        terms = {}
        for e, x in self.terms.items():
            v = mul(c, x)
            if not is_zero(v):
                terms[e] = v
        return CommPoly(ring, self.arity, self.degree, terms)

    def scale_int(self, n):
        return self.scale(self.ring.from_int(n))

    def __mul__(self, other):
        self._check_compatible(other)
        ring = self.ring
        mul = ring.mul
        D = self.degree
        pairs = (
            (tuple(a + b for a, b in zip(e1, e2)), mul(c1, c2))
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
            if sum(e1) + sum(e2) <= D
        )
        return CommPoly(ring, self.arity, D, _accumulate({}, pairs, ring.add, ring.is_zero))

    def __pow__(self, k):
        """Square-and-multiply; zero at once when order * k exceeds D."""
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k and self.order() * k > self.degree:
            return CommPoly.zero(self.ring, self.arity, self.degree)
        out = CommPoly.one(self.ring, self.arity, self.degree)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def partial(self, i):
        """d/dx_i with the classical power rule."""
        ring = self.ring
        pairs = (
            (e[:i] + (e[i] - 1,) + e[i + 1 :], ring.mul_int(c, e[i]))
            for e, c in self.terms.items()
            if e[i]
        )
        return CommPoly(
            ring, self.arity, self.degree, _accumulate({}, pairs, ring.add, ring.is_zero)
        )

    def map_coefficients(self, func, new_ring=None):
        ring = new_ring if new_ring is not None else self.ring
        is_zero = ring.is_zero
        terms = {}
        for e, c in self.terms.items():
            v = func(c)
            if not is_zero(v):
                terms[e] = v
        return CommPoly(ring, self.arity, self.degree, terms)

    def to_json_dict(self):
        return {
            "arity": self.arity,
            "degree": self.degree,
            "terms": [
                {"exponents": list(e), "coeff": self.ring.to_string(c)}
                for e, c in self.sorted_terms()
            ],
        }


def abelianize(series: NCSeries) -> CommPoly:
    """Project a noncommutative series to the commutative quotient: each
    word contributes its coefficient at its exponent vector."""
    ring = series.ring
    pairs = (
        (tuple(word.count(i) for i in range(series.arity)), c)
        for word, c in series.terms()
    )
    terms = _accumulate({}, pairs, ring.add, ring.is_zero)
    return CommPoly(ring, series.arity, series.degree, terms)


def abelianize_vector(vector):
    return tuple(abelianize(s) for s in vector)


def substitute(poly: CommPoly, vector) -> CommPoly:
    """Evaluate a commutative polynomial on a vector of polynomials,
    truncating at the shared degree; components need order >= 1."""
    vector = tuple(vector)
    for i, v in enumerate(vector):
        poly._check_compatible(v)
        if v.order() < 1:
            raise ValueError(f"substitution component {i + 1} has a constant term")
    ring = poly.ring
    out = {}
    power_cache = {}

    def power(i, k):
        got = power_cache.get((i, k))
        if got is None:
            got = CommPoly.one(ring, poly.arity, poly.degree) if k == 0 else power(i, k - 1) * vector[i]
            power_cache[(i, k)] = got
        return got

    for expo, c in poly.sorted_terms():
        prod = CommPoly.constant(ring, poly.arity, poly.degree, c)
        for i, k in enumerate(expo):
            if k:
                prod = prod * power(i, k)
        _accumulate(out, prod.terms.items(), ring.add, ring.is_zero)
    return CommPoly(ring, poly.arity, poly.degree, out)


def substitute_vector(polys, vector):
    return tuple(substitute(p, vector) for p in polys)


def compose_is_identity(f_vec, g_vec) -> bool:
    """Do the two commutative maps invert each other at this truncation?"""
    first = f_vec[0]
    idv = [
        CommPoly.variable(first.ring, first.arity, first.degree, i)
        for i in range(first.arity)
    ]
    return (
        list(substitute_vector(f_vec, g_vec)) == idv
        and list(substitute_vector(g_vec, f_vec)) == idv
    )


def jacobian(vector):
    """The matrix of partials d(vector_i)/dx_j."""
    return [[v.partial(j) for j in range(v.arity)] for v in vector]


def jacobian_power_apply(h_vec, m: int):
    """(JH)^(m-1) H: matrix powers of the Jacobian applied to H itself."""
    h_vec = tuple(h_vec)
    if m < 1:
        raise ValueError("power index starts at 1")
    jh = jacobian(h_vec)
    out = h_vec
    for _ in range(m - 1):
        out = tuple(
            _dot_row(jh[i], out) for i in range(len(h_vec))
        )
    return out


def _dot_row(row, vec):
    ring = row[0].ring
    terms = {}
    for a, b in zip(row, vec):
        _accumulate(terms, (a * b).terms.items(), ring.add, ring.is_zero)
    return CommPoly(ring, row[0].arity, row[0].degree, terms)


def inversion_pde_check(h_vec, torder: int) -> bool:
    """The commutative image of the inverse-flow PDE: with z + t*N_t
    inverting z - t*H in commuting variables, dN_t/dt = (J N_t) N_t.

    N_t is produced by an independent fixed-point inversion over the
    t-quotient ring, and the right-hand side by the Jacobian calculus of this
    module, so this check does not assume the PDE anywhere.
    """
    h_vec = tuple(h_vec)
    _, _, n_t = special_inverse(h_vec, torder, substitute_vector)
    # (J N_t) N_t is the m = 2 term of (J N)^(m-1) N
    return solves_cauchy_problem(n_t, h_vec, lambda v: jacobian_power_apply(v, 2))
