"""The abelianization quotient: commutative images of everything above.

Sending each word to its exponent vector collapses the free algebra onto
ordinary commutative polynomials; commutators die, and the letterwise
derivation calculus collapses onto the classical Jacobian calculus.  This
module keeps the commutative side honest as an independent check: the
iterated sequence C_m abelianizes to (JH)^(m-1) H, inverses stay inverses,
and the inverse-flow PDE becomes dN_t/dt = (J N_t) N_t.

:class:`CommPoly` is an :class:`~ncinvert.freealg.NCSeries` whose degree
buckets are keyed by exponent vectors instead of words.  It overrides only
the key methods of ``NCSeries`` (degree, unit keys, validation, the stored
form, the pairs of a product, the text form), and inherits everything
written on top of them: construction, ``coefficient``, arithmetic, powers,
``terms``, ``==`` and ``repr``.  The calculus of the quotient stays here: the power-rule
partials, the Jacobian and substitution, so the commutative PDE check shares
no calculus with the noncommutative side.

:class:`TCommPoly` is CommPoly's t-graded kind (see
:mod:`ncinvert.deformation`): the t-power is appended to the exponent vector,
so products, which add exponent vectors, add t-powers too and drop a pair
past t^K, and the partials, which read the first n entries, leave t alone.
``special_inverse`` and ``solves_cauchy_problem`` run on it as they run on
TSeries.
"""

from __future__ import annotations

import math

from .deformation import TGraded, solves_cauchy_problem, special_inverse
from .freealg import NCSeries


class CommPoly(NCSeries):
    """A truncated commutative polynomial: degree buckets of exponent vectors.

    ``terms()`` yields (exponent vector, coefficient) ordered by total
    degree, then exponent vector.
    """

    __slots__ = ()

    # -- keys: the key methods of NCSeries, for exponent vectors ----------

    _key_degree = staticmethod(sum)

    @staticmethod
    def _unit_key(arity, i=None):
        return tuple(int(j == i) for j in range(arity))

    @staticmethod
    def _check_key(expo, arity):
        if len(expo) != arity:
            raise ValueError(f"exponent vector {expo} has length {len(expo)}, not {arity}")

    def _key_in(self, expo):
        return expo

    def _keys_out(self, expos, d, first=0):
        """Exponent vectors as they are stored; they have no letters to
        number."""
        return expos

    def _key_space(self, d):
        """No bound: exponent vectors are no list indices."""
        return math.inf

    @staticmethod
    def _products(b1, b2, d2, rmul):
        """Exponent vectors add."""
        return [
            (tuple(a + b for a, b in zip(e1, e2)), rmul(c1, c2))
            for e1, c1 in b1.items()
            for e2, c2 in b2.items()
        ]

    @staticmethod
    def _key_text(expo):
        return f"x^{list(expo)}"

    #: exponent vectors have no letter positions: no derivation splices them
    _splices = None

    def partial(self, i):
        """d/dx_i with the classical power rule."""
        mul_int = self.ring.mul_int
        return self._collect(
            (d - 1, [
                (e[:i] + (e[i] - 1,) + e[i + 1 :], mul_int(c, e[i]))
                for e, c in b.items()
                if e[i]
            ])
            for d, b in self.buckets.items()
        )


class TCommPoly(TGraded, CommPoly):
    """A CommPoly in x and t at t-order K: the stored key of x^e t^j is the
    exponent vector e with j appended."""

    __slots__ = ()
    base = CommPoly

    @staticmethod
    def _t_join(expo, t):
        return expo + (t,)

    @staticmethod
    def _t_parts(expos):
        return ((e[:-1], e[-1]) for e in expos)

    def _products(self, b1, b2, d2, rmul):
        """Exponent vectors add, t-powers with them; a pair past t^K is
        dropped."""
        top = self.torder
        return [(e, c) for e, c in super()._products(b1, b2, d2, rmul) if e[-1] <= top]


def abelianize(series: NCSeries) -> CommPoly:
    """Project a noncommutative series to the commutative quotient: each
    word contributes its coefficient at its exponent vector."""
    return CommPoly.from_terms(
        series.ring, series.arity, series.degree,
        (
            (tuple(word.count(i) for i in range(series.arity)), c)
            for word, c in series.terms()
        ),
    )


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
    kind, ring, n, D = type(poly), poly.ring, poly.arity, poly.degree
    power_cache = {}

    def power(i, k):
        got = power_cache.get((i, k))
        if got is None:
            got = kind.one(ring, n, D) if k == 0 else power(i, k - 1) * vector[i]
            power_cache[(i, k)] = got
        return got

    def image(expo, c):
        # c times the t-power of a t-graded key: the key with the exponents
        # of the n variables set to 0 (for CommPoly, the key of 1)
        prod = kind(ring, n, D, {0: {(0,) * n + expo[n:]: c}})
        for i, k in enumerate(expo[:n]):
            if k:
                prod = prod * power(i, k)
        return prod

    return kind.sum(
        ring, n, D, (image(e, c) for bucket in poly.buckets.values() for e, c in bucket.items())
    )


def substitute_vector(polys, vector, bound=0):
    """Each polynomial evaluated at ``vector``, without its terms of degree
    below ``bound``."""
    return tuple(
        type(s)(s.ring, s.arity, s.degree, {d: b for d, b in s.buckets.items() if d >= bound})
        for s in (substitute(p, vector) for p in polys)
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
    first = row[0]
    return type(first).sum(
        first.ring, first.arity, first.degree, (a * b for a, b in zip(row, vec))
    )


def inversion_pde_check(h_vec, torder: int) -> bool:
    """The commutative image of the inverse-flow PDE: with z + t*N_t
    inverting z - t*H in commuting variables, dN_t/dt = (J N_t) N_t.

    N_t is produced by an independent fixed-point inversion in the t-graded
    kind TCommPoly, and the right-hand side by the Jacobian calculus of this
    module, so this check does not assume the PDE anywhere.
    """
    h_vec = tuple(h_vec)
    _, _, n_t = special_inverse(h_vec, torder, substitute_vector)
    # (J N_t) N_t is the m = 2 term of (J N)^(m-1) N
    return solves_cauchy_problem(n_t, h_vec, lambda v: jacobian_power_apply(v, 2))
