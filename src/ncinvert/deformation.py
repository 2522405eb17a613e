"""Deformations z - H_t(z) over a truncated parameter ring R[t]/(t^(K+1)).

The inverse of a deformed map is z + M_t with M_t = H_t(G_t), computed here
by the same fixed-point iteration as in the undeformed case but with
t-quotient coefficients.  Two derivations control how compositions with F_t
and G_t evolve in t:

    h(t): z |-> (dM_t/dt)(F_t)        m(t): z |-> (dH_t/dt)(G_t)

and for the special family H_t = t*H the inverse takes the shape
z + t*N_t(z), where N_t solves the inviscid-Burgers-like Cauchy problem
dN_t/dt = [N_t d/dz] N_t with N_0 = H.  Everything in this module is an
executable, exact check of one of those facts.

Two helpers serve the noncommutative and the commutative side alike, since
CommPoly is an NCSeries keyed by exponent vectors and inherits
``map_coefficients``, ``order`` and ``==``:
``special_inverse`` solves z - t*H once, returning (t*H, M_t, N_t), and
``solves_cauchy_problem`` checks u_t(0) = u_0 and du_t/dt = rhs(u_t).

Truncation discipline: a t-derivative of a computed value is trustworthy
only up to t-order K-1, so every identity involving one is compared by
``t_agree``, which re-truncates both sides to K-1 (and holds trivially at
K = 0).  Identities without a t-derivative are compared at full order K.
"""

from __future__ import annotations

from itertools import accumulate

from .freealg import (
    Derivation,
    FormalMap,
    NCSeries,
    _check_order_at_least,
    _fixed_point,
    _substitute,
    compose,
    compose_vector,
    star_action,
    vector_sum,
)
from .inversion import NSequence, c_sequence, n_seq_recurrent, verify_inverse
from .rings import TQuotientRing


# ---------------------------------------------------------------------------
# series-level t-helpers
# ---------------------------------------------------------------------------


def embed_series(series: NCSeries, tring, k: int = 0) -> NCSeries:
    """series * t^k over the quotient ring: each base-ring coefficient c
    becomes c*t^k, which is 0 once k passes the ring's t-order."""
    return series.map_coefficients(lambda c: tring.embed(c, k), new_ring=tring)


def t_residue_series(series: NCSeries, j: int) -> NCSeries:
    """The base-ring series sitting at t^j."""
    tring = series.ring
    return series.map_coefficients(
        lambda c: tring.residue_at(c, j), new_ring=tring.base
    )


def t_derivative_series(series: NCSeries) -> NCSeries:
    tring = series.ring
    return series.map_coefficients(tring.t_derivative)


def t_derivative_vector(vector):
    return tuple(t_derivative_series(s) for s in vector)


def t_truncate_series(series: NCSeries, torder: int) -> NCSeries:
    """Move a series into the smaller quotient R[t]/(t^(torder+1))."""
    tring = series.ring
    small = TQuotientRing(tring.base, torder)
    return series.map_coefficients(lambda c: tring.restrict(c, torder), new_ring=small)


def t_agree(a, b) -> bool:
    """Do the vectors a and b over R[t]/(t^(K+1)) agree through t-order K-1,
    as far as a t-derivative of a value kept to t^K is exact?

    Always true at K = 0; vectors of different lengths raise ValueError.
    """
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError(f"cannot compare vectors of lengths {len(a)} and {len(b)}")
    km = a[0].ring.torder - 1
    return km < 0 or all(
        t_truncate_series(x, km) == t_truncate_series(y, km) for x, y in zip(a, b)
    )


# ---------------------------------------------------------------------------
# the special inverse and Cauchy problems, for NCSeries and CommPoly alike
# ---------------------------------------------------------------------------


def special_inverse(h_vector, torder: int, substitute):
    """Solve z - t*H: returns (t*H, M_t, N_t) over R[t]/(t^(K+1)), K = torder.

    ``substitute(vector, point)`` evaluates a vector of series (NCSeries or
    commutative polynomials) at a point.  M_t comes from the fixed-point loop
    at t-order K+1, since dividing M_t = t*N_t by t costs one order; a
    t-constant term in M_t means the loop itself is broken.
    """
    h_vector = tuple(h_vector)
    _check_order_at_least(h_vector, 2, "H")
    big = TQuotientRing(h_vector[0].ring, torder + 1)
    big_ht = tuple(embed_series(h, big, 1) for h in h_vector)
    big_mt = _fixed_point(big_ht, substitute)
    if any(not t_residue_series(s, 0).is_zero() for s in big_mt):
        raise AssertionError("special deformation produced a t-constant term")
    big_nt = tuple(s.map_coefficients(big.shift_down) for s in big_mt)
    return tuple(
        tuple(t_truncate_series(s, torder) for s in vector)
        for vector in (big_ht, big_mt, big_nt)
    )


def solves_cauchy_problem(u_t, initial, rhs) -> bool:
    """Does the vector u_t over R[t]/(t^(K+1)) solve du_t/dt = rhs(u_t)
    with u_t = initial at t = 0?

    The boundary is compared at full order, the equation at t-order K-1; at
    K = 0 there is no equation to check and ``rhs`` is not called.
    """
    u_t = tuple(u_t)
    if tuple(t_residue_series(s, 0) for s in u_t) != tuple(initial):
        return False
    if u_t[0].ring.torder < 1:
        return True
    return t_agree(t_derivative_vector(u_t), rhs(u_t))


# ---------------------------------------------------------------------------
# general deformations
# ---------------------------------------------------------------------------


class DeformedMap:
    """A deformed map F_t = z - H_t together with its computed inverse.

    Attributes: ``h_t`` and ``m_t`` are vectors over the t-quotient ring,
    ``f_t``/``g_t`` the corresponding maps, ``torder`` the t-truncation K and
    ``degree`` the z-truncation D.  ``m_t`` is computed by the fixed-point
    loop unless it is passed in; either way construction verifies
    F_t(G_t) = id = G_t(F_t) exactly at (D, K).
    """

    __slots__ = ("tring", "arity", "degree", "torder", "h_t", "f_t", "g_t", "m_t")

    def __init__(self, h_t, m_t=None):
        h_t = tuple(h_t)
        first = h_t[0]
        tring = first.ring
        if not isinstance(tring, TQuotientRing):
            raise ValueError("a deformed map needs t-quotient coefficients")
        _check_order_at_least(h_t, 2, "H_t")
        self.tring = tring
        self.arity = first.arity
        self.degree = first.degree
        self.torder = tring.torder
        self.h_t = h_t
        self.f_t = FormalMap.f_form(h_t)
        if m_t is None:
            m_t = _fixed_point(h_t, _substitute)
        self.m_t = tuple(m_t)
        self.g_t = FormalMap.g_form(self.m_t)
        report = verify_inverse(self.f_t, self.g_t)
        if not report.ok:
            raise AssertionError("deformed inverse failed verification: " + report.describe())

    def h_derivation(self) -> Derivation:
        """h(t): components (dM_t/dt)(F_t); t-order only valid to K-1."""
        return Derivation(compose_vector(t_derivative_vector(self.m_t), self.f_t))

    def m_derivation(self) -> Derivation:
        """m(t): components (dH_t/dt)(G_t); t-order only valid to K-1."""
        return Derivation(compose_vector(t_derivative_vector(self.h_t), self.g_t))


class SpecialDeformation(DeformedMap):
    """The family F_t = z - t*H for a base-ring displacement H.

    Here M_t = t*N_t with a well-defined quotient N_t (the t-constant part
    of M_t vanishes), and the t-expansion of N_t is the N-sequence: the
    coefficient of t^(m-1) is N_[m].

    Dividing by t costs one order of t-accuracy, so the inversion runs at
    t-order K+1 internally and everything stored is restricted to K; n_t is
    then exact at full order K.
    """

    __slots__ = ("h_base", "n_t")

    def __init__(self, h_vector, torder):
        self.h_base = tuple(h_vector)
        h_t, m_t, self.n_t = special_inverse(self.h_base, torder, _substitute)
        super().__init__(h_t, m_t)

    def n_term(self, m: int):
        """N_[m] as a base-ring vector (needs m - 1 <= K)."""
        return tuple(t_residue_series(s, m - 1) for s in self.n_t)


def n_sequence_via_deformation(h_vector) -> NSequence:
    """The N-sequence read off the fixed-point inverse of z - t*H.

    Independent of the recurrence engines: this is the oracle they are
    checked against.
    """
    h_vector = tuple(h_vector)
    first = h_vector[0]
    D = first.degree
    count = max(D - 1, 0)
    if count == 0:
        return NSequence(first.ring, first.arity, D, [])
    sd = SpecialDeformation(h_vector, torder=count - 1)
    terms = [sd.n_term(m) for m in range(1, count + 1)]
    return NSequence(first.ring, first.arity, D, terms)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def check_inverse_flow_identities(d: DeformedMap) -> bool:
    """The four basic facts tying H_t, M_t and their t-derivatives.

    M_t = H_t(G_t) and H_t = M_t(F_t) are checked by the construction of
    ``d``: ``compose`` is linear in the series and z_i(G) = G_i, so
    F_t(G_t) = z + M_t - H_t(G_t) and G_t(F_t) = z - H_t + M_t(F_t), and
    ``DeformedMap`` verifies F_t(G_t) = id = G_t(F_t).  Checked here are the
    two derivation transport laws dH_t/dt = [dM_t/dt(F_t) d/dz] F_t and
    dM_t/dt = [dH_t/dt(G_t) d/dz] G_t.
    """
    lhs3 = t_derivative_vector(d.h_t)
    rhs3 = d.h_derivation().apply_vector(d.f_t.components)
    if not t_agree(lhs3, rhs3):
        return False
    lhs4 = t_derivative_vector(d.m_t)
    rhs4 = d.m_derivation().apply_vector(d.g_t.components)
    return t_agree(lhs4, rhs4)


def check_pushforward_swap(d: DeformedMap) -> bool:
    """Transport along the inverse pair swaps h(t) and m(t): pushing h
    forward through G_t gives m, and pushing m through F_t gives h."""
    h = d.h_derivation()
    m = d.m_derivation()
    via_g = star_action(d.f_t, d.g_t, h)  # (G_t)_* h
    if not t_agree(via_g.components, m.components):
        return False
    via_f = star_action(d.g_t, d.f_t, m)  # (F_t)_* m
    return t_agree(via_f.components, h.components)


def check_substitution_flow(d: DeformedMap, u: NCSeries) -> bool:
    """How u(F_t) and u(G_t) evolve in t, both equality chains each:
    d/dt u(F_t) = -(m(t)u)(F_t) = -h(t) u(F_t) and
    d/dt u(G_t) =  (h(t)u)(G_t) =  m(t) u(G_t), for base-ring u."""
    u_t = embed_series(u, d.tring)
    h = d.h_derivation()
    m = d.m_derivation()

    u_f = compose(u_t, d.f_t)
    lhs = t_derivative_series(u_f)
    first = -compose(m.apply(u_t), d.f_t)
    second = -h.apply(u_f)
    if not t_agree((lhs, lhs), (first, second)):
        return False

    u_g = compose(u_t, d.g_t)
    lhs = t_derivative_series(u_g)
    first = compose(h.apply(u_t), d.g_t)
    second = m.apply(u_g)
    return t_agree((lhs, lhs), (first, second))


def check_inversion_pde(n_t, h_base) -> bool:
    """N_t solves dN_t/dt = [N_t d/dz] N_t with N_{t=0} = H."""
    return solves_cauchy_problem(n_t, h_base, lambda v: Derivation(v).apply_vector(v))


def check_h_m_structure(sd: SpecialDeformation) -> bool:
    """For the special family: m(t) has components N_t exactly, and h(t)
    expands as sum_m t^(m-1) [C_m d/dz] with the iterated sequence
    C_1 = H, C_m = [C_(m-1) d/dz] H."""
    m = sd.m_derivation()
    if tuple(m.components) != sd.n_t:
        return False
    h = sd.h_derivation()
    tring = sd.tring
    cs = c_sequence(sd.h_base, sd.torder + 1)
    expect = vector_sum(
        tring, sd.arity, sd.degree,
        (tuple(embed_series(c, tring, mm) for c in c_vec) for mm, c_vec in enumerate(cs)),
    )
    return t_agree(h.components, expect)


def check_composed_with_forward_map(sd: SpecialDeformation) -> bool:
    """N_t(F_t) = H exactly at full t-order: composing the deformation's
    N_t with F_t recovers the undeformed displacement."""
    image = compose_vector(sd.n_t, sd.f_t)
    return image == tuple(embed_series(h, sd.tring) for h in sd.h_base)


def check_shifted_inverse_family(h_vector, t0, s0) -> bool:
    """z - s*N(t) is inverted by z + s*N(t+s), where N(c) evaluates the
    N-sequence at the scalar c: N(c) = sum_m c^(m-1) N_[m]."""
    h_vector = tuple(h_vector)
    ring = h_vector[0].ring
    nseq = n_seq_recurrent(h_vector)

    def shifted(s, c):
        """z + s*N(c): layer m weighted once, by s*c^(m-1)."""
        weights = accumulate([c] * (len(nseq) - 1), ring.mul, initial=s)
        layers = [tuple(x.scale(w) for x in vec) for vec, w in zip(nseq.terms, weights)]
        return FormalMap.g_form(vector_sum(ring, nseq.arity, nseq.degree, layers))

    u_map = shifted(ring.neg(s0), t0)
    v_map = shifted(s0, ring.add(t0, s0))
    return verify_inverse(u_map, v_map).ok


def check_transport_pde(h_vector, u: NCSeries, torder: int) -> bool:
    """U_t := u(G_t) = u(z + t*N_t) solves dU_t/dt = [N_t d/dz] U_t with
    U_{t=0} = u, for base-ring u."""
    sd = SpecialDeformation(h_vector, torder)
    big_u = compose(embed_series(u, sd.tring), sd.g_t)
    return solves_cauchy_problem((big_u,), (u,), Derivation(sd.n_t).apply_vector)
