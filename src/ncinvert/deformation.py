"""Deformations z - H_t(z) over a truncated parameter ring R[t]/(t^(K+1)).

The inverse of a deformed map is z + M_t with M_t = H_t(G_t), computed here
by the same fixed-point iteration as in the undeformed case but with series
in t as well as z.  Two derivations control how compositions with F_t and
G_t evolve in t:

    h(t): z |-> (dM_t/dt)(F_t)        m(t): z |-> (dH_t/dt)(G_t)

and for the special family H_t = t*H the inverse takes the shape
z + t*N_t(z), where N_t solves the inviscid-Burgers-like Cauchy problem
dN_t/dt = [N_t d/dz] N_t with N_0 = H.  Everything in this module is an
executable, exact check of one of those facts.

A series in t is a t-graded kind (``t_graded``): an NCSeries subclass, as
CommPoly is, with base-ring coefficients and a t-power in each key.
:class:`TSeries` packs word code and t-power into one int,
``code * (K + 1) + t``: the t-digit sits below every letter, products and
derivations add t-digits and drop a pair past t^K, and over QQ every pair
is a builtin int operation.  K is part of the kind, one class per (base
kind, K), so it travels with every series built from one.  The t-helpers
are key maps.  The tuple-valued t-ring of ``rings`` does the same
arithmetic a coefficient at a time; the tests keep it as their oracle.

Two helpers serve the noncommutative and the commutative side alike, since
both t-graded kinds are NCSeries subclasses with the same t-rule:
``special_inverse`` solves z - t*H once, returning (t*H, M_t, N_t), and
``solves_cauchy_problem`` checks u_t(0) = u_0 and du_t/dt = rhs(u_t).

Truncation discipline: a t-derivative of a computed value is trustworthy
only up to t-order K-1, so every identity involving one is compared by
``t_agree``, which re-truncates both sides to K-1 (and holds trivially at
K = 0).  Identities without a t-derivative are compared at full order K.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, repeat, tee
from operator import itemgetter

from .freealg import (
    Derivation,
    FormalMap,
    NCSeries,
    _check_order_at_least,
    _fixed_point,
    _pushforward,
    _substitute,
    compose,
    compose_vector,
    vector_sum,
)
from .inversion import NSequence, _vector_meta, c_sequence, check_engine, verify_inverse


# ---------------------------------------------------------------------------
# t-graded kinds
# ---------------------------------------------------------------------------


class TGraded:
    """The key methods that a t-graded kind shares, over its base kind.

    A boundary key is a pair (key of the base kind, t-power).  A subclass
    names its ``base`` kind, the kind of the coefficient of each power of t,
    and states the stored form: ``_t_join(base key, t)`` is one stored key,
    and ``_t_parts(keys)`` yields the (base key, t) of each stored key; a
    kind at one K is made by ``t_graded``.
    """

    __slots__ = ()

    @classmethod
    def _key_degree(cls, key):
        return cls.base._key_degree(key[0])

    @classmethod
    def _unit_key(cls, arity, i=None):
        return cls._t_join(cls.base._unit_key(arity, i), 0)

    @classmethod
    def _check_key(cls, key, arity):
        base_key, t = key
        cls.base._check_key(base_key, arity)
        if not 0 <= t <= cls.torder:
            raise ValueError(f"t-exponent {t} out of range [0, {cls.torder}]")

    def _key_in(self, key):
        base_key, t = key
        return self._t_join(super()._key_in(tuple(base_key)), t)

    def _keys_out(self, keys, d, first=0):
        bases, powers = tee(self._t_parts(keys))
        return zip(
            super()._keys_out(map(itemgetter(0), bases), d, first),
            map(itemgetter(1), powers),
        )

    @classmethod
    def _key_text(cls, key):
        base_key, t = key
        return f"{cls.base._key_text(base_key)}*t^{t}"


class TSeries(TGraded, NCSeries):
    """A series in noncommuting z and a central t, truncated at z-degree D
    and t-order K: the stored key of word w times t^j is
    ``code(w) * (K + 1) + j``."""

    __slots__ = ()
    base = NCSeries

    @classmethod
    def _t_join(cls, code, t):
        return code * (cls.torder + 1) + t

    def _t_parts(self, keys):
        return map(divmod, keys, repeat(self.torder + 1))

    def _key_space(self, d):
        return self.arity**d * (self.torder + 1)

    def _image_terms(self, bucket):
        """Per room r = 0..K, the terms (code, t, c) of ``bucket`` with
        t <= r: the terms that a key with t-power K - r can take."""
        radix = self.torder + 1
        by_power = [[] for _ in range(radix)]
        for key, c in bucket.items():
            q, t = divmod(key, radix)
            by_power[t].append((q, t, c))
        return list(accumulate(by_power))

    def _products(self, b1, b2, d2, rmul):
        """Words concatenate and t-powers add; a pair past t^K is dropped."""
        radix, lift, top = self.torder + 1, self.arity ** d2, self.torder
        rows = self._image_terms(b2)
        return [
            ((q1 * lift + q2) * radix + t1 + t2, rmul(c1, c2))
            for k1, c1 in b1.items()
            for q1, t1 in [divmod(k1, radix)]
            for q2, t2, c2 in rows[top - t1]
        ]

    def _splices(self, images, positions=None):
        """``NCSeries._splices`` with the t-digit under the last letter: a
        letter at position j is the digit of n**(d-1-j) * (K + 1), the part
        below it (``lo``) keeps the key's t-power, and each image term adds
        its own, from the row of image terms that fit (``_image_terms``).
        Every block is a pair list."""
        n, radix, rmul = self.arity, self.torder + 1, self.ring.row_rules[1]
        for d, bucket in self.buckets.items():
            fits = [(du, rows) for du, rows, _ in images if d - 1 + du <= self.degree]
            if not fits:
                continue
            terms = [(key, self.torder - key % radix, c) for key, c in bucket.items()]
            for j in range(d) if positions is None else positions:
                low = n ** (d - 1 - j) * radix
                high = low * n
                split = [
                    (hi, letter, lo, room, c)
                    for key, room, c in terms
                    for hi, rest in [divmod(key, high)]
                    for letter, lo in [divmod(rest, low)]
                ]
                for du, rows in fits:
                    lift = n**du
                    yield d - 1 + du, [
                        ((hi * lift + uq) * low + lo + ut, rmul(c, uc))
                        for hi, letter, lo, room, c in split
                        for uq, ut, uc in rows[letter][room]
                    ]


@cache
def t_graded(kind, torder):
    """The t-graded kind over ``kind`` (NCSeries, CommPoly) at t-order
    K = ``torder``: one class per (kind, K)."""
    if torder < 0:
        raise ValueError("t-order must be >= 0")
    graded = next((c for c in TGraded.__subclasses__() if c.base is kind), None)
    if graded is None:
        raise ValueError(f"{kind.__name__} has no t-graded kind")
    return type(f"{graded.__name__}[K={torder}]", (graded,), {"__slots__": (), "torder": torder})


# ---------------------------------------------------------------------------
# series-level t-helpers: key maps
# ---------------------------------------------------------------------------


def _rekeyed(series, kind, pairs):
    """The series of ``kind`` holding, at each degree, the (key, nonzero
    coefficient) pairs that ``pairs`` makes of the ((base key, t),
    coefficient) of that bucket of ``series``: keys that stay distinct."""
    parts, buckets = series._t_parts, {}
    for d, b in series.buckets.items():
        bucket = dict(pairs(zip(parts(b), b.values())))
        if bucket:
            buckets[d] = bucket
    return kind(series.ring, series.arity, series.degree, buckets)


def embed_series(series: NCSeries, torder: int, k: int = 0) -> TSeries:
    """series * t^k in the t-graded kind at t-order K = ``torder``: 0 once
    k passes K."""
    if k < 0:
        raise ValueError(f"cannot multiply by t^{k}: negative t-exponent")
    kind = t_graded(type(series), torder)
    join = kind._t_join
    return kind(series.ring, series.arity, series.degree, {} if k > torder else {
        d: {join(key, k): c for key, c in b.items()} for d, b in series.buckets.items()
    })


def t_residue_series(series: TSeries, j: int) -> NCSeries:
    """The base-kind series sitting at t^j."""
    if not 0 <= j <= series.torder:
        raise ValueError(f"t-exponent {j} out of range [0, {series.torder}]")
    return _rekeyed(
        series, series.base, lambda terms: [(key, c) for (key, t), c in terms if t == j]
    )


def t_derivative_series(series: TSeries) -> TSeries:
    """d/dt; the t^K coefficient of the result is 0."""
    join, mul_int, is_zero = series._t_join, series.ring.mul_int, series.ring.is_zero
    return _rekeyed(series, type(series), lambda terms: [
        (join(key, t - 1), v) for (key, t), c in terms if t
        for v in [mul_int(c, t)] if not is_zero(v)
    ])


def t_derivative_vector(vector):
    return tuple(t_derivative_series(s) for s in vector)


def shift_down_series(series: TSeries) -> TSeries:
    """Divide by t; requires the coefficient of t^0 to vanish."""
    if not t_residue_series(series, 0).is_zero():
        raise ValueError("coefficient of t^0 is nonzero, cannot divide by t")
    join = series._t_join
    return _rekeyed(
        series, type(series), lambda terms: [(join(key, t - 1), c) for (key, t), c in terms]
    )


def t_truncate_series(series: TSeries, torder: int) -> TSeries:
    """Move a series to the t-graded kind at the smaller t-order ``torder``."""
    if torder > series.torder:
        raise ValueError("cannot extend the t-order of a truncated value")
    small = t_graded(series.base, torder)
    join = small._t_join
    return _rekeyed(
        series, small, lambda terms: [(join(key, t), c) for (key, t), c in terms if t <= torder]
    )


def t_agree(a, b) -> bool:
    """Do the t-graded vectors a and b agree through t-order K-1, as far as
    a t-derivative of a value kept to t^K is exact?

    Always true at K = 0; vectors of different lengths raise ValueError.
    """
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError(f"cannot compare vectors of lengths {len(a)} and {len(b)}")
    km = a[0].torder - 1
    return km < 0 or all(
        t_truncate_series(x, km) == t_truncate_series(y, km) for x, y in zip(a, b)
    )


# ---------------------------------------------------------------------------
# the special inverse and Cauchy problems, for NCSeries and CommPoly alike
# ---------------------------------------------------------------------------


def special_inverse(h_vector, torder: int, substitute):
    """Solve z - t*H: returns (t*H, M_t, N_t) at t-order K = torder.

    ``substitute(vector, point)`` evaluates a vector of series (NCSeries or
    commutative polynomials, t-graded) at a point.  M_t comes from the
    fixed-point loop at t-order K+1, since dividing M_t = t*N_t by t costs
    one order; a t-constant term in M_t means the loop itself is broken.
    """
    h_vector = tuple(h_vector)
    _check_order_at_least(h_vector, 2, "H")
    big_ht = tuple(embed_series(h, torder + 1, 1) for h in h_vector)
    big_mt = _fixed_point(big_ht, substitute)
    if any(not t_residue_series(s, 0).is_zero() for s in big_mt):
        raise AssertionError("special deformation produced a t-constant term")
    big_nt = tuple(shift_down_series(s) for s in big_mt)
    return tuple(
        tuple(t_truncate_series(s, torder) for s in vector)
        for vector in (big_ht, big_mt, big_nt)
    )


def solves_cauchy_problem(u_t, initial, rhs) -> bool:
    """Does the t-graded vector u_t solve du_t/dt = rhs(u_t) with
    u_t = initial at t = 0?

    The boundary is compared at full order, the equation at t-order K-1; at
    K = 0 there is no equation to check and ``rhs`` is not called.
    """
    u_t = tuple(u_t)
    if tuple(t_residue_series(s, 0) for s in u_t) != tuple(initial):
        return False
    if u_t[0].torder < 1:
        return True
    return t_agree(t_derivative_vector(u_t), rhs(u_t))


# ---------------------------------------------------------------------------
# general deformations
# ---------------------------------------------------------------------------


class DeformedMap:
    """A deformed map F_t = z - H_t together with its computed inverse.

    Attributes: ``h_t`` and ``m_t`` are vectors of TSeries,
    ``f_t``/``g_t`` the corresponding maps, ``torder`` the t-truncation K and
    ``degree`` the z-truncation D.  ``m_t`` is computed by the fixed-point
    loop unless it is passed in; either way construction verifies
    F_t(G_t) = id = G_t(F_t) exactly at (D, K).
    """

    __slots__ = ("arity", "degree", "torder", "h_t", "f_t", "g_t", "m_t")

    def __init__(self, h_t, m_t=None):
        h_t = tuple(h_t)
        first = h_t[0]
        if not isinstance(first, TSeries):
            raise ValueError("a deformed map needs t-graded series (TSeries)")
        _check_order_at_least(h_t, 2, "H_t")
        self.arity = first.arity
        self.degree = first.degree
        self.torder = first.torder
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
    h_vector, ring, n, D = _vector_meta(h_vector)
    count = max(D - 1, 0)
    if count == 0:
        return NSequence(ring, n, D, [])
    sd = SpecialDeformation(h_vector, torder=count - 1)
    terms = [sd.n_term(m) for m in range(1, count + 1)]
    return NSequence(ring, n, D, terms)


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
    # d verified F_t(G_t) = id = G_t(F_t) when it was made: no star_action check
    via_g = _pushforward(d.f_t, d.g_t, h)  # (G_t)_* h
    if not t_agree(via_g.components, m.components):
        return False
    via_f = _pushforward(d.g_t, d.f_t, m)  # (F_t)_* m
    return t_agree(via_f.components, h.components)


def check_substitution_flow(d: DeformedMap, u: NCSeries) -> bool:
    """How u(F_t) and u(G_t) evolve in t, both equality chains each:
    d/dt u(F_t) = -(m(t)u)(F_t) = -h(t) u(F_t) and
    d/dt u(G_t) =  (h(t)u)(G_t) =  m(t) u(G_t), for base-ring u."""
    u_t = embed_series(u, d.torder)
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
    cs = c_sequence(sd.h_base, sd.torder + 1)
    expect = vector_sum(
        sd.h_t[0].ring, sd.arity, sd.degree,
        (tuple(embed_series(c, sd.torder, mm) for c in c_vec) for mm, c_vec in enumerate(cs)),
    )
    return t_agree(h.components, expect)


def check_composed_with_forward_map(sd: SpecialDeformation) -> bool:
    """N_t(F_t) = H exactly at full t-order: composing the deformation's
    N_t with F_t recovers the undeformed displacement."""
    image = compose_vector(sd.n_t, sd.f_t)
    return image == tuple(embed_series(h, sd.torder) for h in sd.h_base)


def check_shifted_inverse_family(h_vector, t0, s0) -> bool:
    """z - s*N(t) is inverted by z + s*N(t+s), where N(c) evaluates the
    N-sequence at the scalar c: N(c) = sum_m c^(m-1) N_[m], read from the
    recurrence over Q and from charp-direct's residue step over GF(p)."""
    h_vector = tuple(h_vector)
    ring = h_vector[0].ring
    nseq = check_engine("charp-direct" if ring.characteristic else "recurrent", ring)(h_vector)

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
    big_u = compose(embed_series(u, sd.torder), sd.g_t)
    return solves_cauchy_problem((big_u,), (u,), Derivation(sd.n_t).apply_vector)
