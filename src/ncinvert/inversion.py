"""Inversion engines for maps z - H(z) with o(H) >= 2.

Five engines reach the same inverse by routes kept deliberately independent
so they can check each other; ``invert`` dispatches to them by name through
one table, and ``check_engine`` is the one test of a name against a ring:

* ``fixed-point``: the substitution M <- H(z + M), over any ring;
* ``recurrent``: the characteristic-0 recurrence
  N_[1] = H,  (m-1) N_[m] = sum_{k+l=m} [N_[k] d/dz] N_[l];
* ``tree`` (in ``trees``): N_[m] as the sum over planar binary trees with
  m leaves weighted by 1/T^!, characteristic 0;
* ``charp-direct``: over GF(p), the recurrence where m-1 is invertible and a
  division-free residue-extraction step at the layers m = kp+1 where it is
  not;
* ``charp-lift``: over GF(p), lift the coefficients of H to their integer
  representatives, run the recurrence over the integers, reduce mod p.

The layered engines (recurrent, tree, charp-direct, and charp-lift through
the recurrence) build their terms with the one loop
``NSequence.from_layers`` and differ only in the layer they hand it; the
inverse of z - H is then z + sum_m N_[m], which ``NSequence.assemble`` sums.
Since o(N_[m]) >= m+1, the terms with m >= D are invisible at truncation
degree D, so engines compute D-1 of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freealg import (
    Derivation,
    FormalMap,
    NCSeries,
    _check_order_at_least,
    _check_vector,
    _fixed_point,
    _substitute,
    compose,
    embed_series,
    t_residue_series,
    word_key,
)
from .rings import IntPolyRing, PrimeField, TQuotientRing

def _vector_meta(h_vector):
    h_vector = _check_vector(h_vector)
    _check_order_at_least(h_vector, 2, "H")
    first = h_vector[0]
    return h_vector, first.ring, first.arity, first.degree


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------


def invert_fixed_point(h_vector) -> FormalMap:
    """Invert z - H by passes of M <- H(z + M) from M = 0.

    With r = o(H) >= 2, pass k runs at truncation min(D, (k + 1)(r - 1)) and
    leaves M exact through it, so the pass count (D - 1) // (r - 1), which is
    D - 1 when r = 2, is known before the first pass, and only the last pass
    runs at D; works over any coefficient ring.
    """
    h_vector = _vector_meta(h_vector)[0]
    return FormalMap.g_form(_fixed_point(h_vector, _substitute))


# ---------------------------------------------------------------------------
# the N-sequence
# ---------------------------------------------------------------------------


@dataclass
class NSequence:
    """Terms N_[1..M] of the inverse expansion; terms[m-1] is N_[m]."""

    ring: object
    arity: int
    degree: int
    terms: list

    def __len__(self):
        return len(self.terms)

    @classmethod
    def from_layers(cls, h_vector, layer):
        """N_[1] = H, then N_[m] = layer(terms, m) for m = 2..D-1, where
        ``terms`` holds N_[1..m-1]; every layered engine is this loop."""
        h_vector, ring, n, D = _vector_meta(h_vector)
        terms = [h_vector] if D >= 2 else []
        for m in range(2, D):
            terms.append(layer(terms, m))
        return cls(ring, n, D, terms)

    def term(self, m):
        """N_[m] (1-based)."""
        return self.terms[m - 1]

    def assemble(self) -> FormalMap:
        """The map z + sum_m N_[m], the inverse of z - H."""
        ring, n, D = self.ring, self.arity, self.degree
        return FormalMap.g_form(
            NCSeries.sum(ring, n, D, (vec[i] for vec in self.terms)) for i in range(n)
        )

    def validate_bounds(self, h_vector):
        """Check the order / degree / homogeneity bounds of every term.

        Raises AssertionError on the first violated bound, explicitly rather
        than by ``assert``, so that ``python -O`` keeps the check; used by
        tests and the identity suite's ``sequence-bounds`` check.
        """
        h_deg = max(h.poly_degree() for h in h_vector)
        homogeneous = all(h.is_homogeneous() for h in h_vector) and len(
            {h.poly_degree() for h in h_vector if not h.is_zero()}
        ) <= 1
        for m, vec in enumerate(self.terms, start=1):
            for s in vec:
                if s.order() < m + 1:
                    raise AssertionError(f"o(N_[{m}]) = {s.order()} < {m + 1}")
                if h_deg != -float("inf"):
                    bound = m * (h_deg - 1) + 1
                    if not (s.is_zero() or s.poly_degree() <= bound):
                        raise AssertionError(f"deg N_[{m}] = {s.poly_degree()} > {bound}")
                if homogeneous and not s.is_zero():
                    d = (int(h_deg) - 1) * m + 1
                    if not (s.is_homogeneous() and s.poly_degree() == d):
                        raise AssertionError(f"N_[{m}] is not homogeneous of degree {d}")


def convolution_sum(terms, m):
    """sum_{k+l=m, k,l>=1} [N_[k] d/dz] N_[l] from terms[0..m-2]."""
    first = terms[0][0]
    ring, n, D = first.ring, first.arity, first.degree
    deltas = [Derivation(terms[k - 1]) for k in range(1, m)]
    return tuple(
        NCSeries.sum(
            ring, n, D, (deltas[k - 1].apply(terms[m - k - 1][i]) for k in range(1, m))
        )
        for i in range(n)
    )


def _divided_convolution(terms, m):
    """The recurrence's layer: N_[m] = convolution_sum(terms, m) / (m-1)."""
    ring = terms[0][0].ring
    return tuple(
        s.map_coefficients(lambda c: ring.div_by_int(c, m - 1))
        for s in convolution_sum(terms, m)
    )


def c_sequence(h_vector, count: int):
    """C_1 = H, C_m = [C_(m-1) d/dz] H: the iterated-derivation sequence
    whose abelianization is (JH)^(m-1) H; returns ``count`` terms."""
    h_vector, ring, n, D = _vector_meta(h_vector)
    out = []
    if count >= 1:
        out.append(h_vector)
    for _ in range(2, count + 1):
        out.append(Derivation(out[-1]).apply_vector(h_vector))
    return out


def _check_characteristic_zero(ring, what):
    """ValueError unless ``ring`` has characteristic 0, which ``what`` needs."""
    if ring.characteristic != 0:
        raise ValueError(
            f"{what} need characteristic 0, not {ring.characteristic}; "
            "use the charp-direct or charp-lift engine"
        )


def n_seq_recurrent(h_vector) -> NSequence:
    """The characteristic-0 recurrence for N_[1..D-1]."""
    h_vector = tuple(h_vector)
    _check_characteristic_zero(h_vector[0].ring, "the recurrence's divisions by m-1")
    return NSequence.from_layers(h_vector, _divided_convolution)


# ---------------------------------------------------------------------------
# residue extraction (division-free step)
# ---------------------------------------------------------------------------


def alt_recurrent_step(prev_terms, h_vector, m):
    """Compute N_[m] from N_[1..m-1] by coefficient extraction.

    Substituting z -> z - t*H into the lower terms and reading off t-powers
    gives, for m >= 2,

        N_[m](z) = - sum_{l=1..m-1}  [t^(m-l)]  N_[l](z - t*H),

    which uses no division at all and therefore works in any characteristic.
    """
    h_vector, ring, n, D = _vector_meta(h_vector)
    if m < 2:
        raise ValueError("residue step starts at m = 2")
    if len(prev_terms) < m - 1:
        raise ValueError(f"need N_[1..{m - 1}], got {len(prev_terms)} terms")
    tring = TQuotientRing(ring, m - 1)
    th = [embed_series(h, tring, 1) for h in h_vector]
    variables = [NCSeries.variable(tring, n, D, i) for i in range(n)]
    shifted = FormalMap([v - h for v, h in zip(variables, th)])
    cache = {}

    def extracted(i, l):
        image = compose(embed_series(prev_terms[l - 1][i], tring), shifted, cache)
        return t_residue_series(image, m - l)

    return tuple(
        -NCSeries.sum(ring, n, D, (extracted(i, l) for l in range(1, m)))
        for i in range(n)
    )


def n_seq_charp_direct(h_vector) -> NSequence:
    """The GF(p) sequence: the recurrence where m-1 is invertible, the
    residue step at the layers m = kp + 1 where it is not."""
    h_vector = tuple(h_vector)
    ring = h_vector[0].ring
    if not isinstance(ring, PrimeField):
        raise ValueError("charp-direct requires PrimeField coefficients")

    def layer(terms, m):
        if (m - 1) % ring.p == 0:
            return alt_recurrent_step(terms, h_vector, m)
        return _divided_convolution(terms, m)

    return NSequence.from_layers(h_vector, layer)


def invert_charp_direct(h_vector) -> FormalMap:
    return n_seq_charp_direct(h_vector).assemble()


# ---------------------------------------------------------------------------
# integer lift
# ---------------------------------------------------------------------------


def invert_charp_lift(h_vector) -> FormalMap:
    """Invert over GF(p) by lifting each coefficient of H to its integer
    representative in [0, p), running the characteristic-0 recurrence over
    the integers, and reducing every coefficient mod p.

    The fixed point M = H(z + M) needs no division, so every N_[m] of an
    integral H is integral: the divisions by m - 1 are exact, and reducing
    mod p afterwards gives the GF(p) inverse.  ``IntPolyRing`` raises
    AssertionError if one of them ever leaves a remainder.
    """
    h_vector, field = _vector_meta(h_vector)[:2]
    if not isinstance(field, PrimeField):
        raise ValueError("the lift starts from PrimeField coefficients")
    lift_ring = IntPolyRing()
    lifted = tuple(h.map_coefficients(int, new_ring=lift_ring) for h in h_vector)
    g_tilde = n_seq_recurrent(lifted).assemble()
    return FormalMap(
        [c.map_coefficients(field.from_int, new_ring=field) for c in g_tilde.components]
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    """Outcome of checking F(G) = id = G(F) to the truncation degree.

    On failure, the fields point at the degree-lexicographically first
    nonzero residual term (word letters reported 1-based).
    """

    ok: bool
    side: str = None
    component: int = None
    word: tuple = None
    degree: int = None
    coefficient: str = None

    def __bool__(self):
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "verified: both compositions equal the identity"
        letters = "".join(f"z{i}" for i in self.word) if self.word else "1"
        return (
            f"residual in {self.side}, component {self.component}: "
            f"{self.coefficient} * {letters} at degree {self.degree}"
        )

    def to_json_dict(self):
        if self.ok:
            return {"verified": True}
        return {
            "verified": False,
            "side": self.side,
            "component": self.component,
            "word": list(self.word),
            "degree": self.degree,
            "coefficient": self.coefficient,
        }


def _first_residual(residuals):
    """(sort key, component index, word, coefficient) of the
    degree-lexicographically first nonzero term of a vector of series, the
    lower component first on a tie; None if every series is zero."""
    best = None
    for i, residual in enumerate(residuals):
        for word, c in residual.terms():
            cand = (word_key(word), i, word, c)
            if best is None or cand[:2] < best[:2]:
                best = cand
            break  # terms() is degree-lex sorted: first term is minimal
    return best


def verify_inverse(f_map: FormalMap, g_map: FormalMap) -> VerifyReport:
    """Check both compositions against the identity; exact, no tolerance."""
    f_map.components[0]._check_compatible(g_map.components[0])
    failures = []
    for side, left, right in (("F(G)", f_map, g_map), ("G(F)", g_map, f_map)):
        hit = _first_residual(left.after(right).displacement())
        if hit is not None:
            key, i, word, c = hit
            failures.append((key, side, i, word, c))
    if not failures:
        return VerifyReport(ok=True)
    key, side, i, word, c = min(failures, key=lambda t: t[0])
    ring = f_map.ring
    return VerifyReport(
        ok=False,
        side=side,
        component=i + 1,
        word=tuple(j + 1 for j in word),
        degree=len(word),
        coefficient=ring.to_string(c),
    )


# ---------------------------------------------------------------------------
# engine dispatch
# ---------------------------------------------------------------------------


def _engine_table():
    """Engine name -> (function of H, needs characteristic 0: True, False
    for GF(p), None for any ring).  Rebuilt on every call, so a function
    patched onto its module after import is the one dispatched to."""
    from . import trees

    return {
        "fixed-point": (invert_fixed_point, None),
        "recurrent": (lambda h: n_seq_recurrent(h).assemble(), True),
        "tree": (trees.invert_tree, True),
        "charp-direct": (invert_charp_direct, False),
        "charp-lift": (invert_charp_lift, False),
    }


def engines_for_ring(ring):
    """Engine names applicable over the given coefficient ring."""
    zero = ring.characteristic == 0
    return tuple(
        name for name, (_, needs_zero) in _engine_table().items()
        if needs_zero in (None, zero)
    )


def check_engine(name, ring):
    """The function of engine ``name`` over ``ring``, or ValueError."""
    table = _engine_table()
    if name not in table:
        raise ValueError(f"unknown engine {name!r}; choose from {', '.join(table)}")
    valid = engines_for_ring(ring)
    if name not in valid:
        raise ValueError(
            f"engine {name!r} does not apply to this coefficient ring; "
            f"valid engines: {', '.join(valid)}"
        )
    return table[name][0]


def invert(h_vector, engine="fixed-point") -> FormalMap:
    """Run the selected engine on the displacement vector H of z - H."""
    h_vector = tuple(h_vector)
    return check_engine(engine, h_vector[0].ring)(h_vector)
