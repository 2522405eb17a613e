"""Inversion engines for maps z - H(z) with o(H) >= 2.

Five engines reach the same inverse by routes kept deliberately independent
so they can check each other; ``invert`` dispatches to them by name through
one table, and ``check_engine`` is the one test of a name against a ring:

* ``fixed-point``: the substitution M <- H(z + M), over any ring;
* ``recurrent``: the characteristic-0 engine of the recurrence
  N_[1] = H,  (m-1) N_[m] = sum_{k+l=m} [N_[k] d/dz] N_[l];
* ``tree`` (in ``trees``): N_[m] as the sum over planar binary trees with
  m leaves weighted by 1/T^!, characteristic 0;
* ``charp-direct``: the GF(p) engine of the division-free residue formula
  N_[m] = -[t^m] (sum_{l<m} t^l N_[l])(z - t*H) at every layer m >= 2,
  a substitution of the map F = z - H itself: one pass of
  ``freealg.replace_letters`` per component over the base ring, all on the
  image table of F, with one state per count of letters still to replace,
  pruned once they outnumber the positions left or would push the degree
  past D;
* ``charp-lift``: over GF(p), lift the coefficients of H to their integer
  representatives, run the recurrence over the integers, reduce mod p.

Each layered engine has one layer rule, and the two over GF(p) share none:
``n_seq_recurrent`` is the recurrence in characteristic 0 only, which
``recurrent`` runs over Q and ``charp-lift`` over the integers.  The layered
engines build their terms with the one loop ``NSequence.from_layers`` and
differ only in the layer they hand it; each
returns its ``NSequence``, which ``invert`` alone sums into the inverse
z + sum_m N_[m].  Since o(N_[m]) >= m+1, the terms with m >= D are
invisible at truncation degree D, so engines compute D-1 of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freealg import (
    Derivation,
    FormalMap,
    _check_order_at_least,
    _check_vector,
    _fixed_point,
    _substitute,
    derivation_sum,
    replace_letters,
    vector_sum,
    word_text,
)
from .rings import IntPolyRing, PrimeField

def _vector_meta(h_vector):
    h_vector = _check_vector(h_vector)
    _check_order_at_least(h_vector, 2, "H")
    first = h_vector[0]
    if first.torder is not None:
        raise ValueError("the engines invert NCSeries; a t-graded H is a DeformedMap")
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
        return FormalMap.g_form(vector_sum(self.ring, self.arity, self.degree, self.terms))

    def validate_bounds(self):
        """Check the order / degree / homogeneity bounds that N_[1] = H sets.

        Raises AssertionError on the first violated bound, explicitly rather
        than by ``assert``, so that ``python -O`` keeps the check; used by
        tests and the identity suite's ``sequence-bounds`` check.
        """
        if not self.terms:
            return
        h_vector = self.terms[0]
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
    """sum_{k+l=m, k,l>=1} [N_[k] d/dz] N_[l] from terms[0..m-2]: the m - 1
    applications of each component in one ``derivation_sum`` pass."""
    first = terms[0][0]
    ring, n, D = first.ring, first.arity, first.degree
    deltas = [Derivation(terms[k - 1]) for k in range(1, m)]
    return tuple(
        derivation_sum(
            ring, n, D, ((deltas[k - 1], terms[m - k - 1][i]) for k in range(1, m))
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


def n_seq_recurrent(h_vector) -> NSequence:
    """N_[1..D-1] by the recurrence: from N_[1] = H, every layer is the
    divided convolution.  It divides by m - 1, so it refuses a ring of
    nonzero characteristic, where m - 1 is 0 at m = kp + 1."""
    if _vector_meta(h_vector)[1].characteristic:
        raise ValueError("the recurrence divides by m - 1: it needs characteristic 0")
    return NSequence.from_layers(h_vector, _divided_convolution)


# ---------------------------------------------------------------------------
# residue extraction (division-free step)
# ---------------------------------------------------------------------------


def alt_recurrent_step(terms, m, f_map=None):
    """N_[m] from ``terms`` = N_[1..m-1] by coefficient extraction: the
    charp-direct engine's layer at every m >= 2.

    Substituting z -> z - t*H into the lower terms and reading off t-powers
    gives, for m >= 2,

        N_[m](z) = - [t^m]  (sum_{l=1..m-1}  t^l N_[l])(z - t*H),

    which uses no division at all and therefore works in any characteristic.
    With F = z - H, whose displacement is -H, that is
    N_[m] = - sum_l [t^(m-l)] N_[l](z + t*(F - z)): one ``replace_letters``
    call per component over the base ring, all reading the image table of
    one F.  ``f_map`` is F; when it is not given, it is built from
    H = ``terms[0]``, since N_[1] = H.
    """
    if m < 2:
        raise ValueError("residue step starts at m = 2")
    if len(terms) < m - 1:
        raise ValueError(f"need N_[1..{m - 1}], got {len(terms)} terms")
    if f_map is None:
        f_map = FormalMap.f_form(terms[0])
    return tuple(
        -replace_letters({m - l: terms[l - 1][i] for l in range(1, m)}, f_map)
        for i in range(len(terms[0]))
    )


def n_seq_charp_direct(h_vector) -> NSequence:
    """The GF(p) sequence of the charp-direct engine: from N_[1] = H, the
    residue step ``alt_recurrent_step`` at every layer, no division, each
    layer reading the one map F = z - H and its image table."""
    h_vector, ring = _vector_meta(h_vector)[:2]
    if not isinstance(ring, PrimeField):
        raise ValueError("charp-direct requires PrimeField coefficients")
    f_map = FormalMap.f_form(h_vector)
    return NSequence.from_layers(h_vector, lambda terms, m: alt_recurrent_step(terms, m, f_map))


def invert_charp_direct(h_vector) -> FormalMap:
    return n_seq_charp_direct(h_vector).assemble()


# ---------------------------------------------------------------------------
# integer lift
# ---------------------------------------------------------------------------


def n_seq_charp_lift(h_vector) -> NSequence:
    """The GF(p) sequence of the charp-lift engine: lift each coefficient of
    H to its integer representative in [0, p), run the characteristic-0
    recurrence over the integers, and reduce each layer mod p.

    The fixed point M = H(z + M) needs no division, so every N_[m] of an
    integral H is integral: the divisions by m - 1 are exact, and reducing
    mod p afterwards gives the GF(p) sequence.  ``IntPolyRing`` raises
    AssertionError if one of them ever leaves a remainder.
    """
    h_vector, field = _vector_meta(h_vector)[:2]
    if not isinstance(field, PrimeField):
        raise ValueError("the lift starts from PrimeField coefficients")
    lift_ring = IntPolyRing()
    lifted = tuple(h.map_coefficients(int, new_ring=lift_ring) for h in h_vector)
    nseq = n_seq_recurrent(lifted)
    nseq.ring = field
    for m, vec in enumerate(nseq.terms):
        nseq.terms[m] = tuple(s.map_coefficients(field.from_int, new_ring=field) for s in vec)
    return nseq


def invert_charp_lift(h_vector) -> FormalMap:
    return n_seq_charp_lift(h_vector).assemble()


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
    tpower: int = None  # the power of t of the term, for t-graded series

    def __bool__(self):
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "verified: both compositions equal the identity"
        letters = word_text(j - 1 for j in self.word)
        if self.tpower is not None:
            letters += f" * t^{self.tpower}"
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
    """(sort key, component index, key, coefficient) of the
    degree-lexicographically first nonzero term of a vector of series, the
    lower component first on a tie; None if every series is zero.  The sort
    key is (degree, key): for a word, ``word_key``.  Each series gives its
    least term alone (``first_term``): no bucket is sorted."""
    best = None
    for i, residual in enumerate(residuals):
        term = residual.first_term()
        if term is not None:
            cand = ((residual._key_degree(term[0]), term[0]), i, *term)
            if best is None or cand[:2] < best[:2]:
                best = cand
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
    tpower = None
    if f_map.components[0].torder is not None:
        word, tpower = word
    return VerifyReport(
        ok=False,
        side=side,
        component=i + 1,
        word=tuple(j + 1 for j in word),
        degree=len(word),
        coefficient=ring.to_string(c),
        tpower=tpower,
    )


# ---------------------------------------------------------------------------
# engine dispatch
# ---------------------------------------------------------------------------


def _any_ring(ring):
    return True


def _char_zero(ring):
    return ring.characteristic == 0


def _prime_field(ring):
    return isinstance(ring, PrimeField)


def _engine_table():
    """Engine name -> (function of H, the engine's rule on the coefficient
    ring: any ring, characteristic 0, or a PrimeField).  A layered engine's
    function returns its ``NSequence``, which ``invert`` assembles; the
    fixed point's returns the map.  Rebuilt on every call, so a function
    patched onto its module after import is the one dispatched to."""
    from . import trees

    return {
        "fixed-point": (invert_fixed_point, _any_ring),
        "recurrent": (n_seq_recurrent, _char_zero),
        "tree": (trees.n_seq_tree, _char_zero),
        "charp-direct": (n_seq_charp_direct, _prime_field),
        "charp-lift": (n_seq_charp_lift, _prime_field),
    }


def engines_for_ring(ring):
    """Engine names applicable over the given coefficient ring."""
    return tuple(
        name for name, (_, applies) in _engine_table().items() if applies(ring)
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
    h_vector = _check_vector(h_vector)
    out = check_engine(engine, h_vector[0].ring)(h_vector)
    return out.assemble() if isinstance(out, NSequence) else out
