"""Truncated power series in noncommutative variables.

A monomial is a *word*.  At the boundary (``terms()``, ``coefficient()``,
``from_terms()``) a word is a tuple of 0-based letter indices, so ``(0, 1)``
is x*y and ``(1, 0)`` is y*x, and the two are distinct.  In storage a word of
length d over n letters is its base-n code, an int: x*y is 0*2 + 1 = 1 and
y*x is 1*2 + 0 = 2.  An :class:`NCSeries` stores its nonzero terms in
per-degree buckets and is truncated at a fixed degree ``D``: every product
silently drops words of degree > D, which is the whole point — all
identities in this package are graded, so a degree-D truncation is an exact
computation in the quotient by words of degree > D.

Coefficients live in a ring context from :mod:`ncinvert.rings` and commute
with everything; all noncommutativity is carried by the words.

Every series is built by one collector, ``NCSeries._collect``: sums,
products, derivations, compositions and ``from_terms`` hand it their
(key, coefficient) pairs degree by degree, and it is the one place where a
pair is added into a bucket and a cancelled key is dropped.  No module but
this one and :mod:`ncinvert.commutative` reads the buckets.

Series values are immutable by convention: no operation mutates its inputs,
and results may be shared freely.
"""

from __future__ import annotations

import math
from functools import partial

from .rings import Ring, coeff_bits

#: order of the zero series
INFINITE_ORDER = math.inf


def word_key(word):
    """Degree-lexicographic sort key."""
    return (len(word), word)


def word_text(word) -> str:
    """A word of 0-based letters as z1z2...; the empty word as 1."""
    return "".join("z%d" % (i + 1) for i in word) or "1"


class NCSeries:
    """A degree-truncated noncommutative power series.

    ``buckets`` maps a degree d to a dict {code: coefficient} holding the
    nonzero terms of that degree, keyed by the base-n code of each word;
    empty buckets are not stored.  The bucket records the length, so codes
    of different lengths never meet, and within one bucket numeric order is
    lexicographic order.  A product concatenates words as
    ``w1 * n**d2 + w2``, and a derivation splices an image into a word with a
    ``divmod`` and a multiply-add.  Two series are equal iff type, ring,
    arity, truncation degree and term mappings agree.

    Only the key methods below read a stored key: ``_key_degree``,
    ``_unit_key``, ``_check_key``, ``_key_in``, ``_key_out``, ``_products``,
    ``_splices`` and ``_key_text`` (the text of a key in ``repr``).  Every
    other method works on the buckets as they are or goes through the key
    methods, so a subclass keyed by other graded monomials
    (:class:`ncinvert.commutative.CommPoly`, by exponent vectors) overrides
    just those.  ``terms()``, ``coefficient()`` and ``from_terms()`` take
    and yield keys as tuples, encoding and decoding them with ``_key_in``
    and ``_key_out``: words here, exponent vectors (stored as they are) in
    the subclass.  A series has no JSON form of its own: the one JSON value
    of series is the ``"map"`` of the CLI's ``invert`` payload, built and
    written by ``ncinvert.cli``, and nothing reads JSON back.
    """

    __slots__ = ("ring", "arity", "degree", "buckets")

    def __init__(self, ring: Ring, arity: int, degree: int, buckets=None):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        if degree < 0:
            raise ValueError("truncation degree must be >= 0")
        self.ring = ring
        self.arity = arity
        self.degree = degree
        self.buckets = buckets if buckets is not None else {}

    # -- keys: the only code that reads a stored key ------------------------

    #: the degree of a key in its boundary form (a tuple word)
    _key_degree = staticmethod(len)

    @staticmethod
    def _unit_key(arity, i=None):
        """The stored key of 1, or of z_i (0-based) when ``i`` is given."""
        return 0 if i is None else i

    @staticmethod
    def _check_key(word, arity):
        """ValueError unless ``word`` names a monomial in ``arity`` letters."""
        if any(not 0 <= i < arity for i in word):
            raise ValueError(f"letter out of range in word {word}")

    def _key_in(self, word):
        """The stored key of a tuple word: its base-n code."""
        n = self.arity
        code = 0
        for letter in word:
            code = code * n + letter
        return code

    def _key_out(self, code, d):
        """The tuple word of length ``d`` whose base-n code is ``code``."""
        n = self.arity
        word = [0] * d
        for j in range(d - 1, -1, -1):
            code, word[j] = divmod(code, n)
        return tuple(word)

    def _products(self, b1, b2, d2, rmul):
        """The (key, coefficient) pairs of bucket times bucket, ``b2`` of
        degree ``d2``: words concatenate, so codes shift by n**d2 and add."""
        shift = self.arity ** d2
        return [
            (w1 * shift + w2, rmul(c1, c2))
            for w1, c1 in b1.items()
            for w2, c2 in b2.items()
        ]

    def _splices(self, bucket, d, images, rmul, positions=None):
        """The Leibniz terms of a derivation on one bucket of degree ``d``:
        per position and per image degree du that stays within the
        truncation, the output degree d - 1 + du and its (key, coefficient)
        pairs.  ``images`` is an image table (see ``_image_table``); each
        image term of z_i replaces z_i at each position in ``positions`` (all
        d of them by default).  At position j a code splits once into the
        letters before (``hi``), the letter and the letters after (``lo``,
        j+1..d-1), and every image degree reuses that split."""
        n = self.arity
        images = [(du, by_letter) for du, by_letter in images if d - 1 + du <= self.degree]
        if not images:
            # no split at all: derivations meet many buckets that no image fits
            return
        for j in range(d) if positions is None else positions:
            low = n ** (d - 1 - j)
            high = low * n
            split = [
                (hi, letter, lo, c)
                for code, c in bucket.items()
                for hi, rest in [divmod(code, high)]
                for letter, lo in [divmod(rest, low)]
            ]
            for du, by_letter in images:
                lift = n**du
                yield d - 1 + du, [
                    ((hi * lift + uw) * low + lo, rmul(c, uc))
                    for hi, letter, lo, c in split
                    for uw, uc in by_letter[letter]
                ]

    _key_text = staticmethod(word_text)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring, arity, degree):
        return cls(ring, arity, degree)

    @classmethod
    def constant(cls, ring, arity, degree, c):
        s = cls(ring, arity, degree)
        if not ring.is_zero(c):
            s.buckets[0] = {cls._unit_key(arity): c}
        return s

    @classmethod
    def one(cls, ring, arity, degree):
        return cls.constant(ring, arity, degree, ring.one())

    @classmethod
    def variable(cls, ring, arity, degree, i):
        """The series z_i (0-based index)."""
        if not 0 <= i < arity:
            raise ValueError(f"variable index {i} out of range for arity {arity}")
        s = cls(ring, arity, degree)
        if degree >= 1:
            s.buckets[1] = {cls._unit_key(arity, i): ring.one()}
        return s

    @classmethod
    def sum(cls, ring, arity, degree, items):
        """Merge many series of this kind, ring, arity and truncation in one
        accumulation pass (exact, so the result is independent of the order
        of ``items``)."""
        out = cls(ring, arity, degree)
        items = iter(items)
        first = next(items, out)
        out._check_compatible(first)

        def rest():
            for s in items:
                out._check_compatible(s)
                for d, b in s.buckets.items():
                    yield d, b.items()

        return out._collect(rest(), start=first)

    @classmethod
    def from_terms(cls, ring, arity, degree, terms):
        """Build from (key, coefficient) pairs, summing duplicates.

        Keys of degree > D are rejected: unlike arithmetic, explicit
        construction with out-of-range keys is a caller bug.
        """
        s = cls(ring, arity, degree)
        by_degree = {}
        for key, c in terms:
            key = tuple(key)
            cls._check_key(key, arity)
            d = cls._key_degree(key)
            if d > degree:
                raise ValueError(f"term of degree {d} exceeds truncation {degree}")
            by_degree.setdefault(d, []).append((s._key_in(key), c))
        return s._collect(by_degree.items())

    def _collect(self, stream, start=None):
        """The series of this kind, ring, arity and truncation holding
        ``start`` (copied, not changed) plus the pairs of ``stream``, which
        yields (degree, [(stored key, coefficient), ...]).  The one loop
        that adds terms: keys whose coefficient cancels and empty buckets
        are dropped."""
        ring = self.ring
        add, is_zero = ring.add, ring.is_zero
        buckets = {} if start is None else {d: dict(b) for d, b in start.buckets.items()}
        for d, pairs in stream:
            tgt = buckets.setdefault(d, {})
            for key, c in pairs:
                prev = tgt.get(key)
                val = c if prev is None else add(prev, c)
                if is_zero(val):
                    tgt.pop(key, None)
                else:
                    tgt[key] = val
        return type(self)(
            ring, self.arity, self.degree, {d: b for d, b in buckets.items() if b}
        )

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.buckets

    def order(self):
        """Minimal degree of a stored term; INFINITE_ORDER for zero."""
        if not self.buckets:
            return INFINITE_ORDER
        return min(self.buckets)

    def poly_degree(self):
        """Maximal degree of a stored term; -inf for zero."""
        if not self.buckets:
            return -math.inf
        return max(self.buckets)

    def is_homogeneous(self) -> bool:
        return len(self.buckets) <= 1

    def term_count(self) -> int:
        return sum(len(b) for b in self.buckets.values())

    def coeff_bits(self) -> int:
        """The width of the widest int or Fraction coefficient; 0 if none."""
        return max((coeff_bits(c) for b in self.buckets.values() for c in b.values()), default=0)

    def coefficient(self, key):
        key = tuple(key)
        self._check_key(key, self.arity)
        bucket = self.buckets.get(self._key_degree(key), {})
        return bucket.get(self._key_in(key), self.ring.zero())

    def terms(self):
        """Yield (key, coefficient) in degree-lexicographic order: within a
        degree, the order of the stored keys is that of the keys."""
        key_out = self._key_out
        for d in sorted(self.buckets):
            bucket = self.buckets[d]
            for key in sorted(bucket):
                yield key_out(key, d), bucket[key]

    # -- equality ------------------------------------------------------

    def __eq__(self, other):
        # exact types: only the kind tells two series with equal buckets apart
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.arity == other.arity
            and self.degree == other.degree
            and self.buckets == other.buckets
        )

    def __repr__(self):
        terms = ", ".join(
            f"{self.ring.to_string(c)}*{self._key_text(k)}" for k, c in self.terms()
        )
        return f"{type(self).__name__}({terms or '0'}; n={self.arity}, D={self.degree})"

    def _check_compatible(self, other):
        if type(other) is not type(self):
            raise ValueError(
                f"cannot mix {type(self).__name__} with {type(other).__name__}"
            )
        if self.ring != other.ring:
            raise ValueError("coefficient rings differ")
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
        if self.degree != other.degree:
            raise ValueError(
                f"truncation degree mismatch: {self.degree} vs {other.degree}"
            )

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return self._collect(
            ((d, b.items()) for d, b in other.buckets.items()), start=self
        )

    def __neg__(self):
        return self.map_coefficients(self.ring.neg)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a ring element (coefficients commute)."""
        return self.map_coefficients(partial(self.ring.mul, c))

    def scale_int(self, n: int):
        return self.scale(self.ring.from_int(n))

    def __mul__(self, other):
        """Truncated product: terms of degree > D are dropped."""
        self._check_compatible(other)
        rmul, products, D = self.ring.mul, self._products, self.degree
        return self._collect(
            (d1 + d2, products(b1, b2, d2, rmul))
            for d1, b1 in self.buckets.items()
            for d2, b2 in other.buckets.items()
            if d1 + d2 <= D
        )

    def __pow__(self, k: int):
        """Square-and-multiply; zero at once when order * k exceeds D."""
        if k < 0:
            raise ValueError("negative power of a series")
        if k and self.order() * k > self.degree:
            return type(self).zero(self.ring, self.arity, self.degree)
        out = type(self).one(self.ring, self.arity, self.degree)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- structural helpers ------------------------------------------------

    def truncated(self, degree: int):
        """The series re-truncated at ``degree``, below or above its bound
        (explicit, never implicit): buckets above ``degree`` are dropped and
        the rest are shared.  Raising the bound adds no terms, so it claims
        that the terms between the two bounds are zero."""
        buckets = {d: b for d, b in self.buckets.items() if d <= degree}
        return type(self)(self.ring, self.arity, degree, buckets)

    def map_coefficients(self, func, new_ring=None):
        """Apply ``func`` to every coefficient; drops values that become 0."""
        ring = new_ring if new_ring is not None else self.ring
        is_zero = ring.is_zero
        buckets = {}
        for d, b in self.buckets.items():
            tgt = {}
            for w, c in b.items():
                v = func(c)
                if not is_zero(v):
                    tgt[w] = v
            if tgt:
                buckets[d] = tgt
        return type(self)(ring, self.arity, self.degree, buckets)


# ---------------------------------------------------------------------------
# formal maps
# ---------------------------------------------------------------------------


class _SeriesVector:
    """An n-vector of NCSeries of one ring, arity and truncation: what a
    map and a derivation hold.  Two are equal iff they are of one class and
    their components are equal."""

    __slots__ = ("ring", "arity", "degree", "components")

    def __init__(self, components):
        components = _check_vector(components)
        first = components[0]
        self.ring = first.ring
        self.arity = first.arity
        self.degree = first.degree
        self.components = components

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.components == other.components


class FormalMap(_SeriesVector):
    """An n-vector of series, i.e. an endomorphism z_i -> components[i].

    The constructor checks only that the components form a vector;
    ``f_form`` and ``g_form`` check the shape z -/+ V with o(V) >= 2.
    """

    __slots__ = ()

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, ring, arity, degree):
        comps = [NCSeries.variable(ring, arity, degree, i) for i in range(arity)]
        return cls(comps)

    @classmethod
    def f_form(cls, h_vector):
        """Build z - H from the displacement vector H, o(H) >= 2 required."""
        h_vector = tuple(h_vector)
        _check_order_at_least(h_vector, 2, "H")
        first = h_vector[0]
        comps = [
            NCSeries.variable(first.ring, first.arity, first.degree, i) - h
            for i, h in enumerate(h_vector)
        ]
        return cls(comps)

    @classmethod
    def g_form(cls, m_vector):
        """Build z + M from the displacement vector M, o(M) >= 2 required."""
        m_vector = tuple(m_vector)
        _check_order_at_least(m_vector, 2, "M")
        first = m_vector[0]
        comps = [
            NCSeries.variable(first.ring, first.arity, first.degree, i) + m
            for i, m in enumerate(m_vector)
        ]
        return cls(comps)

    # -- queries ---------------------------------------------------------

    def component(self, i):
        return self.components[i]

    def displacement(self):
        """The vector V with map = z + V (so H = -displacement for F-form)."""
        return tuple(
            comp - NCSeries.variable(self.ring, self.arity, self.degree, i)
            for i, comp in enumerate(self.components)
        )

    def h_vector(self):
        """H such that the map is z - H."""
        return tuple(-v for v in self.displacement())

    def is_identity(self) -> bool:
        return all(v.is_zero() for v in self.displacement())

    def __repr__(self):
        return f"FormalMap({list(self.components)!r})"

    # -- composition -------------------------------------------------------

    def after(self, other):
        """The composed map self(other(z)): substitute ``other`` into self."""
        return FormalMap(compose_vector(self.components, other))


def _check_vector(vector):
    """The vector as a tuple, once its entries are known to be NCSeries of
    one ring, arity and truncation, with one entry per variable."""
    vector = tuple(vector)
    if not vector:
        raise ValueError("a vector of series needs at least one component")
    first = vector[0]
    if type(first) is not NCSeries:
        raise ValueError(f"a vector of series holds NCSeries, not {type(first).__name__}")
    for other in vector[1:]:
        first._check_compatible(other)
    if len(vector) != first.arity:
        raise ValueError(f"{len(vector)} components for arity {first.arity}")
    return vector


def _check_order_at_least(vector, bound, name):
    for i, s in enumerate(vector):
        if s.order() < bound:
            raise ValueError(
                f"{name} component {i + 1} has order {s.order()}, need >= {bound}"
            )


def vector_sum(ring, arity, degree, vectors):
    """The componentwise sum of ``vectors``, each ``arity`` series over
    ``ring`` truncated at ``degree``; the zero vector if there are none."""
    vectors = list(vectors)
    return tuple(
        NCSeries.sum(ring, arity, degree, (v[i] for v in vectors)) for i in range(arity)
    )


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def _image_table(components):
    """The terms of each component grouped by degree: a list of
    (du, [terms of degree du of component i, for each i]) in increasing du,
    the form in which ``NCSeries._splices`` reads the images of the letters."""
    return [
        (du, [list(u.buckets.get(du, {}).items()) for u in components])
        for du in sorted({du for u in components for du in u.buckets})
    ]


def _splice_pass(target, source, table, k, room):
    """``target`` plus the terms of ``source`` with the images of ``table``
    (see ``_image_table``) spliced at position ``k``, keeping the spliced
    terms of degree <= ``room``: one right-to-left pass of a substitution."""
    rmul = source.ring.mul
    spliced = (
        pairs
        for d, bucket in source.buckets.items()
        for pairs in source._splices(
            bucket, d, [(du, row) for du, row in table if d - 1 + du <= room], rmul, (k,)
        )
    )
    return target._collect(spliced, start=target)


def compose(u: NCSeries, f_map: FormalMap, cache=None) -> NCSeries:
    """Substitute the map into the series: each word z_i1...z_im of ``u``
    becomes the ordered product F_i1 * ... * F_im.

    With F = z + V, substituting into a word chooses, letter by letter, to
    keep z_i or to put V_i in its place.  The letters are replaced one
    position at a time, from the right end to the left.  Before the pass at
    position k each term is a raw prefix of k+1 letters followed by a tail
    that is already substituted; the words of ``u`` of length k+1 join, and
    the pass keeps every term (the letter at k stays z_i) and adds the terms
    with V spliced at k (``_splice_pass``).  Terms that share a raw prefix
    and a tail merge before the next pass.

    Requires every component of the map to have order >= 1 (a constant term
    would make substitution non-convergent degree by degree).  So every raw
    letter still adds degree >= 1, a term whose length passes D is dropped
    at once, and the result stays exact.  ``cache`` may be a dict shared
    between calls composing with the *same* map: it holds the image table of
    V = F - z, the terms of each component grouped by degree, under the key
    ``()``.
    """
    f_map.components[0]._check_compatible(u)
    for i, comp in enumerate(f_map.components):
        if comp.order() < 1:
            raise ValueError(f"map component {i + 1} has a constant term")
    if cache is None:
        cache = {}
    table = cache.get(())
    if table is None:
        table = cache[()] = _image_table(f_map.displacement())
    words = u.buckets
    out = NCSeries(u.ring, u.arity, u.degree)
    for k in range(max(words, default=0) - 1, -1, -1):
        if k + 1 in words:
            # every term so far is longer than k + 1, so no key is shared
            out = NCSeries(u.ring, u.arity, u.degree, {**out.buckets, k + 1: words[k + 1]})
        out = _splice_pass(out, out, table, k, u.degree)
    if 0 in words:
        out = NCSeries(u.ring, u.arity, u.degree, {**out.buckets, 0: words[0]})
    return out


def compose_vector(vector, f_map: FormalMap, cache=None):
    """Componentwise substitution sharing one image table."""
    if cache is None:
        cache = {}
    return tuple(compose(u, f_map, cache) for u in vector)


def replace_letters(u: NCSeries, images, j: int) -> NCSeries:
    """S_j(u): each word of ``u`` becomes the sum, over the ways to choose
    exactly ``j`` of its letters, of the word with each chosen letter z_i
    replaced by ``images[i]`` and the other letters kept.  Expanding
    z - t*H letter by letter gives [t^j] u(z - t*H) = (-1)^j S_j(u) with
    ``images`` = H, computed here over the base ring.

    The passes are those of ``compose``, from the right end to the left, with
    j + 1 states: state s holds the terms with s letters replaced so far.
    The words of ``u`` of length k+1 join state 0 before the pass at position
    k; in that pass state s keeps its own terms (the letter at k is kept) and
    takes the terms of state s - 1 with the images spliced at k.  State s is
    dropped once its j - s missing replacements no longer fit: after pass k,
    when j - s > k positions would be needed, and, with r = o(images), every
    term of degree d + (j - s)(r - 1) > D, since each replacement still to
    come adds at least r - 1 to the degree.  S_0 is u itself, and with no
    images (H = 0, of order infinity) S_j is 0 for j >= 1, so the prune only
    ever sees a finite r.  The images must have order >= 1, as in
    ``compose``, so that no term of degree > D can come back below D.
    The image table is built on each call: it holds only the terms of the
    images.
    """
    images = _check_vector(images)
    images[0]._check_compatible(u)
    for i, image in enumerate(images):
        if image.order() < 1:
            raise ValueError(f"image {i + 1} has a constant term")
    if j < 0:
        raise ValueError(f"cannot replace j = {j} letters: j must be >= 0")
    if j == 0:
        return u
    table = _image_table(images)
    D, words = u.degree, u.buckets
    empty = NCSeries(u.ring, u.arity, D)
    if not table:
        # r = inf would turn the prune's 0 * inf at s = j into nan
        return empty
    r = table[0][0]
    # room[s]: the largest degree a term of state s may reach
    room = [D - (j - s) * (r - 1) for s in range(j + 1)]
    states = [empty] * (j + 1)
    for k in range(max(words, default=0) - 1, -1, -1):
        if k + 1 in words and j <= k + 1 <= room[0]:
            # state 0 holds raw words of u, so no key is shared
            states[0] = NCSeries(
                u.ring, u.arity, D, {**states[0].buckets, k + 1: words[k + 1]}
            )
        low = max(j - k, 0)
        states = [empty] * low + [
            _splice_pass(states[s], states[s - 1], table, k, room[s]) if s else states[0]
            for s in range(low, j + 1)
        ]
    return states[j]


def _substitute(vector, point):
    """vector(point) for NCSeries: the substitution of the fixed-point loop."""
    return compose_vector(vector, FormalMap(point))


def _fixed_point(h_vector, substitute):
    """M = H(z + M) by passes of M <- substitute(H, z + M) from M = 0.

    ``h_vector`` fixes the kind (NCSeries or commutative polynomials), ring,
    arity and truncation D of M; ``substitute(vector, point)`` evaluates a
    vector at a point of the vector's truncation.  With r = o(H) >= 2, M = 0
    is exact through degree r - 1, and the degree-e part of H(z + M) reads M
    only through degree e - (r - 1).  So pass k (from 1) runs at truncation
    d = min(D, (k + 1)(r - 1)), with H cut to d and the previous M raised to
    d, and leaves M exact through d: (D - 1) // (r - 1) passes reach D, which
    is D - 1 when H has a quadratic term and none when r > D.
    """
    first = h_vector[0]
    kind, ring, n, D = type(first), first.ring, first.arity, first.degree
    r = min(h.order() for h in h_vector)
    m_vec = tuple(kind.zero(ring, n, D) for _ in range(n))
    passes = (D - 1) // (r - 1) if r <= D else 0
    for k in range(1, passes + 1):
        d = min(D, (k + 1) * (r - 1))
        point = tuple(
            kind.variable(ring, n, d, i) + m.truncated(d) for i, m in enumerate(m_vec)
        )
        m_vec = substitute(tuple(h.truncated(d) for h in h_vector), point)
    return m_vec


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


class Derivation(_SeriesVector):
    """The coefficient-linear derivation sending z_i to components[i].

    Application follows the Leibniz rule letter by letter: the image of a
    word z_i1...z_im is the sum over positions j of
    z_i1...z_i(j-1) * u_ij * z_i(j+1)...z_im.  This is substitution at each
    letter position, *not* left multiplication: applying the derivation that
    sends x to u (and y to 0) to the word yx yields y*u, not u*y.  The
    image table of the components is built once, with the derivation.
    """

    __slots__ = ("images",)

    def __init__(self, components):
        super().__init__(components)
        self.images = _image_table(self.components)

    @classmethod
    def coordinate(cls, ring, arity, degree, i):
        """The derivation z_i -> 1, z_j -> 0: a bare partial-slot derivation."""
        comps = [NCSeries.zero(ring, arity, degree) for _ in range(arity)]
        comps[i] = NCSeries.one(ring, arity, degree)
        return cls(comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def _leibniz_terms(self, f: NCSeries):
        """The Leibniz terms of the derivation on ``f``, uncollected: the
        (degree, [(stored key, coefficient), ...]) stream of
        ``NCSeries._splices`` over the buckets of ``f``, truncated at its
        degree bound.  ``apply`` collects it into a series, and
        ``derivation_sum`` collects many of them into one."""
        self.components[0]._check_compatible(f)
        images, rmul = self.images, self.ring.mul
        for d, bucket in f.buckets.items():
            yield from f._splices(bucket, d, images, rmul)

    def apply(self, f: NCSeries) -> NCSeries:
        """Apply to a series, truncating at its degree bound."""
        return f._collect(self._leibniz_terms(f))

    def apply_vector(self, vector):
        return tuple(self.apply(f) for f in vector)


def derivation_sum(ring, arity, degree, applications):
    """The sum of ``delta.apply(f)`` over the (Derivation, series) pairs of
    ``applications``, each series ``arity`` letters over ``ring`` truncated
    at ``degree``, in one accumulation pass: the Leibniz terms of every pair
    go into one collection, and no ``delta.apply(f)`` is built."""
    return NCSeries(ring, arity, degree)._collect(
        pairs for delta, f in applications for pairs in delta._leibniz_terms(f)
    )


# ---------------------------------------------------------------------------
# Jacobian-style matrices: tuples of row vectors
# ---------------------------------------------------------------------------


def jacobian_tilde(vector):
    """The transposed Jacobian as a tuple of rows: entry (i, j) applies the
    z_i slot derivation to component j.  For the identity map this is the
    identity matrix."""
    vector = vector.components if isinstance(vector, FormalMap) else tuple(vector)
    first = vector[0]
    ring, n, D = first.ring, first.arity, first.degree
    return tuple(Derivation.coordinate(ring, n, D, i).apply_vector(vector) for i in range(n))


def matrix_derivation_apply(rows, vector):
    """Row i of the matrix acts as a derivation on each vector entry,
    producing the matrix (delta_i applied to vector[j])."""
    return tuple(Derivation(row).apply_vector(vector) for row in rows)


# ---------------------------------------------------------------------------
# induced action on derivations
# ---------------------------------------------------------------------------


def star_action(f_map: FormalMap, f_inv: FormalMap, delta: Derivation) -> Derivation:
    """The action of the *inverse* of ``f_map`` on ``delta``: the derivation
    with components (delta F_i)(F_inv).

    ``f_inv`` is caller-supplied and verified: f_map(f_inv) must be the
    identity to the shared truncation degree.
    """
    check = f_map.after(f_inv)
    if not check.is_identity():
        raise ValueError("supplied inverse fails f(g) = id at this truncation")
    return Derivation(compose_vector(delta.apply_vector(f_map.components), f_inv))
