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

Stored codes leave a series by table (``word_decoder``): for n letters the
chunk length L is the largest with n**L <= ``WORD_TABLE_CAP`` (at least 1,
at most ``MAX_CHUNK``), and the table lists the words of length L in code
order, so ``table[code]`` is the word, and a shorter word is the tail of the
entry with its code.  A code of length d decodes with ceil(d/L) lookups, one
division by n**L per chunk.  A table is built on first use and depends on
nothing but the arity and the number of the first letter.

Every series is built by one collector, ``NCSeries._collect``: sums,
products, derivations, compositions and ``from_terms`` hand it their terms
degree by degree, as lists of (key, coefficient) pairs or, from the splice
kernel when a block has at least as many pairs as keys, as a dense ``Row``.
It is the one place where a term is added into a bucket and a cancelled key
is dropped.  The splice kernel, ``NCSeries._splices``, is one stream per
series: each derivation and each substitution pass collects the splices of
one series over one image table (``_image_table``).  A bucket is collected
in one of two forms.  It starts as a dict, and each pair looks its key up by
hash.  When a row reaches it, or once the pair lists of at least
``DENSE_BLOCK`` pairs sent to one degree d have brought more pairs than
there are keys of degree d (``_key_space(d)``: n**d words), the bucket moves
into a list indexed by key.  The list goes back to a dict of its nonzero
entries before the series is made, so both forms give the same series.  No
module but this one, :mod:`ncinvert.commutative` and
:mod:`ncinvert.deformation` reads the buckets.

Series values are immutable by convention: no operation mutates its inputs,
and results may be shared freely.
"""

from __future__ import annotations

import math
from functools import cache, partial
from itertools import repeat, tee
from operator import add, floordiv, itemgetter, mod

from .rings import Ring, coeff_bits

#: order of the zero series
INFINITE_ORDER = math.inf

#: the least block that counts toward a bucket's switch to the list form in
#: ``NCSeries._collect``; a smaller block goes through the dict uncounted, so
#: that a collect of many small blocks (most of the identity suite's) pays
#: nothing for the count
DENSE_BLOCK = 16


class Row(list):
    """A dense block of the stream of ``NCSeries._collect``: the coefficient
    of every key of its degree, indexed by key, zeros included, in at least
    ``DENSE_BLOCK`` slots.  Values may be unreduced (see ``Ring.row_rules``),
    and the collector may take the list over as its own."""

    __slots__ = ()


def word_key(word):
    """Degree-lexicographic sort key."""
    return (len(word), word)


def word_text(word) -> str:
    """A word of 0-based letters as z1z2...; the empty word as 1."""
    return "".join("z%d" % (i + 1) for i in word) or "1"


#: the most words that a decoder table lists, unless one letter is already
#: more: then the table lists the n one-letter words
WORD_TABLE_CAP = 256
#: the longest chunk: two letters reach it at the cap, and it bounds one
#: letter, whose table lists a single word
MAX_CHUNK = WORD_TABLE_CAP.bit_length() - 1


def chunk_length(arity):
    """The letters that one table lookup decodes: the largest L <=
    ``MAX_CHUNK`` with arity**L <= ``WORD_TABLE_CAP``, and at least 1."""
    chunk = 1
    while chunk < MAX_CHUNK and arity ** (chunk + 1) <= WORD_TABLE_CAP:
        chunk += 1
    return chunk


@cache
def word_decoder(arity, first=0):
    """``decode(codes, d)``: an iterator over the tuple words of length
    ``d`` whose base-n codes, n = ``arity``, are ``codes``, with letters
    numbered from ``first``.

    The one table lists the n**L words of length L in code order.  A code
    of length d <= L is also the code of its word with L - d letters of
    digit 0 put in front, so its word is the last d letters of one table
    entry.  A longer code splits into its last L letters
    (code % n**L) and the rest (code // n**L), each decoded by the table,
    and the two words concatenate: ceil(d/L) lookups per word.  The words
    come one at a time, so a bucket's words are never all held at once.
    """
    chunk = chunk_length(arity)
    words = [()]
    for _ in range(chunk):
        words = [w + (a,) for w in words for a in range(first, first + arity)]
    table, base = words.__getitem__, arity**chunk

    def decode(codes, d):
        if d <= chunk:
            return map(itemgetter(slice(chunk - d, None)), map(table, codes))
        high, low = tee(codes)
        return map(
            add,
            decode(map(floordiv, high, repeat(base)), d - chunk),
            map(table, map(mod, low, repeat(base))),
        )

    return decode


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
    ``_unit_key``, ``_check_key``, ``_key_in``, ``_keys_out``,
    ``_key_space`` (the number of stored keys of a degree, which bounds the
    list form of a bucket in ``_collect``; no bound for keys that are not
    ints), ``_products`` (pairs), ``_splices`` (the Leibniz terms of the
    whole series over an image table: a pair list or, through
    ``_splice_row``, a dense row per block), ``_image_terms`` (an image
    bucket as ``_splices`` reads it) and ``_key_text`` (the text of a key in
    ``repr``).  Every other method works on the buckets as they are or goes
    through the key methods, so a subclass keyed by other graded monomials
    (:class:`ncinvert.commutative.CommPoly`, by exponent vectors) overrides
    just those.  ``terms()``, ``first_term()``, ``coefficient()`` and
    ``from_terms()`` take and yield keys as tuples, encoding them one at a
    time with ``_key_in`` and decoding a sorted bucket in one pass with
    ``_keys_out``: words here, by the tables of ``word_decoder``, and
    exponent vectors (stored as they are) in the subclass.  The t-graded
    kinds of :mod:`ncinvert.deformation` add a t-power to the keys of this
    kind or of ``CommPoly``; ``torder`` is their bound K.  A series has
    no JSON form of its own: the one JSON value of series is the ``"map"``
    of the CLI's ``invert`` payload, built and written by ``ncinvert.cli``,
    and nothing reads JSON back.
    """

    __slots__ = ("ring", "arity", "degree", "buckets")

    #: the t-order K of a t-graded kind; a kind without t has none
    torder = None

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

    def _keys_out(self, codes, d, first=0):
        """The tuple words of length ``d`` whose base-n codes are ``codes``,
        with letters numbered from ``first``, as an iterable."""
        return word_decoder(self.arity, first)(codes, d)

    def _key_space(self, d):
        """The number of stored keys of degree ``d``, each an int below it:
        the n**d codes of the words of length d (see ``_collect``)."""
        return self.arity**d

    def _products(self, b1, b2, d2, rmul):
        """The (key, coefficient) pairs of bucket times bucket, ``b2`` of
        degree ``d2``: words concatenate, so codes shift by n**d2 and add."""
        shift = self.arity ** d2
        return [
            (w1 * shift + w2, rmul(c1, c2))
            for w1, c1 in b1.items()
            for w2, c2 in b2.items()
        ]

    def _splices(self, images, positions=None):
        """The Leibniz terms of a derivation on this series, uncollected:
        per bucket of degree d and image degree du that stays within the
        truncation, the output degree d - 1 + du and its block.  ``images``
        is an image table (see ``_image_table``), in increasing du; each
        image term of z_i replaces z_i at each position in ``positions``
        (all d of them by default; given ones must be below every d).

        The block of a du is one ``Row`` of its S = n**(d - 1 + du) output
        keys (``_splice_row``) when P >= S >= ``DENSE_BLOCK``, P being its
        pairs counted from below before any exists: per position, each term
        meets at least the fewest image terms of one letter, which the table
        holds.  So a row never holds more slots than the pairs it replaces.
        Otherwise it is a list of (key, coefficient) pairs: at position j a
        code splits once into the letters before (``hi``), the letter and
        the letters after (``lo``, j+1..d-1), and every image degree in
        pairs reuses that split."""
        n, rmul = self.arity, self.ring.mul
        for d, bucket in self.buckets.items():
            at = range(d) if positions is None else positions
            reach, pairs = len(bucket) * len(at), []
            for du, by_letter, fewest in images:
                if d - 1 + du > self.degree:
                    break
                if DENSE_BLOCK <= n ** (d - 1 + du) <= reach * fewest:
                    yield d - 1 + du, self._splice_row(bucket, d, du, by_letter, at)
                else:
                    pairs.append((du, by_letter))
            if not pairs:
                # no split at all: derivations meet many buckets that no image fits
                continue
            for j in at:
                low = n ** (d - 1 - j)
                high = low * n
                split = [
                    (hi, letter, lo, c)
                    for code, c in bucket.items()
                    for hi, rest in [divmod(code, high)]
                    for letter, lo in [divmod(rest, low)]
                ]
                for du, by_letter in pairs:
                    lift = n**du
                    yield d - 1 + du, [
                        ((hi * lift + uw) * low + lo, rmul(c, uc))
                        for hi, letter, lo, c in split
                        for uw, uc in by_letter[letter]
                    ]

    def _splice_row(self, bucket, d, du, by_letter, positions):
        """The ``Row`` of the Leibniz terms of ``_splices`` with images of
        degree ``du``.  At position j, with low = n**(d - 1 - j), an output
        key is (hi * n**du + uw) * low + lo, so the terms that differ in one
        of lo (the letters after j), hi (the letters before it) or uw (the
        image word) lie at one stride of the row.  Each position adds them
        along the axis that takes the fewest slice assignments, one ``map``
        of the ring's ``row_rules`` per slice: the source read as a list of
        n**d slots, per image term, for the first two; the image of each
        stored term's letter as a list of n**du slots for the third."""
        n, ring = self.arity, self.ring
        add, mul, _ = ring.row_rules()
        zero = ring.zero()
        lift = n**du
        row = Row([zero] * n ** (d - 1 + du))
        terms = sum(map(len, by_letter))
        src = img = None
        for j in positions:
            low = n ** (d - 1 - j)
            high = low * n
            before = n**j
            if len(bucket) < min(before, low) * terms:
                if img is None:
                    img = [[zero] * lift for _ in by_letter]
                    for dense, sparse in zip(img, by_letter):
                        for uw, uc in sparse:
                            dense[uw] = uc
                for code, c in bucket.items():
                    hi, rest = divmod(code, high)
                    letter, lo = divmod(rest, low)
                    at = slice(hi * lift * low + lo, (hi + 1) * lift * low, low)
                    row[at] = map(add, row[at], map(mul, repeat(c), img[letter]))
                continue
            if src is None:
                src = [zero] * n**d
                for code, c in bucket.items():
                    src[code] = c
            if before <= low:
                for hi in range(before):
                    for letter, sparse in enumerate(by_letter):
                        start = (hi * n + letter) * low
                        part = src[start : start + low]
                        for uw, uc in sparse:
                            at = slice((hi * lift + uw) * low, (hi * lift + uw + 1) * low)
                            row[at] = map(add, row[at], map(mul, part, repeat(uc)))
            else:
                for letter, sparse in enumerate(by_letter):
                    for lo in range(low):
                        part = src[letter * low + lo :: high]
                        for uw, uc in sparse:
                            at = slice(uw * low + lo, None, lift * low)
                            row[at] = map(add, row[at], map(mul, part, repeat(uc)))
        return row

    _image_terms = staticmethod(dict.items)

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
        ``start`` (copied, not changed) plus the blocks of ``stream``, which
        yields (degree, block): a block is an iterable of (stored key,
        coefficient) pairs or a ``Row``.  The one loop that adds terms: keys
        whose coefficient cancels and empty buckets are dropped.

        A bucket is collected in one of two forms.  It starts as a dict, and
        each pair looks its key up by hash and drops a key that cancels.  It
        moves into a list indexed by key, of ``_key_space(d)`` slots, when a
        row arrives (the row becomes the list), or once the pair lists of at
        least ``DENSE_BLOCK`` pairs sent to it have brought more pairs than
        it has keys (a list filled with ``ring.zero()``; a smaller list is
        added at once, with no count).  A list adds a later pair by index
        and a later row slot by slot, with no zero test, by the ring's
        ``row_rules``.  At the end a list turns back into the dict of its
        nonzero entries, reduced once if the rules say so, so a series
        leaves here as it would have left the dict alone."""
        ring = self.ring
        add, is_zero = ring.add, ring.is_zero
        buckets = {} if start is None else {d: dict(b) for d, b in start.buckets.items()}
        # dense: the buckets in list form; left: per degree, the pairs of
        # counted blocks still to come before the switch (both made, with
        # the row rules, at the first row or counted block)
        dense = left = None
        for d, block in stream:
            if dense and d in dense:
                arr = dense[d]
                if type(block) is Row:
                    arr[:] = map(radd, arr, block)
                else:
                    for key, c in block:
                        arr[key] = radd(arr[key], c)
                continue
            tgt = buckets.setdefault(d, {})
            if len(block) >= DENSE_BLOCK:
                if left is None:
                    dense, left = {}, {}
                    radd, _, modulus = ring.row_rules()
                if type(block) is Row:
                    arr = dense[d] = block
                    for key, c in tgt.items():
                        arr[key] = radd(arr[key], c)
                    continue
                room = left.get(d)
                room = left[d] = (self._key_space(d) if room is None else room) - len(block)
                if room < 0:
                    arr = dense[d] = [ring.zero()] * self._key_space(d)
                    for key, c in tgt.items():
                        arr[key] = c
                    for key, c in block:
                        arr[key] = radd(arr[key], c)
                    continue
            for key, c in block:
                prev = tgt.get(key)
                val = c if prev is None else add(prev, c)
                if is_zero(val):
                    tgt.pop(key, None)
                else:
                    tgt[key] = val
        if dense:
            for d, arr in dense.items():
                if modulus:
                    arr = map(mod, arr, repeat(modulus))
                buckets[d] = {key: c for key, c in enumerate(arr) if not is_zero(c)}
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

    def terms(self, first=0):
        """Yield (key, coefficient) in degree-lexicographic order: within a
        degree, the order of the stored keys is that of the keys.  Each
        bucket is sorted once and decoded in one pass; ``first`` numbers
        the letters of a word (1 for the CLI's words)."""
        for d in sorted(self.buckets):
            bucket = self.buckets[d]
            keys = sorted(bucket)
            yield from zip(self._keys_out(keys, d, first), map(bucket.__getitem__, keys))

    def first_term(self):
        """The degree-lexicographically least (key, coefficient), or None
        for zero: the least key of the lowest bucket, decoded alone."""
        if not self.buckets:
            return None
        d = min(self.buckets)
        bucket = self.buckets[d]
        key = min(bucket)
        return next(iter(self._keys_out([key], d))), bucket[key]

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
    ``f_form`` and ``g_form`` check the shape z -/+ V with o(V) >= 2.  The
    image table of the displacement, which ``compose`` and
    ``replace_letters`` read, is built on first use and kept with the map.
    """

    __slots__ = ("_images",)

    def __init__(self, components):
        super().__init__(components)
        self._images = None

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
            type(first).variable(first.ring, first.arity, first.degree, i) - h
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
            type(first).variable(first.ring, first.arity, first.degree, i) + m
            for i, m in enumerate(m_vector)
        ]
        return cls(comps)

    # -- queries ---------------------------------------------------------

    def component(self, i):
        return self.components[i]

    def displacement(self):
        """The vector V with map = z + V (so H = -displacement for F-form)."""
        kind = type(self.components[0])
        return tuple(
            comp - kind.variable(self.ring, self.arity, self.degree, i)
            for i, comp in enumerate(self.components)
        )

    def h_vector(self):
        """H such that the map is z - H."""
        return tuple(-v for v in self.displacement())

    def is_identity(self) -> bool:
        return all(v.is_zero() for v in self.displacement())

    def image_table(self):
        """The image table of V = F - z (see ``_image_table``), built once:
        what ``compose`` and ``replace_letters`` read.  A component with a
        constant term is refused here, since substituting it would not
        converge degree by degree."""
        if self._images is None:
            displacement = self.displacement()
            for i, v in enumerate(displacement):
                if 0 in v.buckets:
                    raise ValueError(f"map component {i + 1} has a constant term")
            self._images = _image_table(displacement)
        return self._images

    def __repr__(self):
        return f"FormalMap({list(self.components)!r})"

    # -- composition -------------------------------------------------------

    def after(self, other):
        """The composed map self(other(z)): substitute ``other`` into self."""
        return FormalMap(compose_vector(self.components, other))


def _check_vector(vector):
    """The vector as a tuple, once its entries are known to be series of
    words (NCSeries or its t-graded kind) of one kind, ring, arity and
    truncation, with one entry per variable."""
    vector = tuple(vector)
    if not vector:
        raise ValueError("a vector of series needs at least one component")
    first = vector[0]
    if not isinstance(first, NCSeries) or first._splices is None:
        raise ValueError(
            f"a vector of series holds NCSeries of words, not {type(first).__name__}"
        )
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
    """The componentwise sum of ``vectors``, each ``arity`` series of one
    kind over ``ring`` truncated at ``degree``; the zero vector of NCSeries
    if there are none."""
    vectors = list(vectors)
    kind = type(vectors[0][0]) if vectors else NCSeries
    return tuple(
        kind.sum(ring, arity, degree, (v[i] for v in vectors)) for i in range(arity)
    )


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def _image_table(components):
    """The terms of each component grouped by degree: a list of
    (du, [terms of degree du of component i, for each i], fewest) in
    increasing du, fewest being the least number of terms of degree du that
    one component has (0 when one has none), the form in which ``_splices``
    reads the images of the letters.  The terms are those of
    ``_image_terms``: for NCSeries the items views of the components'
    buckets, so the table copies no term."""
    terms, table = components[0]._image_terms, []
    for du in sorted({du for u in components for du in u.buckets}):
        buckets = [u.buckets.get(du, {}) for u in components]
        table.append((du, [terms(b) for b in buckets], min(map(len, buckets))))
    return table


def compose(u: NCSeries, f_map: FormalMap, cache=None) -> NCSeries:
    """Substitute the map into the series: each word z_i1...z_im of ``u``
    becomes the ordered product F_i1 * ... * F_im.

    With F = z + V, substituting into a word chooses, letter by letter, to
    keep z_i or to put V_i in its place.  The letters are replaced one
    position at a time, from the right end to the left.  Before the pass at
    position k each term is a raw prefix of k+1 letters followed by a tail
    that is already substituted; the words of ``u`` of length k+1 join, and
    the pass keeps every term (the letter at k stays z_i) and adds the terms
    with V spliced at k (``NCSeries._splices`` at position k).  Terms that
    share a raw prefix and a tail merge before the next pass.

    The image table of V = F - z is the map's own (``FormalMap.image_table``,
    which refuses a constant term).  So every raw letter still adds degree
    >= 1, a term whose length passes D is dropped at once, and the result
    stays exact.  A ``cache`` dict, if given, receives the table under the
    key ``()``.
    """
    f_map.components[0]._check_compatible(u)
    table = f_map.image_table()
    if cache is not None:
        cache[()] = table
    words, kind = u.buckets, type(u)
    out = kind(u.ring, u.arity, u.degree)
    for k in range(max(words, default=0) - 1, -1, -1):
        if k + 1 in words:
            # every term so far is longer than k + 1, so no key is shared
            out = kind(u.ring, u.arity, u.degree, {**out.buckets, k + 1: words[k + 1]})
        out = out._collect(out._splices(table, (k,)), start=out)
    if 0 in words:
        out = kind(u.ring, u.arity, u.degree, {**out.buckets, 0: words[0]})
    return out


def compose_vector(vector, f_map: FormalMap, cache=None):
    """Componentwise substitution: every component reads the map's one
    image table."""
    return tuple(compose(u, f_map, cache) for u in vector)


def replace_letters(inputs, f_map: FormalMap) -> NCSeries:
    """The sum of [t^j] u_j(z + t*V) over the items (j, u_j) of ``inputs``,
    with V = F - z the displacement of ``f_map``: each word goes to the sum,
    over the ways to choose exactly j of its letters, of the word with each
    chosen z_i replaced by V_i.  So ``compose(u, F)`` is the sum over j of
    ``replace_letters({j: u}, F)``.

    The passes are those of ``compose``, right to left, with one state per
    count of replacements still to make, shared by every input.  The words of
    u_j of length k join state j before the pass at position k - 1 (the
    constant term of u_0 after the last pass); that pass keeps the terms of
    each state q and adds those of state q + 1 with V spliced at k - 1.
    Then every state q >= k is dropped, for want of positions, and, with
    r = o(V), every term of degree d in state q with d + q(r - 1) > D, since
    each replacement to come adds at least r - 1 to the degree: the pass into
    state q splices state q + 1 truncated at that bound.  The result is state
    0.  The image table is the map's own, as in ``compose``.
    """
    first = f_map.components[0]
    for j, u in inputs.items():
        first._check_compatible(u)
        if j < 0:
            raise ValueError(f"cannot replace j = {j} letters: j must be >= 0")
    table = f_map.image_table()
    # with V = 0 nothing is spliced, and r = 1 prunes nothing
    r = table[0][0] if table else 1
    D = first.degree
    top = max(inputs, default=0)
    # room[q]: the largest degree a term of state q may reach
    room = [D - q * (r - 1) for q in range(top + 1)]
    empty = type(first)(first.ring, first.arity, D)
    # states[top + 1] stays empty: no input needs more than top replacements
    states = [empty] * (top + 2)
    longest = max((d for u in inputs.values() for d in u.buckets), default=0)
    for k in range(longest, -1, -1):
        for j, u in inputs.items():
            if k in u.buckets and j <= k <= room[j]:
                # every other term of state j is longer than k
                states[j] = type(u)(u.ring, u.arity, D, {**states[j].buckets, k: u.buckets[k]})
        if k:
            # a pass from an empty state q + 1 would only copy state q
            states = [
                empty if q >= k
                else states[q] if states[q + 1].is_zero()
                else states[q]._collect(
                    states[q + 1].truncated(room[q])._splices(table, (k - 1,)), start=states[q]
                )
                for q in range(top + 1)
            ] + [empty]
    return states[0]


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
        (degree, block) stream of ``NCSeries._splices`` of ``f``, truncated
        at its degree bound.  ``apply`` collects it into a series, and
        ``derivation_sum`` collects many of them into one."""
        self.components[0]._check_compatible(f)
        return f._splices(self.images)

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


def derivation_sum_keeping(ring, arity, degree, applications, kept):
    """``derivation_sum`` that keeps each ``delta.apply(f)`` below degree
    ``degree``: collected once, appended to the list ``kept`` in order, and
    read by the pass from there; the Leibniz terms of degree ``degree`` go
    straight into the pass."""

    def blocks():
        for delta, f in applications:
            below = []
            for block in delta._leibniz_terms(f):
                if block[0] < degree:
                    below.append(block)
                else:
                    yield block
            part = f._collect(below)
            kept.append(part)
            for d, bucket in part.buckets.items():
                yield d, bucket.items()

    return NCSeries(ring, arity, degree)._collect(blocks())


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
    if not f_map.after(f_inv).is_identity():
        raise ValueError("supplied inverse fails f(g) = id at this truncation")
    return _pushforward(f_map, f_inv, delta)


def _pushforward(f_map: FormalMap, f_inv: FormalMap, delta: Derivation) -> Derivation:
    """``star_action`` for an ``f_inv`` already known to invert ``f_map``."""
    return Derivation(compose_vector(delta.apply_vector(f_map.components), f_inv))
