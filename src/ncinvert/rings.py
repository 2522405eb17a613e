"""Exact coefficient rings.

Every algorithm in this package is exact: coefficients are big rationals,
prime-field residues, truncated polynomials in a central parameter t, or
the integers of the charp-lift engine's integer lift.  A ring is a context
object that owns the arithmetic; ring *values* are plain Python data
(Fraction, int, tuple) so that tight loops stay cheap.  Values are never
mutated after construction.

Every ring knows its characteristic (0 or a prime) and supports exact
division by integers through ``div_by_int``; there is no floating point
anywhere.
"""

from __future__ import annotations

import sys
from fractions import Fraction


#: Miller-Rabin witnesses: the primes up to 41.  Together they expose every
#: odd composite below _MR_LIMIT, the least one that passes all thirteen
#: (OEIS A014233); the primes up to 37 alone miss 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; refuses moduli it cannot decide exactly."""
    if p >= _MR_LIMIT:
        raise ValueError(f"modulus {p} is too large: primality is decided below {_MR_LIMIT}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _accumulate(tgt, pairs, add, is_zero):
    """Add each (key, coefficient) pair into the dict ``tgt``, dropping keys
    whose coefficient cancels to zero; returns ``tgt``.  Keys are any
    hashable: words in :mod:`ncinvert.freealg`, exponent vectors in
    :mod:`ncinvert.commutative`."""
    for key, c in pairs:
        prev = tgt.get(key)
        val = c if prev is None else add(prev, c)
        if is_zero(val):
            tgt.pop(key, None)
        else:
            tgt[key] = val
    return tgt


def coeff_bits(c) -> int:
    """The width of an int or Fraction: the larger bit length of its
    numerator and its denominator."""
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Ring:
    """Common interface of all coefficient rings.

    Subclasses define ``zero()``, ``one()``, ``add``, ``neg``, ``mul``,
    ``from_int``, ``div_by_int``, ``to_string``/``from_string`` and a
    ``characteristic`` attribute.  Values are compared with ``==``.
    """

    characteristic = None  # type: int

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def is_one(self, a) -> bool:
        return a == self.one()

    def mul_int(self, a, n: int):
        return self.mul(a, self.from_int(n))

    def pow(self, a, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = self.one()
        for _ in range(k):
            out = self.mul(out, a)
        return out


class RationalField(Ring):
    """Arbitrary-precision rationals; characteristic 0.

    Values are ``int`` or ``fractions.Fraction``; both are exact, mix freely
    in arithmetic, and compare equal when they denote the same number.
    Integer-only computations stay on machine-fast int ops and Fractions
    appear only once a division actually produces one.
    """

    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return a == 0

    def from_int(self, n: int):
        return n

    def mul_int(self, a, n: int):
        return a * n

    def div_by_int(self, a, m: int):
        if m == 0:
            raise ZeroDivisionError("division by zero")
        if isinstance(a, int):
            q, r = divmod(a, m)
            return q if r == 0 else Fraction(a, m)
        return a / m

    def to_string(self, a) -> str:
        try:
            return str(a)
        except ValueError:
            # Python refuses to print an int longer than its digit limit
            raise ValueError(
                f"a coefficient of {coeff_bits(a)} bits has more than the "
                f"{sys.get_int_max_str_digits()} decimal digits that can be printed"
            ) from None

    def from_string(self, s: str):
        f = Fraction(s)
        return f.numerator if f.denominator == 1 else f

    def __eq__(self, other):
        return type(other) is RationalField

    def __hash__(self):
        return hash(RationalField)

    def __repr__(self):
        return "RationalField()"


#: shared instance; the ring is stateless
QQ = RationalField()


class PrimeField(Ring):
    """GF(p) with values stored as ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_zero(self, a):
        return a == 0

    def from_int(self, n: int):
        return n % self.p

    def div_by_int(self, a, m: int):
        if m % self.p == 0:
            raise ZeroDivisionError(f"{m} is not invertible mod {self.p}")
        return (a * pow(m, -1, self.p)) % self.p

    def to_string(self, a) -> str:
        return str(a)

    def from_string(self, s: str):
        return int(s) % self.p

    def __eq__(self, other):
        return type(other) is PrimeField and other.p == self.p

    def __hash__(self):
        return hash((PrimeField, self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class TQuotientRing(Ring):
    """R[t]/(t^(K+1)) over a base ring R; t is central.

    Values are tuples ``(c_0, ..., c_K)`` of base-ring values.  The bound K
    is part of the ring identity: values of different bounds never meet, so
    a truncation mismatch is a structural error rather than a silent loss.
    """

    def __init__(self, base: Ring, torder: int):
        if torder < 0:
            raise ValueError("t-order must be >= 0")
        self.base = base
        self.torder = torder
        self.characteristic = base.characteristic
        self._zero = (base.zero(),) * (torder + 1)
        self._one = (base.one(),) + (base.zero(),) * torder

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def _check(self, a):
        if len(a) != self.torder + 1:
            raise ValueError(
                f"t-order mismatch: value has {len(a) - 1}, ring has {self.torder}"
            )

    def add(self, a, b):
        self._check(a)
        self._check(b)
        badd = self.base.add
        return tuple(badd(x, y) for x, y in zip(a, b))

    def neg(self, a):
        self._check(a)
        bneg = self.base.neg
        return tuple(bneg(x) for x in a)

    def mul(self, a, b):
        self._check(a)
        self._check(b)
        base = self.base
        bzero = base.zero()
        out = [bzero] * (self.torder + 1)
        for i, x in enumerate(a):
            if x == bzero:
                continue
            for j in range(self.torder + 1 - i):
                y = b[j]
                if y == bzero:
                    continue
                out[i + j] = base.add(out[i + j], base.mul(x, y))
        return tuple(out)

    def is_zero(self, a):
        return a == self._zero

    def from_int(self, n: int):
        return (self.base.from_int(n),) + self._zero[1:]

    def embed(self, c):
        """Lift a base-ring value to a t-constant."""
        return (c,) + self._zero[1:]

    def times_t(self, a, k: int = 1):
        """Multiply by t^k (shifting coefficients up, truncating at K)."""
        self._check(a)
        if k == 0:
            return a
        if k > self.torder:
            return self._zero
        return self._zero[:k] + a[: self.torder + 1 - k]

    def t_derivative(self, a):
        """d/dt on a truncated polynomial; the top coefficient becomes 0."""
        self._check(a)
        base = self.base
        out = [base.mul_int(a[j + 1], j + 1) for j in range(self.torder)]
        out.append(base.zero())
        return tuple(out)

    def residue_at(self, a, j: int):
        """The base-ring coefficient of t^j."""
        self._check(a)
        if not 0 <= j <= self.torder:
            raise ValueError(f"t-exponent {j} out of range [0, {self.torder}]")
        return a[j]

    def shift_down(self, a, k: int = 1):
        """Divide by t^k; requires the k lowest coefficients to vanish."""
        self._check(a)
        bzero = self.base.zero()
        for j in range(k):
            if a[j] != bzero:
                raise ValueError(f"coefficient of t^{j} is nonzero, cannot divide by t^{k}")
        return a[k:] + (bzero,) * k

    def restrict(self, a, torder: int):
        """Re-truncate a value into TQuotientRing(base, torder), torder <= K."""
        self._check(a)
        if torder > self.torder:
            raise ValueError("cannot extend the t-order of a truncated value")
        return a[: torder + 1]

    def div_by_int(self, a, m: int):
        self._check(a)
        bdiv = self.base.div_by_int
        return tuple(bdiv(x, m) for x in a)

    def to_string(self, a) -> str:
        return "[" + ", ".join(self.base.to_string(x) for x in a) + "]"

    def from_string(self, s: str):
        s = s.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"bad t-quotient literal: {s!r}")
        parts = [p.strip() for p in s[1:-1].split(",")]
        if len(parts) != self.torder + 1:
            raise ValueError("t-quotient literal has wrong length")
        return tuple(self.base.from_string(p) for p in parts)

    def __eq__(self, other):
        return (
            type(other) is TQuotientRing
            and other.base == self.base
            and other.torder == self.torder
        )

    def __hash__(self):
        return hash((TQuotientRing, self.base, self.torder))

    def __repr__(self):
        return f"TQuotientRing({self.base!r}, {self.torder})"


class IntPolyRing(RationalField):
    """The integers, as the charp-lift engine runs the recurrence over them.

    Values are ints.  ``div_by_int`` divides exactly or raises
    AssertionError: the recurrence over Z never leaves the integers, so a
    remainder means the lift went wrong, and the CLI reports it as a failed
    check.  The class keeps its historical name and a ``mul`` in its own
    body because the external layer trace (``perfbench/layertrace.py``)
    counts calls of ``IntPolyRing.__dict__["mul"]``.
    """

    mul = RationalField.mul

    def div_by_int(self, a, m: int):
        if m == 0:
            raise ZeroDivisionError("division by zero")
        q, r = divmod(a, m)
        if r:
            raise AssertionError(
                f"charp-lift: integer coefficient {a} is not divisible by {m}"
            )
        return q

    def __eq__(self, other):
        return type(other) is IntPolyRing

    def __hash__(self):
        return hash(IntPolyRing)

    def __repr__(self):
        return "IntPolyRing()"
