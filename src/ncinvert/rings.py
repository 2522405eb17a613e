"""Exact coefficient rings.

Every algorithm in this package is exact: coefficients are big rationals,
prime-field residues, or the integers of the charp-lift engine's integer
lift.  A ring is a context object that owns the arithmetic; ring *values*
are plain Python data (Fraction, int, tuple) so that tight loops stay
cheap.  Values are never mutated after construction.

Every ring knows its characteristic (0 or a prime) and supports exact
division by integers through ``div_by_int``; there is no floating point
anywhere.  Values are printed with ``to_string`` and never read back.
Equality, hash and repr are stated once, in :class:`Ring`, from each
ring's tuple of constructor arguments.

Series in a central parameter t are not series over a ring of t: the
t-graded kinds of :mod:`ncinvert.deformation` keep the t-power in the key
and base-ring coefficients, so no pair multiplies two polynomials in t.
:class:`TQuotientRing`, whose values are the tuples of K+1 coefficients of
R[t]/(t^(K+1)), stays as the tests' oracle for those kinds: the package
itself no longer uses it.  Its operations do not check the t-order of their
values: a series over one t-order meets a series over another only in
``NCSeries._check_compatible``, which refuses it because the rings differ.

A ring works on single values.  Terms are summed into series in one place,
:meth:`ncinvert.freealg.NCSeries._collect`, through ``add`` and ``is_zero``:
a bucket collected as a dict tests each sum with ``is_zero``, and one
collected as a list indexed by key (once its pairs outnumber its keys, or
a dense row of splices reaches it) adds by index and calls ``is_zero`` once
per slot at the end.  Lists and dense rows are summed by ``row_rules()``:
over QQ, the integer lift and GF(p) the builtins ``operator.add`` and
``mul``, and over GF(p) one ``% p`` per slot when the list is read.
A value rule may be a C builtin held as a staticmethod, so that those loops
enter no Python frame per term: over QQ ``add``, ``neg``, ``mul`` and
``is_zero`` are ``operator.add``, ``neg``, ``mul`` and ``not_``, and over
GF(p) ``is_zero`` is ``operator.not_``.  ``IntPolyRing.mul`` and
``TQuotientRing.mul`` stay plain functions in their own class bodies,
because the layer trace (``perfbench/layertrace.py``) counts their calls
with a wrapper that is bound as a method.
"""

from __future__ import annotations

import operator
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


def coeff_bits(c) -> int:
    """The width of an int or Fraction: the larger bit length of its
    numerator and its denominator."""
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Ring:
    """Common interface of all coefficient rings.

    Subclasses define ``zero()``, ``one()``, ``add``, ``neg``, ``mul``,
    ``is_zero``, ``from_int``, ``div_by_int``, ``to_string`` and a
    ``characteristic`` attribute; ``mul_int`` defaults to ``mul`` by
    ``from_int(n)``.  The value rules ``add``, ``neg``, ``mul`` and
    ``is_zero`` are called on the ring with the values alone, so each may be
    a method or a staticmethod builtin.  Values are compared with ``==``.

    ``_args`` is the tuple of a ring's constructor arguments.  Two rings are
    equal when they are of the same exact type with equal ``_args``, and
    the repr is the constructor call, so no subclass states either rule.
    """

    characteristic = None  # type: int
    _args = ()

    def mul_int(self, a, n: int):
        return self.mul(a, self.from_int(n))

    def row_rules(self):
        """(add, mul, modulus) for summing lists slot by slot: rules that may
        leave a value unreduced, and the int that reduces it when the list
        is read (None: no reduction)."""
        return self.add, self.mul, None

    def __eq__(self, other):
        return type(other) is type(self) and other._args == self._args

    def __hash__(self):
        return hash((type(self), self._args))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._args))})"


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

    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    #: an int or Fraction is false exactly when it is 0
    is_zero = staticmethod(operator.not_)

    def from_int(self, n: int):
        return n

    def mul_int(self, a, n: int):
        return a * n

    def row_rules(self):
        # the integer lift's ``mul`` is a plain function: lists take the builtin
        return operator.add, operator.mul, None

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


#: shared instance; the ring is stateless
QQ = RationalField()


class PrimeField(Ring):
    """GF(p) with values stored as ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p
        self._args = (p,)

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def row_rules(self):
        return operator.add, operator.mul, self.p

    #: a residue in [0, p) is false exactly when it is 0
    is_zero = staticmethod(operator.not_)

    def from_int(self, n: int):
        return n % self.p

    def div_by_int(self, a, m: int):
        if m % self.p == 0:
            raise ZeroDivisionError(f"{m} is not invertible mod {self.p}")
        return (a * pow(m, -1, self.p)) % self.p

    def to_string(self, a) -> str:
        return str(a)


class TQuotientRing(Ring):
    """R[t]/(t^(K+1)) over a base ring R; t is central.

    Values are tuples ``(c_0, ..., c_K)`` of base-ring values.  The bound K
    is part of the ring identity, so a truncation mismatch is refused where
    two series meet rather than lost in silence.  The tests check the
    t-graded series kinds against it, and the layer trace counts ``mul``.
    """

    def __init__(self, base: Ring, torder: int):
        if torder < 0:
            raise ValueError("t-order must be >= 0")
        self.base = base
        self.torder = torder
        self._args = (base, torder)
        self.characteristic = base.characteristic
        self._zero = (base.zero(),) * (torder + 1)
        self._one = (base.one(),) + (base.zero(),) * torder

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def add(self, a, b):
        return tuple(map(self.base.add, a, b))

    def neg(self, a):
        return tuple(map(self.base.neg, a))

    def mul(self, a, b):
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

    def embed(self, c, k: int = 0):
        """The base-ring value c lifted to c*t^k, which is 0 once k > K."""
        if k < 0:
            raise ValueError(f"cannot multiply by t^{k}: negative t-exponent")
        if k > self.torder:
            return self._zero
        return self._zero[:k] + (c,) + self._zero[k + 1:]

    def t_derivative(self, a):
        """d/dt on a truncated polynomial; the top coefficient becomes 0."""
        base = self.base
        out = [base.mul_int(a[j + 1], j + 1) for j in range(self.torder)]
        out.append(base.zero())
        return tuple(out)

    def residue_at(self, a, j: int):
        """The base-ring coefficient of t^j."""
        if not 0 <= j <= self.torder:
            raise ValueError(f"t-exponent {j} out of range [0, {self.torder}]")
        return a[j]

    def shift_down(self, a):
        """Divide by t; requires the constant coefficient to vanish."""
        bzero = self.base.zero()
        if a[0] != bzero:
            raise ValueError("coefficient of t^0 is nonzero, cannot divide by t")
        return a[1:] + (bzero,)

    def restrict(self, a, torder: int):
        """Re-truncate a value into TQuotientRing(base, torder), torder <= K."""
        if torder > self.torder:
            raise ValueError("cannot extend the t-order of a truncated value")
        return a[: torder + 1]

    def div_by_int(self, a, m: int):
        bdiv = self.base.div_by_int
        return tuple(bdiv(x, m) for x in a)

    def to_string(self, a) -> str:
        return "[" + ", ".join(self.base.to_string(x) for x in a) + "]"


class IntPolyRing(RationalField):
    """The integers, as the charp-lift engine runs the recurrence over them.

    Values are ints.  ``div_by_int`` divides exactly or raises
    AssertionError: the recurrence over Z never leaves the integers, so a
    remainder means the lift went wrong, and the CLI reports it as a failed
    check.  The class keeps its historical name and a plain-function ``mul``
    in its own body, not QQ's builtin, because the external layer trace
    (``perfbench/layertrace.py``) counts calls of
    ``IntPolyRing.__dict__["mul"]``.
    """

    def mul(self, a, b):
        return a * b

    def div_by_int(self, a, m: int):
        if m == 0:
            raise ZeroDivisionError("division by zero")
        q, r = divmod(a, m)
        if r:
            raise AssertionError(
                f"charp-lift: integer coefficient {a} is not divisible by {m}"
            )
        return q
