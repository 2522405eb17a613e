"""Planar binary rooted trees and the tree-expansion inversion engine.

A planar binary rooted tree is a leaf or an ordered pair of subtrees grafted
under a new root.  A tree with m leaves has 2m-1 vertices; deleting all
leaves gives the reduced tree with m-1 vertices, whose Kreimer factorial
written T^! below weights the expansion

    N_[m] = sum over trees T with m leaves of  N_T / T^!

where N_leaf = H and N_(T1,T2) = [N_T1 d/dz] N_T2.  The reciprocal weights
are exact rationals summing to 1 in every leaf count, which is one of the
testable identities shipped here.

One recursion, ``_grow``, grafts the trees of each leaf count; it carries a
``PBTree`` for the listing, the int T^! for the identities and the pair
(T^!, N_T) for the engine, whose table keeps one entry per tree.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb

from .freealg import Derivation, FormalMap, vector_sum
from .inversion import NSequence

#: the most trees with one leaf count that ``_grow`` builds
MAX_TREES = 10**6


def _graft_factorial(s, a, b):
    """T^! of a tree with s leaves from the factorials of its subtrees."""
    return (s - 1) * a * b


class PBTree:
    """A planar binary rooted tree; immutable.  Its leaf count and the
    factorial T^! of its reduced tree are priced at construction, from
    those of its two subtrees."""

    __slots__ = ("left", "right", "leaves", "factorial", "_serial")

    def __init__(self, left=None, right=None):
        if (left is None) != (right is None):
            raise ValueError("a node needs both subtrees, a leaf neither")
        self.left = left
        self.right = right
        if left is None:
            self.leaves = 1
            self.factorial = 1
            self._serial = "o"
        else:
            self.leaves = left.leaves + right.leaves
            self.factorial = _graft_factorial(self.leaves, left.factorial, right.factorial)
            self._serial = "(" + left._serial + right._serial + ")"

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def vertices(self) -> int:
        return 2 * self.leaves - 1

    def serialize(self) -> str:
        return self._serial

    def __eq__(self, other):
        if not isinstance(other, PBTree):
            return NotImplemented
        return self._serial == other._serial

    def __hash__(self):
        return hash(self._serial)

    def __repr__(self):
        return f"PBTree({self._serial})"


LEAF = PBTree()


def _check_tree_count(m: int):
    """ValueError, naming the count, if Catalan(m-1) > MAX_TREES."""
    if m < 1:
        raise ValueError("leaf count must be >= 1")
    k = m - 1
    if k > 60:  # not worth computing in full: Catalan(60) > 10^32 already
        text = "> 10^32"
    else:
        count = comb(2 * k, k) // (k + 1)
        if count <= MAX_TREES:
            return
        text = f"= {count:,}"
    raise ValueError(
        f"{m} leaves give Catalan({k}) {text} planar binary trees, "
        f"more than the limit of {MAX_TREES:,}"
    )


def _grow(table, m: int, leaf, graft):
    """``table`` (seeded with ``leaf`` if empty) extended through m leaves,
    refused past MAX_TREES: ``table[s]`` lists ``graft(s, a, b)`` over
    k = 1..s-1, a in ``table[k]``, b in ``table[s - k]``."""
    _check_tree_count(m)
    if not table:
        table += [[], [leaf]]
    for s in range(len(table), m + 1):
        table.append(
            [graft(s, a, b) for k in range(1, s) for a in table[k] for b in table[s - k]]
        )
    return table


def enumerate_pbtrees(m: int):
    """All planar binary trees with m leaves, in ``_grow``'s order;
    Catalan(m-1) of them, refused with a ValueError past MAX_TREES."""
    return _grow([], m, LEAF, lambda s, a, b: PBTree(a, b))[m]


# ---------------------------------------------------------------------------
# the tree expansion
# ---------------------------------------------------------------------------


def _check_characteristic_zero(ring):
    """ValueError unless ``ring`` has characteristic 0, which the tree
    weights 1/T^! need."""
    if ring.characteristic != 0:
        raise ValueError(
            f"tree weights 1/T^! need characteristic 0, not {ring.characteristic}; "
            "use the charp-direct or charp-lift engine"
        )


def _graft_series(s, a, b):
    """(T^!, N_T) of a tree with s leaves from the pairs of its subtrees."""
    return _graft_factorial(s, a[0], b[0]), Derivation(a[1]).apply_vector(b[1])


def tree_expansion_term(h_vector, m: int, table=None):
    """N_[m] as the weighted sum over all trees with m leaves.

    ``table`` holds (T^!, N_T) per tree and leaf count for this H; it grows
    through m, so calls that share it evaluate each tree once.  Trees
    sharing a factorial are summed first and divided once per group, in
    sorted order so output is deterministic.
    """
    h_vector = tuple(h_vector)
    ring, n, D = h_vector[0].ring, h_vector[0].arity, h_vector[0].degree
    _check_characteristic_zero(ring)
    table = _grow([] if table is None else table, m, (1, h_vector), _graft_series)
    groups = {}
    for w, series in table[m]:
        groups.setdefault(w, []).append(series)

    weighted = []
    for w, group in sorted(groups.items()):
        total = vector_sum(ring, n, D, group)
        weighted.append(
            tuple(s.map_coefficients(lambda c: ring.div_by_int(c, w)) for s in total)
        )
    return vector_sum(ring, n, D, weighted)


def invert_tree(h_vector) -> FormalMap:
    """The tree-expansion engine: z + sum_m N_[m], each N_[m] summed over
    trees from H alone (reading the earlier terms would fold it into the
    recurrence); equals the other characteristic-0 engines term for term."""
    h_vector = tuple(h_vector)
    # here too: at D <= 2 no layer runs
    _check_characteristic_zero(h_vector[0].ring)
    _check_tree_count(max(1, h_vector[0].degree - 1))
    table = []
    nseq = NSequence.from_layers(
        h_vector, lambda _, m: tree_expansion_term(h_vector, m, table)
    )
    return nseq.assemble()


# ---------------------------------------------------------------------------
# factorial identities
# ---------------------------------------------------------------------------


def factorial_reciprocal_sum(m: int) -> Fraction:
    """sum over trees with m leaves of 1/T^!, as an exact rational."""
    return factorial_identity_check(m)[-1][1]


def factorial_identity_check(m_max: int):
    """[(m, sum of 1/T^!)] for m = 1..m_max; every sum should be exactly 1."""
    if m_max < 1:
        raise ValueError("need m_max >= 1")
    table = _grow([], m_max, 1, _graft_factorial)
    return [
        (m, sum(Fraction(count, w) for w, count in Counter(table[m]).items()))
        for m in range(1, m_max + 1)
    ]


def gf_identity_check(m_max: int, sums=None) -> bool:
    """Check the generating function a(s) = sum a_m s^(m-1) of the reciprocal
    sums against its defining ODE a' = a^2, a(0) = 1, coefficientwise:
    (m-1) a_m = sum_{k+l=m} a_k a_l for every m <= m_max."""
    if sums is None:
        sums = [total for _, total in factorial_identity_check(m_max)]
    if len(sums) < m_max:
        raise ValueError("need one sum per leaf count")
    if sums[0] != 1:
        return False
    for m in range(2, m_max + 1):
        conv = sum(
            (sums[k - 1] * sums[m - k - 1] for k in range(1, m)), Fraction(0)
        )
        if (m - 1) * sums[m - 1] != conv:
            return False
    return True
