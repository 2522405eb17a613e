"""Planar binary rooted trees and the tree-expansion inversion engine.

A planar binary rooted tree is a leaf or an ordered pair of subtrees grafted
under a new root.  A tree with m leaves has 2m-1 vertices; deleting all
leaves gives the reduced tree with m-1 vertices, whose Kreimer factorial
written T^! below weights the expansion

    N_[m] = sum over trees T with m leaves of  N_T / T^!

where N_leaf = H and N_(T1,T2) = [N_T1 d/dz] N_T2.  The reciprocal weights
are exact rationals summing to 1 in every leaf count, which is one of the
testable identities shipped here.

One enumeration, ``_grafts``, lists the trees of each leaf count as grafts
(T1, T2) of smaller ones; ``_grow`` builds from it a ``PBTree`` per tree
for the listing and the int T^! for the identities, and the engine grafts
each layer through it.  The engine sums over ints: e(T) = (m-1)!/T^!
counts the linear extensions of the reduced tree, so N_[m] = (sum over T
of E_T) / (m-1)! with E_T = e(T) N_T, and since T^! = (m-1) T1^! T2^!,
E_T = C(m-2, k-1) [E_T1 d/dz] E_T2 for T1 with k leaves.  Its table keeps
E_T as the derivation [E_T d/dz] for each tree with at most D - 2 leaves,
without the terms of degree D that no graft reads; those, and the whole
last layer m = D - 1, go only into the pass.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial

from .freealg import Derivation, FormalMap, NCSeries, derivation_sum_keeping
from .inversion import NSequence, _vector_meta

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


def _grafts(lefts, rights, s):
    """The (a, b) pairs of the trees with s leaves, in their one order: over
    k = 1..s-1, a in ``lefts[k]`` and b in ``rights[s - k]``, the entries of
    the left and the right subtree."""
    return [(a, b) for k in range(1, s) for a in lefts[k] for b in rights[s - k]]


def _grow(m: int, leaf, graft):
    """The table of the trees through m leaves, refused past MAX_TREES:
    ``table[1]`` is ``[leaf]`` and ``table[s]`` lists ``graft(s, a, b)``
    over the pairs of ``_grafts``."""
    _check_tree_count(m)
    table = [[], [leaf]]
    for s in range(2, m + 1):
        table.append([graft(s, a, b) for a, b in _grafts(table, table, s)])
    return table


def enumerate_pbtrees(m: int):
    """All planar binary trees with m leaves, in ``_grafts``' order;
    Catalan(m-1) of them, refused with a ValueError past MAX_TREES."""
    return _grow(m, LEAF, lambda s, a, b: PBTree(a, b))[m]


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


def _layer(table, m, ring, n, D):
    """The sum of E_T over the trees T with m leaves, one pass per
    component over the Leibniz terms of all their grafts.  A right operand
    C(m-2, k-1) E_T2, k leaves on the left, is built once per (k, T2) and
    only through degree D - k: E_T1 has order >= k + 1, so it raises every
    degree by at least k.  A layer of at most D - 2 leaves that the table
    does not hold yet becomes its next layer, each graft's terms below
    degree D its entry."""
    kept = [[] for _ in range(n)]
    sums = []
    for i in range(n):
        rights = [[]]
        for k in range(m - 1, 0, -1):
            low = [e.components[i].truncated(D - k).truncated(D) for e in table[m - k]]
            weight = comb(m - 2, k - 1)
            rights.append(low if weight == 1 else [r.scale_int(weight) for r in low])
        sums.append(derivation_sum_keeping(ring, n, D, _grafts(table, rights, m), kept[i]))
    if len(table) == m <= D - 2:
        table.append([Derivation(components) for components in zip(*kept)])
    return sums


def tree_expansion_term(h_vector, m: int, table=None):
    """N_[m] as the weighted sum over all trees with m leaves.

    One accumulation pass per component sums E_T = e(T) N_T over the trees,
    with e(T) = (m-1)!/T^! the int count of linear extensions of the reduced
    tree, and each term of the sum is divided once by (m-1)!.  E_T is
    grafted as C(m-2, k-1) [E_T1 d/dz] E_T2, T1 with k leaves: each right
    entry is scaled once per k and shared by every left entry.

    ``table`` holds, per leaf count s <= D - 2, the entry Derivation(E_T)
    of each tree without its terms of degree D; the leaf's entry is
    Derivation(H), and a table whose leaf entry is not is refused.  Calls
    that share it, one per layer in order, graft each tree once; it grows
    through m, but no layer >= D - 1 is stored.  The terms of degree D, and the whole last
    layer, whose trees are no subtree of a tree that survives truncation at
    D, go only into the pass.  At m >= D every N_T is 0.
    """
    h_vector, ring, n, D = _vector_meta(h_vector)
    _check_characteristic_zero(ring)
    _check_tree_count(m)
    if m >= D:
        return (NCSeries.zero(ring, n, D),) * n
    table = [] if table is None else table
    if not table:
        table += [[], [Derivation(h_vector)]]
    elif table[1][0].components != h_vector:
        raise ValueError("the tree table was grown for another H")
    if m == 1:
        return h_vector
    for s in range(len(table), m):
        _layer(table, s, ring, n, D)
    total = factorial(m - 1)
    return tuple(
        layer.map_coefficients(lambda c: ring.div_by_int(c, total))
        for layer in _layer(table, m, ring, n, D)
    )


def n_seq_tree(h_vector) -> NSequence:
    """The tree-expansion engine's N_[1..D-1], each N_[m] summed over trees
    from H alone (reading the earlier terms would fold it into the
    recurrence); equals the other characteristic-0 sequences term for term."""
    h_vector, ring, _, D = _vector_meta(h_vector)
    # here too: at D <= 2 no layer runs
    _check_characteristic_zero(ring)
    _check_tree_count(max(1, D - 1))
    table = []
    return NSequence.from_layers(
        h_vector, lambda _, m: tree_expansion_term(h_vector, m, table)
    )


def invert_tree(h_vector) -> FormalMap:
    return n_seq_tree(h_vector).assemble()


# ---------------------------------------------------------------------------
# factorial identities
# ---------------------------------------------------------------------------


def factorial_reciprocal_sum(m: int) -> Fraction:
    """sum over trees with m leaves of 1/T^!, as an exact rational."""
    return factorial_identity_check(m)[-1][1]


def factorial_identity_check(m_max: int):
    """[(m, sum of 1/T^!)] for m = 1..m_max; every sum should be exactly 1."""
    table = _grow(m_max, 1, _graft_factorial)
    return [
        (m, sum(Fraction(count, w) for w, count in Counter(table[m]).items()))
        for m in range(1, m_max + 1)
    ]


def gf_identity_check(m_max: int, sums=None) -> bool:
    """Check the generating function a(s) = sum a_m s^(m-1) of the reciprocal
    sums against its defining ODE a' = a^2, a(0) = 1, coefficientwise:
    (m-1) a_m = sum_{k+l=m} a_k a_l for every m <= m_max."""
    if m_max < 1:
        raise ValueError("leaf count must be >= 1")
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
