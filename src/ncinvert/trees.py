"""Planar binary rooted trees and the tree-expansion inversion engine.

A planar binary rooted tree is a leaf or an ordered pair of subtrees grafted
under a new root.  A tree with m leaves has 2m-1 vertices; deleting all
leaves gives the reduced tree with m-1 vertices, whose Kreimer factorial
written T^! below weights the expansion

    N_[m] = sum over trees T with m leaves of  N_T / T^!

where N_leaf = H and N_(T1,T2) = [N_T1 d/dz] N_T2.  The reciprocal weights
are exact rationals summing to 1 in every leaf count, which is one of the
testable identities shipped here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .freealg import Derivation, FormalMap, NCSeries
from .inversion import NSequence, _check_characteristic_zero

#: the most trees ``enumerate_pbtrees`` builds in one call
MAX_TREES = 10**6


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
            self.factorial = (self.leaves - 1) * left.factorial * right.factorial
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


def enumerate_pbtrees(m: int):
    """All planar binary trees with m leaves, in a fixed deterministic order
    (left leaf count ascending, then recursively); Catalan(m-1) of them,
    refused with a ValueError past MAX_TREES."""
    _check_tree_count(m)
    out = [[], [LEAF]]
    for size in range(2, m + 1):
        out.append(
            [
                PBTree(a, b)
                for k in range(1, size)
                for a in out[k]
                for b in out[size - k]
            ]
        )
    return out[m]


def reduced_factorial(tree: PBTree) -> int:
    """T^! of the reduced tree: 1 on a leaf, else (leaves-1) * left^! * right^!."""
    return tree.factorial


# ---------------------------------------------------------------------------
# the tree expansion
# ---------------------------------------------------------------------------


def _tree_series(tree, h_vector, memo):
    """N_T: the leaf carries H, grafting applies [N_T1 d/dz] N_T2.

    ``memo`` maps tree serializations to computed vectors; structurally equal
    subtrees share one evaluation, which collapses the Catalan blowup.
    """
    got = memo.get(tree._serial)
    if got is not None:
        return got
    if tree.is_leaf:
        result = h_vector
    else:
        left = _tree_series(tree.left, h_vector, memo)
        right = _tree_series(tree.right, h_vector, memo)
        result = Derivation(left).apply_vector(right)
    memo[tree._serial] = result
    return result


def tree_expansion_term(h_vector, m: int, memo=None):
    """N_[m] as the weighted sum over all trees with m leaves.

    Trees sharing a factorial are summed first and divided once per group;
    exact arithmetic makes every grouping and reduction order equivalent,
    and groups are processed in sorted order so output is deterministic.
    """
    h_vector = tuple(h_vector)
    ring = h_vector[0].ring
    _check_characteristic_zero(ring, "tree weights 1/T^!")
    n, D = h_vector[0].arity, h_vector[0].degree
    if memo is None:
        memo = {}
    groups = {}
    for tree in enumerate_pbtrees(m):
        groups.setdefault(tree.factorial, []).append(tree)

    weighted = []
    for w, trees in sorted(groups.items()):
        vecs = [_tree_series(t, h_vector, memo) for t in trees]
        weighted.append(
            tuple(
                NCSeries.sum(ring, n, D, [v[i] for v in vecs]).map_coefficients(
                    lambda c: ring.div_by_int(c, w)
                )
                for i in range(n)
            )
        )
    return tuple(
        NCSeries.sum(ring, n, D, [vec[i] for vec in weighted]) for i in range(n)
    )


def invert_tree(h_vector) -> FormalMap:
    """The tree-expansion engine: z + sum_m N_[m], each N_[m] summed over
    trees from H alone (reading the earlier terms would fold it into the
    recurrence); equals the other characteristic-0 engines term for term."""
    h_vector = tuple(h_vector)
    # here too: at D <= 2 no layer runs
    _check_characteristic_zero(h_vector[0].ring, "tree weights 1/T^!")
    _check_tree_count(max(1, h_vector[0].degree - 1))
    memo = {}
    nseq = NSequence.from_layers(
        h_vector, lambda _, m: tree_expansion_term(h_vector, m, memo=memo)
    )
    return nseq.assemble()


# ---------------------------------------------------------------------------
# factorial identities
# ---------------------------------------------------------------------------


def factorial_reciprocal_sum(m: int) -> Fraction:
    """sum over trees with m leaves of 1/T^!, as an exact rational."""
    return sum(
        (Fraction(1, t.factorial) for t in enumerate_pbtrees(m)),
        Fraction(0),
    )


def factorial_identity_check(m_max: int):
    """[(m, sum of 1/T^!)] for m = 1..m_max; every sum should be exactly 1."""
    if m_max < 1:
        raise ValueError("need m_max >= 1")
    _check_tree_count(m_max)
    return [(m, factorial_reciprocal_sum(m)) for m in range(1, m_max + 1)]


def gf_identity_check(m_max: int, sums=None) -> bool:
    """Check the generating function a(s) = sum a_m s^(m-1) of the reciprocal
    sums against its defining ODE a' = a^2, a(0) = 1, coefficientwise:
    (m-1) a_m = sum_{k+l=m} a_k a_l for every m <= m_max."""
    if sums is None:
        sums = [factorial_reciprocal_sum(m) for m in range(1, m_max + 1)]
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
