"""Tree enumeration, factorials and the expansion engine."""

import random
from fractions import Fraction
from functools import partial
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncinvert import freealg, trees
from ncinvert.freealg import Derivation, NCSeries, vector_sum
from ncinvert.inversion import n_seq_recurrent
from ncinvert.randmaps import random_displacement, random_homogeneous_displacement
from ncinvert.rings import QQ, PrimeField
from ncinvert.trees import (
    LEAF,
    PBTree,
    enumerate_pbtrees,
    factorial_identity_check,
    factorial_reciprocal_sum,
    gf_identity_check,
    invert_tree,
    tree_expansion_term,
)


def rooted_factorial(tree) -> int:
    """Kreimer factorial of a planar rooted tree given as nested tuples:
    () is the singleton, (c1, ..., cd) a root with d child trees.
    Defined by T! = |T| * c1! * ... * cd!; the chain with m vertices gives m!.
    """
    total = rooted_vertices(tree)
    for child in tree:
        total *= rooted_factorial(child)
    return total


def rooted_vertices(tree) -> int:
    return 1 + sum(rooted_vertices(c) for c in tree)


def reduced_tree(tree: PBTree):
    """Delete all leaves of a binary tree; returns nested tuples or None
    for the empty tree (the reduction of a single leaf)."""
    if tree.is_leaf:
        return None
    children = [c for c in (reduced_tree(tree.left), reduced_tree(tree.right)) if c is not None]
    return tuple(children)


def tree_series(tree: PBTree, h_vector):
    """N_T of one tree, by its own recursion: the leaf carries H, grafting
    applies [N_T1 d/dz] N_T2.  The per-tree reference for the engine."""
    if tree.is_leaf:
        return tuple(h_vector)
    left = tree_series(tree.left, h_vector)
    return Derivation(left).apply_vector(tree_series(tree.right, h_vector))


def catalan_numbers(count):
    cats = [1]
    for k in range(1, count):
        cats.append(sum(cats[i] * cats[k - 1 - i] for i in range(k)))
    return cats


def ad_y_power(degree, m):
    out = NCSeries.variable(QQ, 2, degree, 0)
    y = NCSeries.variable(QQ, 2, degree, 1)
    for _ in range(m):
        out = y * out - out * y
    return out


# -- enumeration --------------------------------------------------------------


def test_single_leaf():
    assert enumerate_pbtrees(1) == [LEAF]
    with pytest.raises(ValueError):
        enumerate_pbtrees(0)


def test_three_leaves_enumerates_both_shapes():
    got = [t.serialize() for t in enumerate_pbtrees(3)]
    assert got == ["(o(oo))", "((oo)o)"]


def test_counts_match_catalan_recurrence():
    cats = catalan_numbers(10)
    for m in range(1, 11):
        assert len(enumerate_pbtrees(m)) == cats[m - 1]
    assert len(enumerate_pbtrees(10)) == 4862


def test_enumeration_has_no_duplicates():
    for m in range(1, 9):
        serials = [t.serialize() for t in enumerate_pbtrees(m)]
        assert len(set(serials)) == len(serials)


def test_vertex_and_leaf_counts():
    for m in range(1, 8):
        for t in enumerate_pbtrees(m):
            assert t.leaves == m
            assert t.vertices == 2 * m - 1
            reduced = reduced_tree(t)  # None for the lone leaf
            assert (0 if reduced is None else rooted_vertices(reduced)) == m - 1


def test_malformed_node_rejected():
    with pytest.raises(ValueError):
        PBTree(LEAF, None)


# -- factorials ----------------------------------------------------------------


def test_reduced_factorial_base_cases():
    assert LEAF.factorial == 1
    assert PBTree(LEAF, LEAF).factorial == 1
    assert [t.factorial for t in enumerate_pbtrees(3)] == [2, 2]


def test_reduced_factorial_matches_general_factorial_of_reduced_tree():
    # deleting the leaves and taking the plain rooted factorial must agree
    # with the grafting recursion used everywhere else
    for m in range(2, 8):
        for t in enumerate_pbtrees(m):
            assert t.factorial == rooted_factorial(reduced_tree(t))


def chain_tree(m):
    """The chain with m vertices (height m-1), as nested tuples."""
    t = ()
    for _ in range(m - 1):
        t = (t,)
    return t


def test_chains_have_ordinary_factorials():
    import math

    for m in range(1, 8):
        assert rooted_factorial(chain_tree(m)) == math.factorial(m)


def test_reciprocal_sums_are_one():
    assert factorial_reciprocal_sum(1) == 1
    assert factorial_reciprocal_sum(3) == Fraction(1, 2) + Fraction(1, 2)
    for m, total in factorial_identity_check(10):
        assert total == 1, m


def test_gf_identity():
    assert gf_identity_check(1)
    assert gf_identity_check(6)
    # mutation: a wrong sum must be caught
    sums = [factorial_reciprocal_sum(m) for m in range(1, 7)]
    sums[3] += Fraction(1, 7)
    assert not gf_identity_check(6, sums)


@pytest.mark.parametrize("m", [0, -2])
def test_identity_checks_refuse_a_leaf_count_below_one(m):
    for check in (factorial_identity_check, gf_identity_check, partial(gf_identity_check, sums=[])):
        with pytest.raises(ValueError, match="^leaf count must be >= 1$"):
            check(m)


# -- the expansion --------------------------------------------------------------


def test_leaf_series_is_displacement():
    rng = random.Random(3)
    h = random_displacement(rng, QQ, 2, 5)
    assert tree_series(LEAF, h) == h


def test_tree_series_on_commutator_depends_only_on_leaves():
    D = 7
    h = (ad_y_power(D, 1), NCSeries.zero(QQ, 2, D))
    for m in range(1, 6):
        expect = ad_y_power(D, m)
        for t in enumerate_pbtrees(m):
            vec = tree_series(t, h)
            assert vec[0] == expect
            assert vec[1].is_zero()


def test_tree_series_homogeneity():
    rng = random.Random(8)
    d = 2
    h = random_homogeneous_displacement(rng, QQ, 2, 8, deg=d)
    for t in enumerate_pbtrees(4):
        for s in tree_series(t, h):
            if not s.is_zero():
                assert s.is_homogeneous()
                assert s.poly_degree() == (d - 1) * t.leaves + 1


def test_expansion_term_examples():
    D = 6
    h = (ad_y_power(D, 1), NCSeries.zero(QQ, 2, D))
    assert list(tree_expansion_term(h, 1)) == list(h)
    # m = 2: a single tree of weight 1, so N_[2] = [H d/dz] H
    assert tree_expansion_term(h, 2)[0] == ad_y_power(D, 2)
    # m = 3: weights 1/2 + 1/2
    assert tree_expansion_term(h, 3)[0] == ad_y_power(D, 3)


def test_expansion_matches_recurrence():
    rng = random.Random(12)
    for n in (1, 2, 3):
        h = random_displacement(rng, QQ, n, 6)
        nseq = n_seq_recurrent(h)
        table = []
        for m in range(1, len(nseq) + 1):
            assert list(tree_expansion_term(h, m, table)) == list(nseq.term(m))


def linear_extensions(tree: PBTree) -> int:
    """e(T) = (s-1)!/T^! for a tree with s leaves."""
    return factorial(tree.leaves - 1) // tree.factorial


def expected_table(h, layers):
    """The engine's table through ``layers`` leaves, tree by tree: the leaf
    holds Derivation(H), and every other tree e(T) N_T without its terms of
    degree D."""
    D = h[0].degree
    table = [[], [Derivation(h)]]
    for s in range(2, layers + 1):
        table.append([
            Derivation([
                c.scale_int(linear_extensions(t)).truncated(D - 1).truncated(D)
                for c in tree_series(t, h)
            ])
            for t in enumerate_pbtrees(s)
        ])
    return table


def test_engine_table_holds_each_tree_in_enumeration_order():
    # D = 8, so that layer 6 is a stored layer, not the streamed last one
    rng = random.Random(21)
    h = random_displacement(rng, QQ, 2, 8)
    table = []
    tree_expansion_term(h, 6, table)
    assert len(table) == 7
    expect = expected_table(h, 6)
    for s in range(1, 7):
        assert table[s] == expect[s], s


def test_linear_extensions_factor_over_the_graft():
    # e(T) = C(s-2, k-1) e(T1) e(T2), T1 with k leaves: why a graft scales
    # its right entry by the binomial alone
    for s in range(2, 11):
        for t in enumerate_pbtrees(s):
            k = t.left.leaves
            assert linear_extensions(t) == (
                comb(s - 2, k - 1) * linear_extensions(t.left) * linear_extensions(t.right)
            ), t


def test_engine_refuses_a_table_grown_for_another_h():
    # the maps x - x^2 and x - 5x^2: N_[4] is 14 x^5 and 14 * 5^4 x^5
    h1 = (NCSeries.from_terms(QQ, 1, 6, [((0, 0), 1)]),)
    h2 = (NCSeries.from_terms(QQ, 1, 6, [((0, 0), 5)]),)
    table = []
    tree_expansion_term(h1, 4, table)
    with pytest.raises(ValueError, match="another H"):
        tree_expansion_term(h2, 4, table)
    assert tree_expansion_term(h2, 4, []) == n_seq_recurrent(h2).term(4)


def test_engine_table_stops_below_the_last_layer():
    # a tree with D - 1 leaves is no subtree of a nonzero N_T: its layer is
    # streamed, and at m >= D nothing is grafted
    rng = random.Random(22)
    for n, D in ((1, 5), (2, 6), (3, 4)):
        h = random_displacement(rng, QQ, n, D)
        nseq = n_seq_recurrent(h)
        table = []
        assert list(tree_expansion_term(h, D - 1, table)) == list(nseq.term(D - 1))
        assert len(table) == D - 1
        for m in (D, 2 * D):
            fresh = []
            assert all(s.is_zero() for s in tree_expansion_term(h, m, fresh))
            assert fresh == []


@st.composite
def fractional_maps(draw):
    """H over QQ, n in {1, 2}, D <= 7, with a coefficient p/q, q > 1."""
    n = draw(st.integers(1, 2))
    D = draw(st.integers(2, 7))
    words = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(3, D)).map(tuple)
    coefficients = st.builds(
        Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6)
    )
    terms = st.lists(st.tuples(words, coefficients), max_size=3)
    h = tuple(NCSeries.from_terms(QQ, n, D, draw(terms)) for _ in range(n))
    assume(any(c.denominator > 1 for s in h for _, c in s.terms()))
    return h


@settings(max_examples=30, deadline=None)
@given(fractional_maps())
def test_expansion_term_is_the_sum_over_trees_divided_by_their_factorials(h):
    n, D = h[0].arity, h[0].degree
    table = []
    for m in range(1, D + 2):
        expect = vector_sum(
            QQ, n, D,
            (
                tuple(s.scale(Fraction(1, t.factorial)) for s in tree_series(t, h))
                for t in enumerate_pbtrees(m)
            ),
        )
        assert tree_expansion_term(h, m, table) == expect, m


@settings(max_examples=25, deadline=None)
@given(fractional_maps())
def test_engine_table_holds_weighted_entries_below_degree_d(h):
    D = h[0].degree
    table = []
    for m in range(1, D):
        tree_expansion_term(h, m, table)
    assert table == expected_table(h, max(1, D - 2))


def test_identities_and_engine_build_no_pbtree(monkeypatch):
    built = []
    real_init = PBTree.__init__

    def counting_init(self, left=None, right=None):
        built.append(1)
        real_init(self, left, right)

    monkeypatch.setattr(PBTree, "__init__", counting_init)
    assert len(enumerate_pbtrees(8)) == 429
    assert len(built) == sum(catalan_numbers(8)[1:])  # sizes 2..8, each once

    def refuse(self, left=None, right=None):
        raise AssertionError("a PBTree was built")

    monkeypatch.setattr(PBTree, "__init__", refuse)
    assert all(total == 1 for _, total in factorial_identity_check(8))
    assert factorial_reciprocal_sum(8) == 1
    h = random_displacement(random.Random(4), QQ, 2, 7)
    tree_expansion_term(h, 6)
    assert invert_tree(h) == n_seq_recurrent(h).assemble()


def test_expansion_needs_characteristic_zero():
    field = PrimeField(3)
    h = (
        NCSeries.from_terms(field, 1, 5, [((0, 0), field.one())]),
    )
    with pytest.raises(ValueError):
        tree_expansion_term(h, 2)
    with pytest.raises(ValueError):
        invert_tree(h)
    # at D = 2 no layer runs, so only the engine's own check can refuse it
    h2 = (NCSeries.from_terms(field, 1, 2, [((0, 0), field.one())]),)
    with pytest.raises(ValueError, match="characteristic 0"):
        invert_tree(h2)


def test_enumeration_is_bounded():
    with pytest.raises(ValueError, match=r"Catalan\(14\) = 2,674,440 .* limit of 1,000,000"):
        enumerate_pbtrees(15)
    with pytest.raises(ValueError, match=r"Catalan\(999\) > 10\^32 "):
        enumerate_pbtrees(1000)
    with pytest.raises(ValueError, match="limit of 1,000,000"):
        factorial_identity_check(15)
    h = (NCSeries.zero(QQ, 1, 16),)
    with pytest.raises(ValueError, match="limit of 1,000,000"):
        invert_tree(h)
    with pytest.raises(ValueError, match=r"Catalan\(14\) = 2,674,440 .* limit of 1,000,000"):
        tree_expansion_term(h, 15)
    for refused in (enumerate_pbtrees, lambda m: tree_expansion_term(h, m)):
        with pytest.raises(ValueError, match="leaf count must be >= 1"):
            refused(0)


def test_engine_completes_through_429_trees():
    # D = 9 sums every leaf count up to m = 8, i.e. 429 trees at the top
    assert len(enumerate_pbtrees(8)) == 429
    D = 9
    h = (ad_y_power(D, 1), NCSeries.zero(QQ, 2, D))
    g = invert_tree(h)
    assert g.component(0).coefficient((1,) * 8 + (0,)) == 1  # y^8 x from ad^8
    assert g == n_seq_recurrent(h).assemble()


def test_engine_builds_one_image_table_per_table_entry(monkeypatch):
    # every stored tree is the left subtree of later grafts, and its
    # derivation is built once, with its entry: the leaf and the trees
    # with 2..D-2 leaves, Catalan(s - 1) of each
    built = []
    image_table = freealg._image_table

    def counted(components):
        built.append(len(components))
        return image_table(components)

    rng = random.Random(31)
    for n, D in ((1, 7), (2, 8), (3, 6)):
        h = random_displacement(rng, QQ, n, D)
        expect = n_seq_recurrent(h).assemble()
        with monkeypatch.context() as patched:
            patched.setattr(freealg, "_image_table", counted)
            built.clear()
            assert invert_tree(h) == expect
        entries = sum(comb(2 * (s - 1), s - 1) // s for s in range(1, D - 1))
        assert built == [n] * entries, (n, D)


@pytest.mark.parametrize(
    "seed, n, D, passes, held",
    [
        (1, 1, 7, [[2], [5], [11], [18], [23]], [2, 3, 6, 10, 14]),
        (2, 2, 6, [[2, 2], [8, 9], [45, 44], [164, 122]], [4, 13, 73, 233]),
        (3, 2, 7, [[2, 2], [11, 11], [64, 73], [176, 217], [222, 222]], [4, 18, 115, 320, 356]),
    ],
)
def test_last_layer_scales_only_the_terms_that_reach_degree_d(
    monkeypatch, seed, n, D, passes, held
):
    # per layer and component, the terms of the distinct right operands its
    # pass receives, and per table layer, the terms its entries hold: each
    # right entry is scaled once per (k, T2) and only through degree D - k,
    # and no entry keeps a term of degree D.  Keeping more, or scaling per
    # tree, changes no result, only these counts
    seen = []
    real = trees.derivation_sum_keeping

    def counting(ring, arity, degree, applications, kept):
        applications = list(applications)
        rights = {id(f): f.term_count() for _, f in applications}
        seen.append(sum(rights.values()))
        return real(ring, arity, degree, applications, kept)

    monkeypatch.setattr(trees, "derivation_sum_keeping", counting)
    h = random_displacement(random.Random(seed), QQ, n, D)
    table = []
    layers = [tree_expansion_term(h, m, table) for m in range(2, D)]
    assert [seen[i : i + n] for i in range(0, len(seen), n)] == passes
    terms = [sum(c.term_count() for e in entries for c in e.components) for entries in table]
    assert terms[1:] == held
    assert layers == n_seq_recurrent(h).terms[1:]
