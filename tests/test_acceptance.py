"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  All
comparisons are exact (tolerance zero); the stated runtime budgets are
asserted as hard limits.
"""

import random
import time
from fractions import Fraction

from ncinvert.freealg import FormalMap, NCSeries
from ncinvert.inversion import (
    engines_for_ring,
    invert,
    invert_charp_direct,
    invert_charp_lift,
    invert_fixed_point,
    n_seq_recurrent,
    verify_inverse,
)
from ncinvert.parsing import parse_map
from ncinvert.randmaps import random_displacement
from ncinvert.rings import QQ, PrimeField
from ncinvert.suite import run_identity_suite
from ncinvert.trees import (
    enumerate_pbtrees,
    factorial_identity_check,
    gf_identity_check,
    invert_tree,
)

#: criterion 6 names, mapped from the required identity list
REQUIRED_IDENTITIES = (
    "derivation-chain-rule",
    "jacobian-chain-rule",
    "parameter-chain-rule",
    "inverse-flow-identities",
    "pushforward-swap",
    "substitution-flow",
    "inversion-pde",
    "abelianized-iterates",
    "charp-convolution-vanishing",
    "sequence-bounds",
    "shifted-inverse-family",
    "transport-pde",
    "sequence-recursion",
)


class criterion:
    """Times a block, prints PASS/FAIL with the budget, enforces both."""

    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(
            f"{status} criterion {self.number} "
            f"({elapsed:.2f}s < {self.budget_s:g}s): {self.description}"
        )
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget"
            )
        return False


def commutator_orientations(ring, degree):
    """The two sign readings of the bracket with y; the composition oracle,
    not a convention, decides which one the inverse expands in."""

    y = NCSeries.variable(ring, 2, degree, 1)

    def left(u):
        return y * u - u * y

    def right(u):
        return u * y - y * u

    return left, right


def oracle_expansion(ring, degree, scale_int):
    """The inverse's first component as decided by the composition oracle:
    x + sum_m c^m B^m(x) for whichever bracket orientation B actually
    inverts x - c*(y*x - x*y).  Returns (expected_component, g_fixed)."""
    x = NCSeries.variable(ring, 2, degree, 0)
    y = NCSeries.variable(ring, 2, degree, 1)
    c = ring.from_int(scale_int)
    h = ((y * x - x * y).scale(c), NCSeries.zero(ring, 2, degree))
    g_fixed = invert_fixed_point(h)
    assert verify_inverse(FormalMap.f_form(h), g_fixed).ok
    candidates = []
    for bracket in commutator_orientations(ring, degree):
        expect = x
        power = x
        weight = ring.one()
        for _ in range(1, degree):
            power = bracket(power)
            weight = ring.mul(weight, c)
            expect = expect + power.scale(weight)
        candidates.append(expect)
    matches = [e for e in candidates if e == g_fixed.component(0)]
    assert len(matches) == 1, "composition oracle must single out one orientation"
    return matches[0], h, g_fixed


def test_criterion_1_paper_example_char_zero():
    with criterion(1, "commutator map over Q: every engine matches the oracle-resolved bracket expansion at D=10", 5):
        D = 10
        parsed = parse_map("x - (y*x - x*y); y", QQ, D, variables=["x", "y"])
        h = parsed.f_map.h_vector()
        expected, h_oracle, g_fixed = oracle_expansion(QQ, D, 1)
        assert list(h) == list(h_oracle)
        for engine in engines_for_ring(QQ):
            g = invert(h, engine=engine)
            assert g.component(0) == expected, engine
            assert g == g_fixed, engine
            assert verify_inverse(parsed.f_map, g).ok


def test_criterion_2_paper_example_char_five():
    with criterion(2, "scaled commutator map over GF(5): charp-direct and charp-lift match 4^m bracket powers at D=8", 5):
        D = 8
        field = PrimeField(5)
        parsed = parse_map(
            "x - 4*(y*x - x*y); y", field, D, variables=["x", "y"]
        )
        h = parsed.f_map.h_vector()
        expected, h_oracle, _ = oracle_expansion(field, D, 4)
        assert list(h) == list(h_oracle)
        for g in (invert_charp_direct(h), invert_charp_lift(h)):
            assert g.component(0) == expected
            assert verify_inverse(parsed.f_map, g).ok


def test_criterion_3_engine_equivalence_50_maps():
    with criterion(3, "50 random sparse maps at D=8: fixed-point, recurrent and tree engines agree exactly", 60):
        rng = random.Random(20250810)
        for _ in range(50):
            n = rng.choice([1, 2, 3])
            h = random_displacement(rng, QQ, n, 8, max_deg=3, terms=2)
            g_fixed = invert_fixed_point(h)
            g_rec = n_seq_recurrent(h).assemble()
            g_tree = invert_tree(h)
            assert g_fixed == g_rec == g_tree
            assert verify_inverse(FormalMap.f_form(h), g_fixed).ok


def test_criterion_4_catalan_sanity():
    with criterion(4, "inverse of z - z^2 at D=12 lists the Catalan numbers", 1):
        D = 12
        cats = [1]
        for k in range(1, D):
            cats.append(sum(cats[i] * cats[k - 1 - i] for i in range(k)))
        frozen = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]
        assert cats == frozen  # the recurrence oracle reproduces the list
        h = (NCSeries.from_terms(QQ, 1, D, [((0, 0), Fraction(1))]),)
        g = invert_fixed_point(h)
        got = [g.component(0).coefficient((0,) * k) for k in range(1, D + 1)]
        assert got == frozen
        assert verify_inverse(FormalMap.f_form(h), g).ok


def test_criterion_5_factorial_identities():
    with criterion(5, "sum of 1/T^! is exactly 1 for every leaf count up to 10, and the generating function solves a' = a^2", 10):
        assert len(enumerate_pbtrees(10)) == 4862
        results = factorial_identity_check(10)
        assert all(total == 1 for _, total in results)
        assert gf_identity_check(10, [total for _, total in results])


def test_criterion_6_identity_suite():
    with criterion(6, "13 structural identities, 20 seeded random instances each, exact", 300):
        results = run_identity_suite(
            seed=20250810, trials=20, names=set(REQUIRED_IDENTITIES)
        )
        by_name = {r.name: r for r in results}
        assert set(by_name) == set(REQUIRED_IDENTITIES)
        for name in REQUIRED_IDENTITIES:
            r = by_name[name]
            print(f"    identity {name}: {r.passed}/{r.trials} ({r.millis:.0f} ms)")
            assert r.passed == r.trials == 20, name


def test_criterion_7_mutation_sensitivity():
    with criterion(7, "flipping any stored inverse coefficient is reported at exactly its degree", 60):
        rng = random.Random(7)
        cases = []
        parsed = parse_map("x - (y*x - x*y); y", QQ, 6, variables=["x", "y"])
        cases.append((parsed.f_map, invert_fixed_point(parsed.f_map.h_vector())))
        h_r = random_displacement(rng, QQ, 2, 5)
        cases.append((FormalMap.f_form(h_r), invert_fixed_point(h_r)))
        h_p = random_displacement(rng, PrimeField(5), 2, 5)
        cases.append((FormalMap.f_form(h_p), invert_charp_direct(h_p)))
        for f_map, g_map in cases:
            ring = f_map.ring
            for i, comp in enumerate(g_map.components):
                for word, _ in comp.terms():
                    bump = NCSeries.from_terms(ring, 2, g_map.degree, [(word, ring.one())])
                    mutated = list(g_map.components)
                    mutated[i] = comp + bump
                    report = verify_inverse(f_map, FormalMap(mutated))
                    assert not report.ok
                    assert report.degree == len(word), (i, word)
