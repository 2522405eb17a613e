"""Seeded generators of random sparse series, displacements and deformations.

Used by the property-test harness, the identity suite and the benchmark
driver.  All randomness flows from a caller-supplied ``random.Random`` so a
single 64-bit seed reproduces every instance.  The distribution is simple by
design: a bounded number of uniform words per degree window with small
nonzero integer coefficients (degree-bounded uniform sparse polynomials).
"""

from __future__ import annotations

import random

from .deformation import embed_series, t_graded
from .freealg import NCSeries

#: characteristic-0 coefficients are drawn from [-COEFF_BOUND, COEFF_BOUND] minus 0
COEFF_BOUND = 3


def random_coefficient(rng: random.Random, ring):
    """A nonzero ring element drawn from small integers."""
    p = ring.characteristic
    if p:
        return ring.from_int(rng.randrange(1, p))
    n = 0
    while n == 0:
        n = rng.randint(-COEFF_BOUND, COEFF_BOUND)
    return ring.from_int(n)


def random_word(rng: random.Random, arity: int, degree: int):
    return tuple(rng.randrange(arity) for _ in range(degree))


def random_series(
    rng: random.Random,
    ring,
    arity: int,
    degree: int,
    min_deg: int,
    max_deg: int,
    terms: int = 3,
) -> NCSeries:
    """A sparse series with ``terms`` random words in the degree window."""
    max_deg = min(max_deg, degree)
    pairs = []
    for _ in range(terms):
        d = rng.randint(min_deg, max_deg)
        pairs.append((random_word(rng, arity, d), random_coefficient(rng, ring)))
    return NCSeries.from_terms(ring, arity, degree, pairs)


def random_displacement(
    rng: random.Random,
    ring,
    arity: int,
    degree: int,
    max_deg: int = 3,
    terms: int = 2,
):
    """A random H with order >= 2 componentwise, suitable for z - H."""
    return tuple(
        random_series(rng, ring, arity, degree, 2, max_deg, terms)
        for _ in range(arity)
    )


def random_homogeneous_displacement(
    rng: random.Random, ring, arity: int, degree: int, deg: int = 2, terms: int = 2
):
    return tuple(
        random_series(rng, ring, arity, degree, deg, deg, terms)
        for _ in range(arity)
    )


def random_deformed_displacement(
    rng: random.Random,
    base_ring,
    arity: int,
    degree: int,
    torder: int,
):
    """A genuinely t-dependent H_t: a random t-polynomial of t-degree <= K
    whose z-part has order >= 2 and degree <= 3, two words per t-layer,
    as TSeries over ``base_ring``."""
    out = []
    for _ in range(arity):
        acc = t_graded(NCSeries, torder).zero(base_ring, arity, degree)
        for j in range(torder + 1):
            if j > 0 and rng.random() < 0.5:
                continue
            layer = random_series(rng, base_ring, arity, degree, 2, 3, 2)
            acc = acc + embed_series(layer, torder, j)
        out.append(acc)
    return tuple(out)
