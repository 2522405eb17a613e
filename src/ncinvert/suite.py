"""The seeded identity suite: every structural fact as a randomized check.

Each entry draws fresh random instances (arity <= 3, z-degree <= 6, t-order
<= 5 by default) and verifies one exact identity; there are no tolerances
anywhere.  The registry is consumed by the ``identities`` CLI command and by
the acceptance tests.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import trees
from .commutative import abelianize_vector, inversion_pde_check, jacobian_power_apply
from .deformation import (
    DeformedMap,
    SpecialDeformation,
    check_composed_with_forward_map,
    check_h_m_structure,
    check_inverse_flow_identities,
    check_inversion_pde,
    check_pushforward_swap,
    check_shifted_inverse_family,
    check_substitution_flow,
    check_transport_pde,
    embed_series,
    n_sequence_via_deformation,
    t_agree,
    t_derivative_series,
    t_derivative_vector,
)
from .freealg import (
    Derivation,
    FormalMap,
    NCSeries,
    compose,
    compose_vector,
    jacobian_tilde,
    matrix_derivation_apply,
)
from .inversion import (
    c_sequence,
    check_engine,
    convolution_sum,
    invert_fixed_point,
    n_seq_charp_direct,
    n_seq_recurrent,
)
from .randmaps import (
    random_deformed_displacement,
    random_displacement,
    random_homogeneous_displacement,
    random_series,
)
from .rings import QQ, PrimeField


@dataclass
class SuiteBounds:
    max_arity: int = 3
    max_degree: int = 6
    max_torder: int = 5

    def __post_init__(self):
        for option, value, least in (
            ("--n (max arity)", self.max_arity, 1),
            ("-d/--degree (max z-degree)", self.max_degree, 2),
            ("--torder (max t-order)", self.max_torder, 1),
        ):
            if value < least:
                raise ValueError(f"{option} must be >= {least}, got {value}")

    def draw(self, rng):
        n = rng.randint(1, self.max_arity)
        degree = rng.randint(min(4, self.max_degree), self.max_degree)
        torder = rng.randint(min(3, self.max_torder), self.max_torder)
        return n, degree, torder


@dataclass
class IdentityResult:
    name: str
    trials: int
    passed: int
    millis: float

    @property
    def ok(self) -> bool:
        return self.passed == self.trials

    def to_json_dict(self):
        return {
            "name": self.name,
            "trials": self.trials,
            "passed": self.passed,
            "ok": self.ok,
            "millis": round(self.millis, 1),
        }


CHECKS = {}


def register(name):
    def deco(fn):
        CHECKS[name] = fn
        return fn

    return deco


@register("derivation-chain-rule")
def _derivation_chain_rule(rng, bounds):
    # delta(u(F)) agrees with transporting delta through the inverse and
    # composing back; delta components of order >= 1 keep truncation exact
    n, D, _ = bounds.draw(rng)
    h = random_displacement(rng, QQ, n, D)
    f_map = FormalMap.f_form(h)
    g_map = invert_fixed_point(h)
    delta = Derivation(
        tuple(random_series(rng, QQ, n, D, 1, 2, terms=2) for _ in range(n))
    )
    u = random_series(rng, QQ, n, D, 0, 3, terms=3)
    lhs = delta.apply(compose(u, f_map))
    transported = Derivation(compose_vector(delta.apply_vector(f_map.components), g_map))
    rhs = compose(transported.apply(u), f_map)
    return lhs == rhs


@register("jacobian-chain-rule")
def _jacobian_chain_rule(rng, bounds):
    # the transposed-Jacobian rows of F, composed with the inverse, act as
    # derivations that send the inverse back to the identity matrix; the
    # slot derivations carry constant components, so degree D is the one
    # degree truncation cannot certify and comparison happens at D - 1
    n, D, _ = bounds.draw(rng)
    h = random_displacement(rng, QQ, n, D)
    f_map = FormalMap.f_form(h)
    g_map = invert_fixed_point(h)

    def cut(rows):
        return [[e.truncated(D - 1) for e in row] for row in rows]

    def composed(rows, other):
        return [compose_vector(row, other) for row in rows]

    one, zero = NCSeries.one(QQ, n, D - 1), NCSeries.zero(QQ, n, D - 1)
    identity = [[one if i == j else zero for j in range(n)] for i in range(n)]
    transported = composed(jacobian_tilde(f_map), g_map)
    lhs1 = matrix_derivation_apply(transported, g_map.components)
    if cut(lhs1) != identity:
        return False
    lhs2 = matrix_derivation_apply(composed(jacobian_tilde(g_map), f_map), f_map.components)
    if cut(lhs2) != identity:
        return False
    # general form on a random vector U: the transposed Jacobian of U(F)
    u_vec = tuple(random_series(rng, QQ, n, D, 0, 3, terms=2) for _ in range(2))
    lhs3 = jacobian_tilde(compose_vector(u_vec, f_map))
    rhs3 = composed(matrix_derivation_apply(transported, u_vec), f_map)
    return cut(lhs3) == cut(rhs3)


@register("parameter-chain-rule")
def _parameter_chain_rule(rng, bounds):
    # d/dt of u_t(F_t) = (du_t/dt)(F_t) + ([dF_t/dt(G_t) d/dz] u_t)(F_t)
    n, D, K = bounds.draw(rng)
    h_t = random_deformed_displacement(rng, QQ, n, D, K)
    d = DeformedMap(h_t)
    u_t = embed_series(random_series(rng, QQ, n, D, 0, 3, terms=2), K)
    u_t = u_t + embed_series(
        random_series(rng, QQ, n, D, 0, 3, terms=2), K, rng.randint(1, K)
    )
    lhs = t_derivative_series(compose(u_t, d.f_t))
    df_dt = t_derivative_vector(d.f_t.components)
    carried = Derivation(compose_vector(df_dt, d.g_t))
    rhs = compose(t_derivative_series(u_t), d.f_t) + compose(carried.apply(u_t), d.f_t)
    return t_agree((lhs,), (rhs,))


@register("inverse-flow-identities")
def _inverse_flow(rng, bounds):
    n, D, K = bounds.draw(rng)
    h_t = random_deformed_displacement(rng, QQ, n, D, K)
    return check_inverse_flow_identities(DeformedMap(h_t))


@register("pushforward-swap")
def _pushforward_swap(rng, bounds):
    n, D, K = bounds.draw(rng)
    h_t = random_deformed_displacement(rng, QQ, n, D, K)
    return check_pushforward_swap(DeformedMap(h_t))


@register("substitution-flow")
def _substitution_flow(rng, bounds):
    n, D, K = bounds.draw(rng)
    h_t = random_deformed_displacement(rng, QQ, n, D, K)
    u = random_series(rng, QQ, n, D, 0, 3, terms=3)
    return check_substitution_flow(DeformedMap(h_t), u)


@register("inversion-pde")
def _inversion_pde(rng, bounds):
    n, D, K = bounds.draw(rng)
    ring = QQ if rng.random() < 0.7 else PrimeField(rng.choice([2, 3, 5]))
    h = random_displacement(rng, ring, n, D)
    sd = SpecialDeformation(h, K)
    return check_inversion_pde(sd.n_t, sd.h_base)


@register("special-composition-readback")
def _special_composition(rng, bounds):
    # N_t composed with the forward map returns H, exactly at t-order D
    n, D, _ = bounds.draw(rng)
    h = random_displacement(rng, QQ, n, D)
    return check_composed_with_forward_map(SpecialDeformation(h, D))


@register("deformation-generators")
def _deformation_generators(rng, bounds):
    n, D, K = bounds.draw(rng)
    h = random_displacement(rng, QQ, n, D)
    return check_h_m_structure(SpecialDeformation(h, K))


@register("abelianized-iterates")
def _abelianized_iterates(rng, bounds):
    n, D, _ = bounds.draw(rng)
    h = random_displacement(rng, QQ, n, D)
    h_ab = abelianize_vector(h)
    for m, c_vec in enumerate(c_sequence(h, 5), start=1):
        if list(abelianize_vector(c_vec)) != list(jacobian_power_apply(h_ab, m)):
            return False
    return True


@register("charp-convolution-vanishing")
def _charp_convolution(rng, bounds):
    n, D, _ = bounds.draw(rng)
    # a layer m = kp+1 is only visible when m <= D-1, so p = 5 needs D >= 7
    # and gets its own small deep instance on every trial
    for p, nn, DD in ((2, n, D), (3, n, max(D, 5)), (5, rng.randint(1, 2), 7)):
        field = PrimeField(p)
        h = random_displacement(rng, field, nn, DD)
        nseq = n_seq_charp_direct(h)
        for m in range(2, len(nseq) + 1):
            if m % p == 1 and any(
                not s.is_zero() for s in convolution_sum(nseq.terms, m)
            ):
                return False
    return True


@register("sequence-bounds")
def _sequence_bounds(rng, bounds):
    n, D, _ = bounds.draw(rng)
    ring = QQ if rng.random() < 0.5 else PrimeField(rng.choice([2, 3, 5]))
    h = random_displacement(rng, ring, n, D)
    check_engine("charp-direct" if ring.characteristic else "recurrent", ring)(h).validate_bounds()
    # homogeneous instance checks the sharper degree statement
    h2 = random_homogeneous_displacement(rng, QQ, n, D, deg=2)
    n_seq_recurrent(h2).validate_bounds()
    return True


@register("shifted-inverse-family")
def _shifted_family(rng, bounds):
    n, D, _ = bounds.draw(rng)
    h = random_displacement(rng, QQ, n, D)
    pairs = [
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(0), Fraction(1)),
        (
            Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
            Fraction(rng.randint(1, 2), rng.randint(1, 3)),
        ),
    ]
    return all(check_shifted_inverse_family(h, t0, s0) for t0, s0 in pairs)


@register("transport-pde")
def _transport_pde(rng, bounds):
    n, D, K = bounds.draw(rng)
    h = random_displacement(rng, QQ, n, D)
    u = random_series(rng, QQ, n, D, 0, 3, terms=3)
    return check_transport_pde(h, u, K)


@register("sequence-recursion")
def _sequence_recursion(rng, bounds):
    # the N-sequence read from the fixed-point inverse satisfies
    # (m-1) N_[m] = sum [N_[k] d/dz] N_[l], in any characteristic
    n, D, _ = bounds.draw(rng)
    ring = QQ if rng.random() < 0.6 else PrimeField(rng.choice([2, 3, 5]))
    h = random_displacement(rng, ring, n, D)
    nseq = n_sequence_via_deformation(h)
    if nseq.term(1) != h:
        return False
    for m in range(2, len(nseq) + 1):
        lhs = tuple(s.scale_int(m - 1) for s in nseq.term(m))
        if list(lhs) != list(convolution_sum(nseq.terms, m)):
            return False
    return True


@register("tree-expansion-agreement")
def _tree_agreement(rng, bounds):
    n, D, _ = bounds.draw(rng)
    h = random_displacement(rng, QQ, n, D)
    return trees.n_seq_tree(h).terms == n_seq_recurrent(h).terms


@register("factorial-reciprocal-sums")
def _factorial_sums(rng, bounds):
    pairs = trees.factorial_identity_check(8)
    if any(total != 1 for _, total in pairs):
        return False
    return trees.gf_identity_check(8)


@register("commutative-pde")
def _commutative_pde(rng, bounds):
    n, D, K = bounds.draw(rng)
    h = random_displacement(rng, QQ, n, D)
    return inversion_pde_check(abelianize_vector(h), K)


def run_identity_suite(seed: int, trials: int = 20, bounds: SuiteBounds = None, names=None):
    """Run every registered identity on fresh seeded instances."""
    if trials < 1:
        raise ValueError(f"--trials (instances per identity) must be >= 1, got {trials}")
    bounds = bounds or SuiteBounds()
    results = []
    for name, fn in CHECKS.items():
        if names is not None and name not in names:
            continue
        rng = random.Random(f"{seed}:{name}")
        passed = 0
        start = time.perf_counter()
        for _ in range(trials):
            if fn(rng, bounds):
                passed += 1
        millis = (time.perf_counter() - start) * 1000.0
        results.append(IdentityResult(name, trials, passed, millis))
    return results
