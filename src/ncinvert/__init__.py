"""Exact inversion of formal maps z - H(z) in noncommutative variables.

The package provides truncated noncommutative power series over exact
coefficient rings, five mutually checking inversion engines (fixed-point
substitution, the characteristic-0 recurrence, the characteristic-p
direct/lift pair, and the planar-binary-tree expansion), the t-deformation
machinery behind them, the commutative quotient, and a CLI front end.
"""

from .rings import QQ, IntPolyRing, PrimeField, RationalField, TQuotientRing
from .freealg import (
    Derivation,
    FormalMap,
    INFINITE_ORDER,
    NCSeries,
    compose,
    compose_vector,
    jacobian_tilde,
    star_action,
)
from .inversion import (
    NSequence,
    VerifyReport,
    c_sequence,
    check_engine,
    engines_for_ring,
    invert,
    invert_charp_direct,
    invert_charp_lift,
    invert_fixed_point,
    n_seq_charp_direct,
    n_seq_recurrent,
    verify_inverse,
)
from .trees import (
    PBTree,
    enumerate_pbtrees,
    factorial_identity_check,
    invert_tree,
    reduced_factorial,
    tree_expansion_term,
)
from .deformation import (
    DeformedMap,
    SpecialDeformation,
    n_sequence_via_deformation,
)
from .commutative import CommPoly, abelianize, abelianize_vector
from .parsing import format_map, format_series, parse_expression, parse_map

__all__ = [
    "QQ",
    "IntPolyRing",
    "PrimeField",
    "RationalField",
    "TQuotientRing",
    "Derivation",
    "FormalMap",
    "INFINITE_ORDER",
    "NCSeries",
    "compose",
    "compose_vector",
    "jacobian_tilde",
    "star_action",
    "NSequence",
    "VerifyReport",
    "c_sequence",
    "check_engine",
    "engines_for_ring",
    "invert",
    "invert_charp_direct",
    "invert_charp_lift",
    "invert_fixed_point",
    "n_seq_charp_direct",
    "n_seq_recurrent",
    "verify_inverse",
    "PBTree",
    "enumerate_pbtrees",
    "factorial_identity_check",
    "invert_tree",
    "reduced_factorial",
    "tree_expansion_term",
    "DeformedMap",
    "SpecialDeformation",
    "n_sequence_via_deformation",
    "CommPoly",
    "abelianize",
    "abelianize_vector",
    "format_map",
    "format_series",
    "parse_expression",
    "parse_map",
]
