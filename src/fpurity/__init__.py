"""Effective criteria for prime-characteristic singularities of pairs:
purity tests through ideal-theoretic splitting conditions, generalized
test ideals over regular ambients, Frobenius-closure witness checks, and
F-pure-threshold estimation with rationality certificates.
"""

from .ceilarith import (
    ceil_mul,
    denominator_order,
    floor_mul,
)
from .closure import (
    ClosureVerdict,
    sharp_frobenius_membership,
    tight_closure_witness_check,
)
from .errors import (
    ExponentOverflowError,
    ParseError,
    ResourceCapExceeded,
    RingMismatchError,
)
from .field import PrimeField
from .fpt import (
    FptCertificate,
    FptEstimate,
    NuRecord,
    fpt_bounds,
    fpt_estimate,
    nu_table,
    nu_value,
)
from .ideals import (
    Ideal,
    all_members,
    bracket_power,
    colon,
    fedder_colon,
    ideal_contains,
    ideal_equals,
    ideal_power,
    intersect,
    membership,
    root_power,
)
from .parser import (
    parse_poly,
    parse_poly_list,
    parse_rational,
    parse_ring,
    poly_to_str,
)
from .poly import (
    PolyRing,
    SparsePolynomial,
    frobenius_image,
    poly_mul,
    poly_pow,
)
from .purity import (
    PairSpec,
    PurityVerdict,
    classic_fpure,
    maximal_ideal,
    sharp_fedder,
    strong_fedder,
    verify_witness,
)
from .testideal import (
    TestIdealResult,
    test_ideal,
)

__all__ = [
    "ClosureVerdict",
    "ExponentOverflowError",
    "FptCertificate",
    "FptEstimate",
    "Ideal",
    "NuRecord",
    "PairSpec",
    "ParseError",
    "PolyRing",
    "PrimeField",
    "PurityVerdict",
    "ResourceCapExceeded",
    "RingMismatchError",
    "SparsePolynomial",
    "TestIdealResult",
    "all_members",
    "bracket_power",
    "ceil_mul",
    "classic_fpure",
    "colon",
    "denominator_order",
    "fedder_colon",
    "floor_mul",
    "fpt_bounds",
    "fpt_estimate",
    "frobenius_image",
    "ideal_contains",
    "ideal_equals",
    "ideal_power",
    "intersect",
    "maximal_ideal",
    "membership",
    "nu_table",
    "nu_value",
    "parse_poly",
    "parse_poly_list",
    "parse_rational",
    "parse_ring",
    "poly_mul",
    "poly_pow",
    "poly_to_str",
    "root_power",
    "sharp_fedder",
    "sharp_frobenius_membership",
    "strong_fedder",
    "test_ideal",
    "tight_closure_witness_check",
    "verify_witness",
]
