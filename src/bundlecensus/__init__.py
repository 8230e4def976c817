"""Chern-class realizability and bundle counting over 8-dimensional spin^c manifolds."""

from .abelian import (
    ContainmentError,
    FGAbelianGroup,
    GroupElement,
    IntMatrix,
    cokernel_presentation,
    smith_normal_form,
    subgroup_quotient,
)
from .census import CensusResult, cp4_rank3_admissible, cp4_rank4_admissible, enumerate_cp4
from .charclass import RationalClassPolynomial, chern_inverse, chern_product, rr_value
from .classify import (
    OddGeneratorsMissing,
    Verdict,
    check_rank3,
    check_rank4,
    compute_B,
    compute_T,
    count_classes,
    oracle_congruences,
)
from .cohomology import (
    ChernTuple,
    CohomologyClass,
    GradedGroupMod2,
    GradedGroupZ,
    ManifoldData,
    ManifoldValidationError,
    MissingOperationError,
    ValidationReport,
    apply_op,
    cup,
    pair_top,
    validate_manifold,
)
from .fixtures import BUILTIN_NAMES, builtin
from .manifold_io import ManifoldParseError, parse_manifold, serialize_manifold

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "CensusResult",
    "ChernTuple",
    "CohomologyClass",
    "ContainmentError",
    "FGAbelianGroup",
    "GradedGroupMod2",
    "GradedGroupZ",
    "GroupElement",
    "IntMatrix",
    "ManifoldData",
    "ManifoldParseError",
    "ManifoldValidationError",
    "MissingOperationError",
    "OddGeneratorsMissing",
    "RationalClassPolynomial",
    "ValidationReport",
    "Verdict",
    "apply_op",
    "builtin",
    "check_rank3",
    "check_rank4",
    "chern_inverse",
    "chern_product",
    "cokernel_presentation",
    "compute_B",
    "compute_T",
    "count_classes",
    "cp4_rank3_admissible",
    "cp4_rank4_admissible",
    "cup",
    "enumerate_cp4",
    "oracle_congruences",
    "pair_top",
    "parse_manifold",
    "rr_value",
    "serialize_manifold",
    "smith_normal_form",
    "subgroup_quotient",
    "validate_manifold",
]
