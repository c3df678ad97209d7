"""Exact equivariant Schubert structure constants.

Builds root systems from (generalized) Cartan matrices, enumerates Weyl
group elements as integer matrices, computes fixed-point restriction
polynomials by the one-letter nil-Hecke recursion (a whole range, or one
element's column), computes structure constants by the Chevalley
recurrence (one pair, or whole columns for sweeps), and certifies the
sign properties of the results with exact integer arithmetic throughout.
"""

__version__ = "0.1.0"

from .errors import (
    ClosureOverflow,
    DomainViolation,
    EqschubError,
    InsufficientBound,
    InternalInconsistency,
    InvalidCartan,
    NotDivisible,
    NotFiniteType,
    NotGroupElement,
    RankMismatch,
    ResourceCap,
    SingularCartan,
)
from .localize import RestrictionTable, restriction_column, restriction_table
from .rootsys import (
    BUILTIN_TYPES,
    CartanMatrix,
    RootPolynomial,
    RootSystem,
    build_root_system,
    builtin_root_system,
)
from .structconst import (
    IdentityCheck,
    PositivityCertificate,
    StructureTable,
    billey_evaluate,
    opposite_constants,
    positivity_certificate,
    structure_constants,
    verify_product_identity,
)
from .weyl import (
    WeylElement,
    WeylRange,
    bruhat_leq,
    canonicalize,
    element_from_word,
    enumerate_upto,
    identity,
    inverse,
    longest_element,
    simple_reflection,
)

__all__ = [
    "__version__",
    "BUILTIN_TYPES",
    "CartanMatrix",
    "ClosureOverflow",
    "DomainViolation",
    "EqschubError",
    "IdentityCheck",
    "InsufficientBound",
    "InternalInconsistency",
    "InvalidCartan",
    "NotDivisible",
    "NotFiniteType",
    "NotGroupElement",
    "PositivityCertificate",
    "RankMismatch",
    "ResourceCap",
    "RestrictionTable",
    "RootPolynomial",
    "RootSystem",
    "SingularCartan",
    "StructureTable",
    "WeylElement",
    "WeylRange",
    "billey_evaluate",
    "bruhat_leq",
    "build_root_system",
    "builtin_root_system",
    "canonicalize",
    "element_from_word",
    "enumerate_upto",
    "identity",
    "inverse",
    "longest_element",
    "opposite_constants",
    "positivity_certificate",
    "restriction_column",
    "restriction_table",
    "simple_reflection",
    "structure_constants",
    "verify_product_identity",
]
