"""Exact-arithmetic toolkit for normalised affine matrix spaces.

The package constructs six families of affine matrix spaces over exact
fields, verifies the vector-free affine-space and bracket axioms by
sampled property checks, conjugates the classes onto block form with
closed-form basis matrices, and confirms that retracting the bracket at
the block base point reproduces the classical matrix Lie algebras.
"""

from .affine import (
    COMMUTATOR,
    AffineCommutator,
    Zeta,
    action,
    assoc_retract_product,
    bracket,
    heap,
    lie_retract_bracket,
    retract_add,
    retract_neg,
    retract_scale,
    retract_sub,
    translate,
)
from .checks import (
    CATALOGUE,
    Carrier,
    MatrixClassCarrier,
    all_passed,
    replay,
    run_check,
    run_corollary,
)
from .classes import (
    MAX_N,
    ClassKind,
    MatrixClassSpec,
    base_point,
    constraint_system,
    contains,
    dimension,
    sample,
    spec_from_wire,
    spec_to_wire,
    subspace,
)
from .errors import (
    AffgebraError,
    ClassViolation,
    DigitLimit,
    DivisionByZero,
    FieldMismatch,
    Infeasible,
    MalformedWire,
    NonInvertibleScalar,
    SingularMatrix,
    SizeMismatch,
    UnknownCheck,
)
from .matrix import Matrix, matrix_from_wire, matrix_to_wire
from .report import CheckReport
from .scalars import (
    GF,
    QI,
    QQ,
    SURD,
    SURD_C,
    GaussianRational,
    PrimeFieldElement,
    SurdComplex,
    SurdReal,
    conjugate,
    field_by_tag,
    surd_basis_product,
)
from .solve import AffineSubspace, solve_affine_system
from .transforms import (
    VIA_P,
    VIA_U,
    BlockTarget,
    base_point_image,
    block_target,
    change_of_basis,
    change_of_basis_inverse,
    from_block,
    orthonormal_change_of_basis,
    to_block,
    verify_theorem,
)

__version__ = "0.1.0"
