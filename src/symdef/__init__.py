"""Exact symbolic verification of deformations of the sl(2)- and
osp(1|2)-module structures on spaces of symbols of differential operators.

Everything is computed over exact rationals: weighted-density actions,
operator normal forms, Chevalley-Eilenberg differentials, bounded
coboundary solves, and the obstruction calculus that derives the
integrability conditions of infinitesimal deformations.
"""

__version__ = "0.1.0"

from .kernel import (  # noqa: F401
    ParamAlgebra,
    ParamScalar,
    UsageError,
    format_rational,
    parse_rational,
)
from .geometry import (  # noqa: F401
    CLASSICAL,
    SUPER,
    ContactField,
    Density,
    Poly,
    SuperPoly,
    VectorField,
    contact_bracket,
    density_action,
    eta_bar,
    osp_basis,
    sl2_basis,
    super_density_action,
    vf_bracket,
)
from .operators import (  # noqa: F401
    DiffOp,
    GradedOp,
    SuperDiffOp,
    apply,
    compose,
    lie_derivative_op,
    principal_symbol,
    super_lie_derivative_op,
    supercommutator,
)
from .cohomology import (  # noqa: F401
    BoundsSpec,
    Cochain,
    Cochain0,
    Cochain1,
    Cochain2,
    NoSolutionWithinBounds,
    Witness,
    coboundary_solve,
    cohomology_dim,
    d0,
    d1,
    d2,
)
from .catalog import (  # noqa: F401
    build_cocycle,
    calibrate_convention,
    cocycle_A,
    cocycle_B,
    cocycle_C,
    cocycle_Omega,
    cocycle_Phi,
    cocycle_Y,
    cocycle_Yprime,
    cocycle_Ytilde,
    lemma23_check,
    parse_catalog_id,
)
from .deformation import (  # noqa: F401
    DeformationSpec,
    DeformedAction,
    bracket_defect,
    build_infinitesimal,
    check_published_conditions,
    example1_family,
    gauge_transform,
    obstruction_classes,
    trivialize_second_order,
    verify_homomorphism,
)
