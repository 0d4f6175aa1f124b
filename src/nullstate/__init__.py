"""Desk-scale numerics for null-state PDE systems.

Scalar backbone (collapse exponents, leg weights, eigenvalues), the Jacobi
polynomial/heat-kernel machinery, one- and two-interval causal Green functions,
finite-difference residuals of the null-state and Ward-identity system, and
interval-collapse asymptotics estimators, all behind a verification CLI.
"""

from .asymptotics import (
    CollapseSpec,
    ExponentEstimate,
    adjacent_pair_bound_scan,
    collapse_exponent,
    ell_limit,
    far_pair_bound_scan,
    one_interval_decomposition_fit,
    two_leg_test,
)
from .errors import DegenerateFitError, DomainError, PreconditionError, TruncationError
from .exponents import (
    JacobiParams,
    KpzPair,
    delta_minus,
    delta_plus,
    eigenvalue,
    gap,
    jacobi_params,
    kpz,
    kpz_leg_identity_residual,
    leg_weight,
    weight_floor,
)
from .green import OneIntervalGreen, SigmaEigenfunction, TwoIntervalGreen
from .heat_kernel import (
    HeatKernel,
    KernelValue,
    TruncationPolicy,
    bound_ratio_scan,
    collapse_time,
)
from .jacobi import JacobiBasis, QuadratureRule, gauss_jacobi_rule
from .pde import (
    CandidateFunction,
    PointConfig,
    ResidualReport,
    WeightAssignment,
    builtin_n1,
    builtin_power_product,
    resolve_candidate,
    system_residuals,
    two_point_ward_solvable,
)

__version__ = "0.1.0"
