"""Quantum distinguishability measures, matrix-manifold gradients, and
data-processing-inequality saturation certificates."""

from . import calculus, channels, divergences, linalg, saturation
from .calculus import (
    EXP,
    IDENTITY,
    LOG,
    NEG_LOG,
    X_LOG_X,
    LinearFunctionalSample,
    ScalarFunctionPair,
    dualize,
    finite_difference_frechet,
    frechet_derivative,
    hermitian_basis,
    numeric_gradient,
    power,
)
from .channels import KrausChannel, verify_cptp
from .divergences import MeasureSpec, evaluate, grad1, grad2, scaling_check
from .linalg import (
    HermitianOperator,
    PositiveOperator,
    PsdOperator,
    SpectralDecomposition,
    hs_inner,
    log_cross,
    matrix_function,
    spectral_decompose,
    zeroth_power,
)
from .saturation import (
    SaturationReport,
    alpha2_petz_residual,
    alpha_z_crosscheck,
    boundary_residual_general,
    boundary_residual_relent,
    build_report,
    converse_certificate,
    dpi_gap,
    hiai_residual,
    petz_map,
    residual1,
    residual2,
    tangent_membership,
    tangent_project,
    tangent_space_rank,
)

__version__ = "0.1.0"
