"""Eigenvalue sequences of transfer operators for contracting analytic
map-weight systems, computed two independent ways, with explicit decay
bounds.

The matrix route discretizes the operator in a circle basis and is exact
up to basis truncation (dimension 1 only). The determinant route sums
periodic-orbit data into operator traces, converts them to determinant
coefficients, and reads eigenvalues off the reciprocal zeros (any
dimension, finite alphabets only). The bounds module evaluates
stretched-exponential decay bounds from the weight sup W, the enclosing
ratio r, and the dimension d, and verifies computed spectra against them.
"""

from .bounds import (
    BoundProfile,
    BoundRow,
    VerificationReport,
    WeylRow,
    bound_combined,
    bound_d1,
    bound_general,
    bound_hardy,
    bound_table,
    crossover_N,
    crossover_report,
    t_sequence,
    verify_bounds,
)
from .determinant import (
    DeterminantSeries,
    TraceTable,
    TraceValue,
    determinant_coefficients,
    determinant_zeros,
    export_determinant_json,
    trace,
    trace_table,
)
from .dynamics import (
    DEFAULT_WORD_BUDGET,
    ContractionReport,
    FixedPointResult,
    contraction_details,
    enclosing_radius,
    fixed_point,
)
from .errors import (
    BudgetExceeded,
    DegenerateMap,
    DescriptorError,
    DimensionUnsupported,
    EscapedDomain,
    InadmissibleDomain,
    InvalidDomain,
    NoConvergence,
    NotContracting,
    NotEnclosed,
    RootFindingFailure,
    SolverFailure,
    TransferOperatorError,
    WrongDimension,
)
from .spectra import (
    EigenvalueSequence,
    OperatorMatrix,
    assemble_matrix,
    eigenvalues,
    sort_eigenvalues,
    spectral_sequence,
)
from .systems import (
    AnalyticMap,
    BallDomain,
    CountableTruncated,
    MapWeightSystem,
    ValidationReport,
    make_affine,
    make_ball,
    make_const,
    make_gauss_system,
    make_moebius,
    make_system,
    system_from_descriptor,
    validate_system,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticMap", "BallDomain", "BoundProfile", "BoundRow",
    "BudgetExceeded", "ContractionReport", "CountableTruncated",
    "DEFAULT_WORD_BUDGET", "DegenerateMap", "DescriptorError",
    "DeterminantSeries", "DimensionUnsupported", "EigenvalueSequence",
    "EscapedDomain", "FixedPointResult", "InadmissibleDomain",
    "InvalidDomain", "MapWeightSystem", "NoConvergence", "NotContracting",
    "NotEnclosed", "OperatorMatrix", "RootFindingFailure", "SolverFailure",
    "TraceTable", "TraceValue", "TransferOperatorError",
    "ValidationReport", "VerificationReport", "WeylRow", "WrongDimension",
    "assemble_matrix", "bound_combined", "bound_d1", "bound_general",
    "bound_hardy", "bound_table", "contraction_details",
    "crossover_N", "crossover_report", "determinant_coefficients",
    "determinant_zeros", "eigenvalues", "enclosing_radius",
    "export_determinant_json", "fixed_point", "make_affine", "make_ball",
    "make_const", "make_gauss_system", "make_moebius", "make_system",
    "sort_eigenvalues", "spectral_sequence", "system_from_descriptor",
    "t_sequence", "trace", "trace_table", "validate_system",
    "verify_bounds",
]
