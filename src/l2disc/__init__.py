"""Unified L2 discrepancy toolkit.

Every supported squared discrepancy decomposes into a constant A, a
per-coordinate linear factor B, and a pairwise factor C, evaluated in
O(d n^2).  On top of that kernel layer the package provides a geometric
Monte-Carlo oracle that validates the closed forms, an analysis of the
replicated-point pathology with expected-value formulas under IID
sampling, and two constructors of low-discrepancy point sets: greedy
batch extension and multi-restart L-BFGS-B optimization.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .core import (
    BudgetExhaustedError,
    MeasureId,
    NoGeometricOracleError,
    NonDifferentiableMeasureError,
    NumericGuardError,
    PointSet,
    SquaredDiscrepancy,
    ValidationError,
    WeightVector,
    nearest_vertex,
    reflect,
)
from .kernels import KernelSpec, expectation_constants, kernel_spec
from .evaluator import (
    asd_by_reflection,
    gradient,
    greedy_contribution,
    squared_discrepancy,
    squared_value,
    value_and_gradient,
)
from .oracle import (
    OracleEstimate,
    box_membership,
    even_subset_volume,
    local_discrepancy,
    mc_expected_iid,
    mc_squared_discrepancy,
)
from .generators import (
    DirectionNumbers,
    fibonacci_lattice,
    grid,
    iid_uniform,
    replicated_point,
    sobol,
)
from .pathology import (
    PathologyRow,
    anchor_point,
    check_asd_superiority,
    expected_iid_squared,
    iid_threshold,
    pathology_row,
    pathology_table,
    reference_row,
    single_point_value,
)
from .construct import (
    GreedyConfig,
    OptimizerConfig,
    Trace,
    cross_evaluate,
    greedy_extend,
    optimize,
)

__all__ = [
    "__version__",
    # core
    "BudgetExhaustedError",
    "MeasureId",
    "NoGeometricOracleError",
    "NonDifferentiableMeasureError",
    "NumericGuardError",
    "PointSet",
    "SquaredDiscrepancy",
    "ValidationError",
    "WeightVector",
    "nearest_vertex",
    "reflect",
    # kernels
    "KernelSpec",
    "expectation_constants",
    "kernel_spec",
    # evaluator
    "asd_by_reflection",
    "gradient",
    "greedy_contribution",
    "squared_discrepancy",
    "squared_value",
    "value_and_gradient",
    # oracle
    "OracleEstimate",
    "box_membership",
    "even_subset_volume",
    "local_discrepancy",
    "mc_expected_iid",
    "mc_squared_discrepancy",
    # generators
    "DirectionNumbers",
    "fibonacci_lattice",
    "grid",
    "iid_uniform",
    "replicated_point",
    "sobol",
    # pathology
    "PathologyRow",
    "anchor_point",
    "check_asd_superiority",
    "expected_iid_squared",
    "iid_threshold",
    "pathology_row",
    "pathology_table",
    "reference_row",
    "single_point_value",
    # construct
    "GreedyConfig",
    "OptimizerConfig",
    "Trace",
    "cross_evaluate",
    "greedy_extend",
    "optimize",
]
