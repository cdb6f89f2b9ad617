"""Safe zeroth-order log-barrier optimization.

Minimizes an unknown non-convex objective under unknown constraints
using only noisy function values, while keeping every queried point
feasible with high probability: a smoothed log barrier is descended
with randomized sphere-sampling gradient estimates, certified safety
margins from sub-Gaussian confidence bounds, and a margin-capped step
size. Ships a ground-truth safety auditor, an independent Monte-Carlo
smoothing oracle for verification, analytic fixtures with known KKT
points, a unicycle controller-design benchmark, and a CLI harness.
"""

from .errors import (
    BudgetExhaustedError,
    ConfigError,
    ContractViolationError,
    DivergedTrajectoryError,
    MarginExhaustedError,
    NonFiniteMeasurementError,
    NoValidOutputError,
    UnknownProblemError,
    UnknownSuiteError,
    UnsafeQueryError,
    UnsafeStartError,
    ZobarrierError,
)
from .harness import (
    ExperimentConfig,
    build_problem,
    config_from_mapping,
    run_experiment,
    verify_properties,
)
from .oracle import MeasurementOracle, NoiseModel, SafetyAudit, write_audit_csv
from .problems import (
    ProblemSpec,
    UnicycleConfig,
    analytic_names,
    analytic_problem,
    make_unicycle_problem,
)
from .solver import AlgoConfig, RunResult, run

__version__ = "0.1.0"

__all__ = [
    "AlgoConfig",
    "BudgetExhaustedError",
    "ConfigError",
    "ContractViolationError",
    "DivergedTrajectoryError",
    "ExperimentConfig",
    "MarginExhaustedError",
    "MeasurementOracle",
    "NoValidOutputError",
    "NoiseModel",
    "NonFiniteMeasurementError",
    "ProblemSpec",
    "RunResult",
    "SafetyAudit",
    "UnicycleConfig",
    "UnknownProblemError",
    "UnknownSuiteError",
    "UnsafeQueryError",
    "UnsafeStartError",
    "ZobarrierError",
    "analytic_names",
    "analytic_problem",
    "build_problem",
    "config_from_mapping",
    "make_unicycle_problem",
    "run",
    "run_experiment",
    "verify_properties",
    "write_audit_csv",
]
