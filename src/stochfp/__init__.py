"""stochfp: stochastic fixed-point solvers for mean-of-mappings problems.

Solves ``x = T(x)`` where ``T`` is the mean of finitely many nonexpansive
mappings, using anchored (Halpern-type) and averaged (Krasnosel'skii-Mann)
iterations, deterministically or with sampled mini-batch means.  Ships
schedule validators, seeded Monte-Carlo diagnostics, and families that
certify their own limit point independently of the solvers.
"""

from .core import (CallableFamily, DimensionMismatchError, DivergenceError,
                   EnsembleStats, MappingFamily, OracleError, OracleInfo,
                   OracleResult, Problem, RunRecord, as_point, f0_value,
                   resolve_oracle)
from .mappings import (AveragedFamily, GradientFamily, Halfspace,
                       NonexpansivityError, ProjectionFamily, QuadraticTerm,
                       project_halfspace)
from .schedules import (BatchSchedule, ConditionScan, StepSchedule,
                        ValidationReport, validate)
from .sampling import BatchDraw, apply_mini_batch, iteration_rng, sample_batch
from .solvers import METHODS, STOCHASTIC_METHODS, SolverConfig, run
from .diagnostics import (TheoremConstants, averaged_rate_bound, default_probes,
                          ensemble, estimate_sigma_sq, fit_rate,
                          predicted_rate_exponent, sample_ball,
                          theorem_constants)
from .benchmarks import (random_halfspace_problem, random_quadratic_problem,
                         two_halfspace_problem)

__version__ = "0.1.0"

__all__ = [
    "as_point", "f0_value",
    "MappingFamily", "CallableFamily", "Problem", "OracleInfo",
    "RunRecord", "EnsembleStats",
    "DimensionMismatchError", "DivergenceError", "OracleError",
    "Halfspace", "project_halfspace", "ProjectionFamily",
    "QuadraticTerm", "GradientFamily", "AveragedFamily",
    "NonexpansivityError",
    "StepSchedule", "BatchSchedule", "ValidationReport", "ConditionScan",
    "validate",
    "BatchDraw", "sample_batch", "apply_mini_batch", "iteration_rng",
    "METHODS", "STOCHASTIC_METHODS", "SolverConfig",
    "run",
    "OracleResult", "TheoremConstants",
    "resolve_oracle",
    "estimate_sigma_sq", "sample_ball", "default_probes",
    "theorem_constants", "averaged_rate_bound",
    "ensemble", "fit_rate", "predicted_rate_exponent",
    "two_halfspace_problem", "random_halfspace_problem",
    "random_quadratic_problem",
    "__version__",
]
