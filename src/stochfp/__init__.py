"""stochfp: stochastic fixed-point solvers for mean-of-mappings problems.

Solves ``x = T(x)`` where ``T`` is the mean of finitely many nonexpansive
mappings, using anchored (Halpern-type) and averaged (Krasnosel'skii-Mann)
iterations, deterministically or with sampled mini-batch means.  Ships
schedule validators, independent oracles for the limit point, and seeded
Monte-Carlo diagnostics.
"""

from .core import (CallableFamily, DimensionMismatchError, DivergenceError,
                   EnsembleStats, MappingFamily, OracleError, OracleInfo,
                   Problem, RunRecord, as_point, exact_mean_apply, f0_value)
from .mappings import (AveragedFamily, GradientFamily, Halfspace,
                       NonexpansivityError, ProjectionFamily, QuadraticTerm,
                       make_averaged, make_gradient_family,
                       make_projection_family, project_halfspace)
from .schedules import (BatchSchedule, ConditionScan, StepSchedule,
                        ValidationReport, validate)
from .sampling import BatchDraw, apply_mini_batch, iteration_rng, sample_batch
from .solvers import (METHODS, STOCHASTIC_METHODS, SolverConfig, halpern_step,
                      km_step, run)
from .diagnostics import (OracleResult, TheoremConstants, averaged_rate_bound,
                          default_probes, ensemble, estimate_sigma_sq,
                          fit_rate, oracle_feasibility, oracle_quadratic,
                          predicted_rate_exponent, resolve_oracle, sample_ball,
                          theorem_constants)
from .benchmarks import (random_halfspace_problem, random_quadratic_problem,
                         two_halfspace_problem)

__version__ = "0.1.0"

__all__ = [
    "as_point", "f0_value", "exact_mean_apply",
    "MappingFamily", "CallableFamily", "Problem", "OracleInfo",
    "RunRecord", "EnsembleStats",
    "DimensionMismatchError", "DivergenceError", "OracleError",
    "Halfspace", "project_halfspace", "ProjectionFamily",
    "QuadraticTerm", "GradientFamily", "AveragedFamily",
    "NonexpansivityError",
    "make_projection_family", "make_gradient_family", "make_averaged",
    "StepSchedule", "BatchSchedule", "ValidationReport", "ConditionScan",
    "validate",
    "BatchDraw", "sample_batch", "apply_mini_batch", "iteration_rng",
    "METHODS", "STOCHASTIC_METHODS", "SolverConfig",
    "halpern_step", "km_step", "run",
    "OracleResult", "TheoremConstants",
    "oracle_feasibility", "oracle_quadratic", "resolve_oracle",
    "estimate_sigma_sq", "sample_ball", "default_probes",
    "theorem_constants", "averaged_rate_bound",
    "ensemble", "fit_rate", "predicted_rate_exponent",
    "two_halfspace_problem", "random_halfspace_problem",
    "random_quadratic_problem",
    "__version__",
]
