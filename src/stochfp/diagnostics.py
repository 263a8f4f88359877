"""Independent oracles, Monte-Carlo ensembles, and convergence diagnostics.

The oracles compute the limit point ``x_star`` (the projection of the anchor
onto the fixed point set) by routes independent of the iterative solvers:
cyclic projections with corrections for halfspace intersections, and dense
normal equations for quadratic families.  Ensembles aggregate many seeded
runs into per-iteration means and standard errors, from which the bound
constants of the convergence analysis and empirical rate exponents are
checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (EnsembleStats, OracleError, Problem, as_point, f0_value)
from .mappings import Halfspace, QuadraticTerm, make_projection_family
from .schedules import BatchSchedule, StepSchedule, batch_inv_sum_bound
from .solvers import SolverConfig, _run_trials

__all__ = [
    "OracleResult",
    "TheoremConstants",
    "oracle_feasibility",
    "oracle_quadratic",
    "resolve_oracle",
    "estimate_sigma_sq",
    "sample_ball",
    "default_probes",
    "theorem_constants",
    "averaged_rate_bound",
    "ensemble",
    "fit_rate",
    "predicted_rate_exponent",
]

@dataclass(frozen=True)
class OracleResult:
    """Certified limit point with its residual under the exact family mean."""

    x_star: np.ndarray
    residual_at_star: float
    method: str
    iterations: int | None = None
    condition: float | None = None


def oracle_feasibility(halfspaces: Sequence[Halfspace], x0,
                       change_tol: float = 1e-12,
                       max_sweeps: int = 1_000_000) -> OracleResult:
    """Project ``x0`` onto the intersection of halfspaces by cyclic projections.

    Uses the corrected cyclic scheme (each set keeps its own correction
    vector), which converges to the exact nearest point of the intersection
    rather than merely a feasible point.  Sweeps stop once the iterate moves
    less than ``change_tol`` in one full cycle.

    Raises
    ------
    OracleError
        If the sweep limit is hit before the change tolerance (which is also
        the symptom of an empty intersection), or if the certified point's
        residual under the mean-projection mapping exceeds 1e-8.
    """
    if len(halfspaces) == 0:
        raise ValueError("need at least one halfspace")
    family = make_projection_family(halfspaces)
    x = as_point(x0, dim=family.dim, name="x0").copy()
    corrections = np.zeros((family.n, family.dim))
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        x_prev = x.copy()
        for i, h in enumerate(halfspaces):
            y = x + corrections[i]
            viol = float(h.normal @ y) - h.offset
            if viol > 0.0:
                x = y - (viol / float(h.normal @ h.normal)) * h.normal
            else:
                x = y
            corrections[i] = y - x
        if float(np.linalg.norm(x - x_prev)) < change_tol:
            break
    else:
        raise OracleError(
            f"projection oracle did not converge within {max_sweeps} sweeps; "
            "the intersection may be empty"
        )
    residual = float(np.linalg.norm(x - family.mean(x)))
    if residual > 1e-8:
        raise OracleError(
            f"projection oracle residual {residual:.3e} exceeds 1e-8; "
            "the intersection may be empty"
        )
    return OracleResult(x_star=x, residual_at_star=residual,
                        method="dykstra", iterations=sweeps)


def oracle_quadratic(terms: Sequence[QuadraticTerm], x0) -> OracleResult:
    """Minimizer of the averaged quadratic objective via dense normal equations.

    The averaged objective has the unique minimizer solving
    ``(sum_i A_i^T A_i) x = sum_i A_i^T b_i``; with full-column-rank terms
    the fixed point set of the gradient-step family is that singleton, so
    the projection of any anchor onto it is the minimizer itself.
    """
    if len(terms) == 0:
        raise ValueError("need at least one term")
    dim = terms[0].dim
    as_point(x0, dim=dim, name="x0")
    gram = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    for t in terms:
        gram += t.A.T @ t.A
        rhs += t.A.T @ t.b
    cond = float(np.linalg.cond(gram))
    try:
        x_star = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise OracleError(
            "normal equations are singular; the fixed point set is not a "
            "singleton - use the feasibility family instead"
        ) from exc
    rel_residual = float(np.linalg.norm(gram @ x_star - rhs)
                         / max(np.linalg.norm(rhs), 1.0))
    if rel_residual > 1e-10:
        raise OracleError(
            f"normal-equation relative residual {rel_residual:.3e} exceeds 1e-10 "
            "(badly conditioned system); use the feasibility family instead"
        )
    return OracleResult(x_star=x_star, residual_at_star=rel_residual,
                        method="normal_equations", condition=cond)


def resolve_oracle(problem: Problem, cache: bool = True) -> OracleResult:
    """Compute (and memoize on the problem) the oracle point for its family."""
    if problem._oracle_cache is not None and cache:
        return problem._oracle_cache
    info = problem.oracle_info
    if info is None:
        raise ValueError("problem carries no oracle data")
    if info.kind == "halfspaces":
        result = oracle_feasibility(info.data, problem.x0)
    elif info.kind == "quadratic":
        result = oracle_quadratic(info.data, problem.x0)
    else:
        raise ValueError(f"unknown oracle kind {info.kind!r}")
    if cache:
        object.__setattr__(problem, "_oracle_cache", result)  # Problem is frozen
    return result


def estimate_sigma_sq(family, probe_points) -> float:
    """Worst observed componentwise variance of the family over probe points.

    At each probe ``x`` the exact variance ``(1/n) sum_i ||T_i(x) - T(x)||^2``
    is computed by full enumeration (no sampling); the maximum over probes
    serves as the variance-bound estimate.
    """
    probes = list(probe_points)
    if not probes:
        raise ValueError("need at least one probe point")
    worst = 0.0
    for p in probes:
        x = as_point(p, dim=family.dim, name="probe")
        values = family.eval_all(x)
        centered = values - values.sum(axis=0) / family.n
        worst = max(worst, float(np.einsum("ij,ij->", centered, centered)) / family.n)
    return worst


def sample_ball(center, radius: float, count: int, seed: int) -> np.ndarray:
    """Uniform samples from the closed ball around ``center``; (count, d) array."""
    c = as_point(center, name="center")
    if radius < 0.0:
        raise ValueError("radius must be >= 0")
    rng = np.random.default_rng(seed)
    d = c.size
    dirs = rng.standard_normal((count, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.random(count) ** (1.0 / d)
    return c[None, :] + radii[:, None] * dirs


def default_probes(problem: Problem, oracle: OracleResult,
                   count: int = 64, seed: int = 2024) -> np.ndarray:
    """Probe points for variance estimation: the ball around the limit point.

    The ball radius is twice the anchor distance ``2*||x0 - x_star||``, which
    covers the region the anchored iterates traverse; the anchor and the
    limit point themselves are included.
    """
    r = 2.0 * float(np.linalg.norm(problem.x0 - oracle.x_star))
    pts = sample_ball(oracle.x_star, r, count, seed)
    return np.vstack([oracle.x_star[None, :], problem.x0[None, :], pts])


@dataclass(frozen=True)
class TheoremConstants:
    """Constants appearing in the boundedness and rate bounds.

    ``M`` bounds the expected squared distance of iterates to the limit
    point (tightest admissible choice ``||x0 - x_star||^2 + sigma_sq``);
    ``M1`` bounds expected mapped-value norms; ``M2`` equals ``M``;
    ``M3 = 4*(M + sigma_sq + ||grad f0(x_star)||^2)`` enters the rate bound
    of the identity-blended variant; ``B`` is the closed-form bound on
    ``sum 1/b_k`` (None for constant batches, where no such bound exists).
    """

    sigma_sq: float
    M: float
    M1: float
    M2: float
    M3: float
    B: float | None


def theorem_constants(problem: Problem, oracle: OracleResult, sigma_sq: float,
                      batch: BatchSchedule | None = None) -> TheoremConstants:
    """Evaluate the bound constants for one problem/oracle/batch combination."""
    x0 = problem.x0
    x_star = oracle.x_star
    dist_sq = float(np.sum((x0 - x_star) ** 2))
    m = dist_sq + sigma_sq
    m1 = float(np.linalg.norm(x0)) + np.sqrt(
        2.0 * (m + float(np.sum(x_star**2)) + sigma_sq)
    )
    grad_sq = dist_sq  # grad f0(x_star) = x_star - x0
    m3 = 4.0 * (m + sigma_sq + grad_sq)
    b = batch_inv_sum_bound(batch) if batch is not None else None
    return TheoremConstants(sigma_sq=sigma_sq, M=m, M1=m1, M2=m, M3=m3, B=b)


def averaged_rate_bound(constants: TheoremConstants, step: StepSchedule,
                        batch: BatchSchedule, horizon: int,
                        dist0_sq: float) -> float:
    """Right-hand side of the rate bound for the identity-blended iteration.

    ``(dist0_sq + M3 * sum alpha_k^2 + sigma_sq * sum 1/b_k) / (2 * sum alpha_k)``
    with the sums taken over the actually emitted schedule values below the
    horizon.
    """
    alphas = step.values(horizon)
    bs = batch.values_float(horizon)
    return float(
        (dist0_sq + constants.M3 * np.sum(alphas**2)
         + constants.sigma_sq * np.sum(1.0 / bs))
        / (2.0 * np.sum(alphas))
    )


def _mean_se(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and unbiased standard error of a ``(trials, L)`` stack.

    Deviations are taken from trial 0, so identical trials (deterministic
    methods) give a standard error of exactly 0.
    """
    dev = rows - rows[0]
    shift = dev.mean(axis=0)
    var = ((dev - shift) ** 2).sum(axis=0) / (rows.shape[0] - 1)
    return rows[0] + shift, np.sqrt(var / rows.shape[0])


def ensemble(problem: Problem, cfg: SolverConfig, trials: int) -> EnsembleStats:
    """Aggregate ``trials`` independent seeded runs of one configuration.

    Per-trial seeds are the 64-bit words of
    ``SeedSequence(cfg.seed).generate_state(trials)``, so the seed of trial
    ``i`` is the same for every ``trials >= i + 1``.  All trials advance
    together in one ``(trials, d)`` state, each drawing from its own seed's
    stream; trial ``i``'s draws are therefore identical for every trial
    count, and its trajectory agrees with a lone :func:`run` on its seed to
    floating-point rounding.  A non-finite iterate aborts the ensemble with
    the seed of the first trial that left the finite range, at the earliest
    such iteration.
    """
    if trials < 2:
        raise ValueError("ensembles need at least two trials")

    trial_seeds = np.random.SeedSequence(cfg.seed).generate_state(trials, np.uint64)
    trace = _run_trials(problem, cfg, trial_seeds)
    x_star = None
    f0_star = 0.0
    if problem.oracle_info is not None:
        x_star = resolve_oracle(problem).x_star
        f0_star = f0_value(x_star, problem.x0)

    def stat(rows):
        return (None, None) if rows is None else _mean_se(rows)

    residual_mean, residual_se = stat(trace.residuals)
    f0_mean, f0_se = stat(trace.f0_values)
    msq_dist_mean, msq_dist_se = stat(trace.dist_sq)
    batch_msq_mean, batch_msq_se = stat(trace.batch_dist_sq)
    return EnsembleStats(
        ks=trace.ks,
        alphas=trace.alphas,
        batch_sizes=trace.batch_sizes,
        residual_mean=residual_mean,
        residual_se=residual_se,
        f0gap_mean=f0_mean - f0_star,
        f0gap_se=f0_se,
        msq_dist_mean=msq_dist_mean,
        msq_dist_se=msq_dist_se,
        batch_msq_mean=batch_msq_mean,
        batch_msq_se=batch_msq_se,
        step_norm_mean=stat(trace.step_norms)[0],
        trial_count=trials,
        f0_star=f0_star,
        x_star=x_star,
        trial_seeds=trial_seeds,
    )


def fit_rate(stats: EnsembleStats, window: tuple[int, int]) -> float:
    """Log-log slope of the running-min absolute anchor-objective gap.

    Anchored runs start at the anchor itself, so the mean objective
    approaches its constrained optimum from below and the signed gap stays
    negative; the decay rate lives in the gap magnitude.  The fit takes the
    recorded points with ``k`` inside the window (``k >= 1``), applies a
    running minimum to ``|mean f0 - f0_star|``, and returns the least-squares
    slope of ``log(gap)`` against ``log(k)``.
    """
    k_lo, k_hi = window
    sel = (stats.ks >= max(k_lo, 1)) & (stats.ks <= k_hi)
    ks = stats.ks[sel]
    if ks.size < 5:
        raise ValueError("need at least 5 recorded points in the fit window")
    gaps = np.minimum.accumulate(np.abs(stats.f0gap_mean[sel]))
    if np.any(gaps <= 0.0):
        raise ValueError("gap below noise floor; shrink window")
    slope = np.polyfit(np.log(ks.astype(float)), np.log(gaps), 1)[0]
    return float(slope)


def predicted_rate_exponent(step: StepSchedule) -> tuple[float | None, str]:
    """Predicted power-law exponent of the objective gap for a step schedule.

    For the polynomially decreasing kinds with exponent ``a``: ``-a`` below
    1/2, ``-1/2`` at 1/2 (with an extra log factor), ``-(1-a)`` above 1/2,
    and no power law at ``a = 1`` (logarithmic decay only).
    """
    if step.kind not in ("poly", "lambda_poly"):
        return None, "no power-law prediction for this step kind"
    a = step.a
    if a < 0.5:
        return -a, f"predicted exponent -a = {-a:g}"
    if a == 0.5:
        return -0.5, "predicted exponent -1/2 (up to a log factor)"
    if a < 1.0:
        return -(1.0 - a), f"predicted exponent -(1-a) = {-(1.0 - a):g}"
    return None, "logarithmic decay only (a = 1)"
