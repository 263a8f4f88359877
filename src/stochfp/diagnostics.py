"""Monte-Carlo ensembles and convergence diagnostics.

Ensembles aggregate many seeded runs into per-iteration means and standard
errors, from which the bound constants of the convergence analysis and
empirical rate exponents are checked against the limit point ``x_star``
that :func:`stochfp.core.resolve_oracle` certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EnsembleStats, OracleResult, Problem, as_point, f0_value, resolve_oracle
from .schedules import StepSchedule, ValidationReport
from .solvers import SolverConfig, _run_trials

__all__ = [
    "TheoremConstants",
    "estimate_sigma_sq",
    "sample_ball",
    "default_probes",
    "theorem_constants",
    "averaged_rate_bound",
    "ensemble",
    "fit_rate",
    "predicted_rate_exponent",
]


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
        values -= values.sum(axis=0) / family.n
        worst = max(worst, float(np.einsum("ij,ij->", values, values)) / family.n)
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
    point (tightest admissible choice ``||x0 - x_star||^2 + sigma_sq``),
    and every bound that reuses that quantity reads it from ``M``;
    ``M1`` bounds expected mapped-value norms;
    ``M3 = 4*(M + sigma_sq + ||grad f0(x_star)||^2)`` enters the rate bound
    of the identity-blended variant.  The schedule sums and the closed-form
    ``B >= sum 1/b_k`` are not constants of the problem: they live in the
    :class:`~stochfp.schedules.ValidationReport` of the schedules.
    """

    sigma_sq: float
    M: float
    M1: float
    M3: float


def theorem_constants(problem: Problem, oracle: OracleResult,
                      sigma_sq: float) -> TheoremConstants:
    """Evaluate the bound constants for one problem, its oracle point and
    a variance bound ``sigma_sq``."""
    x0 = problem.x0
    x_star = oracle.x_star
    dist_sq = float(np.sum((x0 - x_star) ** 2))
    m = dist_sq + sigma_sq
    m1 = float(np.linalg.norm(x0)) + np.sqrt(
        2.0 * (m + float(np.sum(x_star**2)) + sigma_sq)
    )
    grad_sq = dist_sq  # grad f0(x_star) = x_star - x0
    m3 = 4.0 * (m + sigma_sq + grad_sq)
    return TheoremConstants(sigma_sq=sigma_sq, M=m, M1=m1, M3=m3)


def averaged_rate_bound(constants: TheoremConstants, report: ValidationReport,
                        dist0_sq: float) -> float:
    """Right-hand side of the rate bound for the identity-blended iteration.

    ``(dist0_sq + M3 * sum alpha_k^2 + sigma_sq * sum 1/b_k) / (2 * sum alpha_k)``
    with the sums of ``report`` (:func:`~stochfp.schedules.validate`), taken
    over the emitted schedule values below its horizon; the report needs a
    batch schedule.
    """
    return ((dist0_sq + constants.M3 * report.sum_alpha_sq
             + constants.sigma_sq * report.sum_inv_b)
            / (2.0 * report.sum_alpha))


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
    """Aggregate ``trials`` independent runs of one configuration.

    All trials advance together in one ``(trials, d)`` state.  Trial ``i``
    takes row ``i`` of each iteration's batch draw on master seed
    ``cfg.seed``, so its draws are identical for every ``trials > i`` (its
    trajectory to rounding), and trial 0 is :func:`run`.  A non-finite
    iterate aborts the ensemble with the master seed and the lowest-numbered
    trial that left the finite range, at the earliest such iteration.
    """
    if not (isinstance(trials, (int, np.integer)) and trials >= 2):
        raise ValueError(f"ensembles need an integer trials >= 2, got {trials!r}")

    trace = _run_trials(problem, cfg, trials)
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
    )


def fit_rate(stats: EnsembleStats, window: tuple[int, int]) -> float:
    """Log-log slope of the running-min absolute anchor-objective gap.

    Anchored runs start at the anchor itself, so the mean objective
    approaches its constrained optimum from below and the signed gap stays
    negative; the decay rate lives in the gap magnitude.  The fit takes the
    recorded points with ``k`` inside the window (``k >= 1``), applies a
    running minimum to ``|mean f0 - f0_star|``, and returns the least-squares
    slope of ``log(gap)`` against ``log(k)``.

    A window in which the signed mean gap takes both signs is refused: the
    running minimum of the magnitude collapses at the crossing and the slope
    would be an artifact of it.
    """
    k_lo, k_hi = window
    sel = (stats.ks >= max(k_lo, 1)) & (stats.ks <= k_hi)
    ks = stats.ks[sel]
    if ks.size < 5:
        raise ValueError("need at least 5 recorded points in the fit window")
    signed = stats.f0gap_mean[sel]
    both = np.logical_or.accumulate(signed > 0) & np.logical_or.accumulate(signed < 0)
    if both.any():
        raise ValueError(f"mean gap changes sign in the fit window at k={ks[both.argmax()]}")
    gaps = np.minimum.accumulate(np.abs(signed))
    if np.any(gaps <= 0.0):
        raise ValueError("gap below noise floor; shrink window")
    slope = np.polyfit(np.log(ks.astype(float)), np.log(gaps), 1)[0]
    return float(slope)


def predicted_rate_exponent(step: StepSchedule) -> tuple[float | None, str]:
    """Exponent ``e`` of the rate bound ``gap <= C * k^e`` for a step schedule.

    The exponent bounds the objective gap from above; it is not the expected
    fitted slope, which may be steeper.  For the polynomially decreasing
    kinds with exponent ``a``: ``-a`` below 1/2, ``-1/2`` at 1/2 (with an
    extra log factor), ``-(1-a)`` above 1/2, and no power law at ``a = 1``
    (a logarithmic bound only).
    """
    if not step.vanishes:
        return None, "no power-law bound for this step kind"
    a = step.a
    if a < 0.5:
        return -a, f"gap <= C*k^e, bound exponent -a = {-a:g}"
    if a == 0.5:
        return -0.5, "gap <= C*k^e, bound exponent -1/2 (up to a log factor)"
    if a < 1.0:
        return -(1.0 - a), f"gap <= C*k^e, bound exponent -(1-a) = {-(1.0 - a):g}"
    return None, "logarithmic bound only (a = 1)"
