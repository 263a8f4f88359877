"""Anchored and averaged fixed-point iterations, deterministic and mini-batch.

Five update rules operate on a problem's mapping family:

* ``km``             - averaged iteration ``x <- (1-alpha)*x + alpha*T(x)``;
* ``halpern``        - anchored iteration ``x <- alpha*x0 + (1-alpha)*T(x)``;
* ``stoch_km``       - averaged iteration on a sampled mini-batch mean;
* ``stoch_halpern``  - anchored iteration on a sampled mini-batch mean;
* ``stoch_halpern_lambda`` - ``stoch_halpern`` on the identity-blended
  family ``AveragedFamily(family, lam)``, whose sampled mean is
  ``lam*x + (1-lam)*T_batch(x)``.

The anchored rules keep pulling toward the initial point ``x0`` with weight
``alpha_k``, which is what steers them to the *closest* fixed point rather
than an arbitrary one.  A run executes exactly ``K`` iterations (no stopping
rule) and traces residuals against the exact mean of the problem's own
family, also for the blended rule; sampled values never enter the recorded
metrics.  Runs are deterministic given the seed.

One engine runs every trial: ``T`` trials advance together in a ``(T, d)``
state and write ``(T, L)`` record arrays.  :func:`run` is its ``T = 1``
case and :func:`stochfp.diagnostics.ensemble` reduces its rows.  Iteration
``k`` of all trials is one draw on the master seed's counter-based stream
(:mod:`stochfp.sampling`); trial ``t`` takes row ``t``, so its draws do not
depend on the number of trials.
The schedules are precomputed arrays, the step-size ranges are checked once
before the loop, and the whole state is checked for non-finite values after
every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DivergenceError, Problem, RunRecord, as_point
from .mappings import AveragedFamily
from .sampling import BatchStream
from .schedules import BatchSchedule, StepSchedule, _lambda_step_cap

__all__ = ["METHODS", "STOCHASTIC_METHODS", "FieldError", "SolverConfig",
           "halpern_step", "km_step", "run"]

METHODS = ("km", "halpern", "stoch_km", "stoch_halpern", "stoch_halpern_lambda")
STOCHASTIC_METHODS = ("stoch_km", "stoch_halpern", "stoch_halpern_lambda")


class FieldError(ValueError):
    """A :class:`SolverConfig` field is out of range; ``field`` is its config-file key."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class SolverConfig:
    """Complete description of one solver run.

    ``batch`` is ignored by the deterministic methods.  For
    ``stoch_halpern_lambda`` the blend weight must lie in (1/2, 3/4], the
    range on which the step cap ``(2*lam-1)/(2*(1-lam))`` stays in (0, 1].
    ``seed`` must lie in ``[0, 2**128)``, the key range of the Philox stream.
    """

    method: str
    step: StepSchedule
    iterations: int
    seed: int
    batch: BatchSchedule | None = None
    record_every: int = 1
    lam: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise FieldError("method", f"unknown method {self.method!r}; choose from {METHODS}")
        if not 0 <= self.seed < 2**128:
            raise FieldError("seed", f"seed must lie in [0, 2**128), got {self.seed}")
        if self.iterations < 1:
            raise FieldError("iterations", "iterations must be >= 1")
        if self.record_every < 1:
            raise FieldError("record_every", "record_every must be >= 1")
        if self.method == "stoch_halpern_lambda":
            if self.lam is None or not 0.5 < self.lam <= 0.75:
                raise FieldError("lambda", "stoch_halpern_lambda requires lambda in (1/2, 3/4]")
        elif self.lam is not None:
            raise FieldError("lambda", "lambda is only meaningful for stoch_halpern_lambda")
        if self.method in STOCHASTIC_METHODS and self.batch is None:
            raise FieldError("batch", f"{self.method} requires a batch schedule")

    @property
    def stochastic(self) -> bool:
        return self.method in STOCHASTIC_METHODS


def halpern_step(anchor, t_val, alpha: float) -> np.ndarray:
    """Anchored update ``alpha*anchor + (1-alpha)*t_val`` with ``alpha in (0, 1]``."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"anchored step needs alpha in (0, 1], got {alpha}")
    a = np.asarray(anchor, dtype=float)
    t = np.asarray(t_val, dtype=float)
    if a.shape != t.shape:
        raise ValueError("anchor and mapped value must have the same shape")
    return alpha * a + (1.0 - alpha) * t


def km_step(x, t_val, alpha: float) -> np.ndarray:
    """Averaged update ``(1-alpha)*x + alpha*t_val`` with ``alpha in (0, 1)``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"averaged step needs alpha in (0, 1), got {alpha}")
    xa = np.asarray(x, dtype=float)
    t = np.asarray(t_val, dtype=float)
    if xa.shape != t.shape:
        raise ValueError("iterate and mapped value must have the same shape")
    return (1.0 - alpha) * xa + alpha * t


def _validate_run(problem: Problem, cfg: SolverConfig) -> None:
    """Range checks made once per run, so the engine's updates need none.

    Every step schedule emits ``alpha_k in (0, 1]``, the anchored range; the
    averaged rules also need ``alpha_k < 1``, and the blended rule the cap.
    """
    as_point(problem.x0, dim=problem.family.dim, name="x0")
    step_max = cfg.step.max_value
    if cfg.method in ("km", "stoch_km") and step_max >= 1.0:
        raise ValueError(
            "averaged methods need alpha_k in (0, 1); "
            f"this step schedule attains {step_max} (use constant(c<1) or a scaled kind)"
        )
    if cfg.method == "stoch_halpern_lambda":
        bound = _lambda_step_cap(cfg.lam)
        if step_max > bound + 1e-12:
            raise ValueError(
                f"step schedule attains {step_max:.6g}, above the blend cap "
                f"(2*lam-1)/(2*(1-lam)) = {bound:.6g}"
            )


@dataclass
class _Trace:
    """Record arrays of ``T`` trials run side by side: ``(T, L)`` per recorded field."""

    ks: np.ndarray
    alphas: np.ndarray
    batch_sizes: np.ndarray
    residuals: np.ndarray
    f0_values: np.ndarray
    dist_sq: np.ndarray | None
    batch_dist_sq: np.ndarray | None
    step_norms: np.ndarray
    final_points: np.ndarray


def run(problem: Problem, cfg: SolverConfig) -> RunRecord:
    """Execute ``cfg.iterations`` steps of the selected rule on ``problem``.

    The run is trial 0 of master seed ``cfg.seed``: the ``T = 1`` case of
    the engine behind :func:`stochfp.diagnostics.ensemble`.  Records,
    at stride ``cfg.record_every`` plus the final iterate: the residual
    ``||x_k - T(x_k)||`` against the exact family mean, the anchor objective
    ``(1/2)||x_k - x0||^2``, the squared distance to the oracle point (when
    the problem carries oracle data), the squared distance of the sampled
    image to the oracle point, and the step norm ``||x_{k+1} - x_k||``.
    Raises :class:`DivergenceError` with the master seed, trial 0 and the
    iteration if an iterate leaves the finite range.
    """
    trace = _run_trials(problem, cfg, 1)
    return RunRecord(
        ks=trace.ks,
        alphas=trace.alphas,
        batch_sizes=trace.batch_sizes,
        residuals=trace.residuals[0],
        f0_values=trace.f0_values[0],
        dist_sq=None if trace.dist_sq is None else trace.dist_sq[0],
        batch_dist_sq=None if trace.batch_dist_sq is None else trace.batch_dist_sq[0],
        step_norms=trace.step_norms[0],
        final_point=trace.final_points[0],
        seed=int(cfg.seed),
        method=cfg.method,
    )


def _run_trials(problem: Problem, cfg: SolverConfig, trials: int) -> _Trace:
    """Validate once, resolve the oracle point, and run trials ``0..trials-1``."""
    _validate_run(problem, cfg)
    x_star = None
    if problem.oracle_info is not None:
        from .diagnostics import resolve_oracle  # deferred: diagnostics imports solvers

        x_star = resolve_oracle(problem).x_star
    return _iterate(problem, cfg, trials, x_star=x_star)


def _iterate(problem: Problem, cfg: SolverConfig, trials: int,
             x_star: np.ndarray | None) -> _Trace:
    """The iteration engine: all trials in one ``(T, d)`` state, ``k = 0..K``.

    Trial ``t`` takes row ``t`` of each iteration's batch draw on the stream
    ``cfg.seed``.  For ``b_k >= n`` (and the deterministic methods) each
    iteration makes one :meth:`MappingFamily.weighted_mean` call whose weight
    rows are the uniform ``1/n`` (the exact mean, only on record rows of the
    stochastic methods) and ``counts / b_k`` (the sampled mean).  For
    ``b_k < n`` the draw is ``b_k`` indices per trial and the sampled mean
    is one :meth:`MappingFamily.sampled_mean` call, plus a
    ``weighted_mean`` call for the exact mean on record rows.
    ``stoch_halpern_lambda`` iterates on ``AveragedFamily(family, lam)``;
    since ``x - T^lam(x) = (1-lam)*(x - T(x))``, its residuals are divided
    once by ``1 - lam`` to stay measured against the problem's own mean
    ``T``.  Assumes validated inputs.
    """
    family = problem.family
    if cfg.lam is not None:
        family = AveragedFamily(family, cfg.lam)
    x0 = problem.x0
    n = family.n
    anchored = cfg.method in ("halpern", "stoch_halpern", "stoch_halpern_lambda")
    stochastic = cfg.stochastic
    iterations, stride = cfg.iterations, cfg.record_every

    # schedules once per run; the extra entry is the final row's value
    alphas = cfg.step.values(iterations + 1)
    batches = (cfg.batch.values(iterations + 1) if stochastic
               else np.full(iterations + 1, n, dtype=np.int64))
    alpha_list, batch_list = alphas.tolist(), batches.tolist()
    ks = np.append(np.arange(0, iterations, stride), iterations)
    # squared norms per record row: ||x_k - T(x_k)||, ||x_k - x0||, ||x_k - x*||,
    # ||t_k - x*|| for the sampled image t_k, ||x_{k+1} - x_k||; the last two
    # stay NaN on the final row, where no step is taken
    sq = np.full((5, trials, ks.size), np.nan)
    diffs = np.empty((5, trials, family.dim))
    # x0 stands in for a missing oracle point; those rows are dropped at the end
    refs = np.stack([x0, x0 if x_star is None else x_star])[:, None, :]

    weights = np.full((trials, 2, n), 1.0 / n)  # rows: exact mean, counts / b_k
    exact, sampled = weights[:, :1], weights[:, 1:]
    if stochastic:
        stream = BatchStream(cfg.seed, n)

    x = np.tile(x0, (trials, 1))
    row = 0
    for k in range(iterations + 1):
        rec = k % stride == 0 or k == iterations
        if k == iterations or not stochastic:
            means = family.weighted_mean(x, exact)
            t_val = means[:, -1]
        elif batch_list[k] < n:
            # b_k indices per trial: O(T * b_k), the exact mean on record rows only
            t_val = family.sampled_mean(x, stream.draw(k, batch_list[k], trials))
            means = family.weighted_mean(x, exact) if rec else None
        else:
            b = batch_list[k]
            np.divide(stream.draw(k, b, trials), b, out=sampled[:, 0])
            means = family.weighted_mean(x, weights if rec else sampled)
            t_val = means[:, -1]
        if rec:
            np.subtract(x, means[:, 0], out=diffs[0])
            np.subtract(x, refs, out=diffs[1:3])
        if k == iterations:
            sq[:3, :, row] = np.einsum("fti,fti->ft", diffs[:3], diffs[:3])
            break

        alpha = alpha_list[k]
        if anchored:
            x_next = alpha * x0 + (1.0 - alpha) * t_val
        else:
            x_next = (1.0 - alpha) * x + alpha * t_val
        if not np.isfinite(x_next).all():
            bad = int(np.argmin(np.isfinite(x_next).all(axis=1)))
            batch = f", b_k = {batch_list[k]}" if stochastic else ""
            raise DivergenceError(
                f"non-finite iterate at k={k + 1} in trial {bad} of master seed {cfg.seed} "
                f"(alpha_k = {alpha:.6g}{batch}, ||x_k|| = {math.hypot(*x[bad]):.6g} at k={k})",
                seed=cfg.seed, trial=bad, step=k + 1)
        if rec:
            np.subtract(t_val, refs[1], out=diffs[3])
            np.subtract(x_next, x, out=diffs[4])
            sq[:, :, row] = np.einsum("fti,fti->ft", diffs, diffs)
            row += 1
        x = x_next

    residuals, f0s, dists, batch_dists, step_norms = sq
    np.sqrt(residuals, out=residuals)
    if cfg.lam is not None:
        residuals /= 1.0 - cfg.lam
    f0s *= 0.5
    np.sqrt(step_norms, out=step_norms)
    if x_star is None:
        dists = batch_dists = None
    return _Trace(ks=ks, alphas=alphas[ks], batch_sizes=batches[ks],
                  residuals=residuals, f0_values=f0s, dist_sq=dists,
                  batch_dist_sq=batch_dists, step_norms=step_norms, final_points=x)
