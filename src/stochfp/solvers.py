"""Anchored and averaged fixed-point iterations, deterministic and mini-batch.

Five update rules operate on a problem's mapping family:

* ``km``             - averaged iteration ``x <- (1-alpha)*x + alpha*T(x)``;
* ``halpern``        - anchored iteration ``x <- alpha*x0 + (1-alpha)*T(x)``;
* ``stoch_km``       - averaged iteration on a sampled mini-batch mean;
* ``stoch_halpern``  - anchored iteration on a sampled mini-batch mean;
* ``stoch_halpern_lambda`` - anchored iteration on the identity-blended
  mini-batch mean ``lam*x + (1-lam)*T_batch(x)``.

The anchored rules keep pulling toward the initial point ``x0`` with weight
``alpha_k``, which is what steers them to the *closest* fixed point rather
than an arbitrary one.  A run executes exactly ``K`` iterations (no stopping
rule) and traces residuals against the exact family mean; sampled values
never enter the recorded metrics.  Runs are deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DivergenceError, Problem, RunRecord, as_point
from .sampling import iteration_rng
from .schedules import BatchSchedule, StepSchedule

__all__ = ["METHODS", "STOCHASTIC_METHODS", "SolverConfig",
           "halpern_step", "km_step", "run"]

METHODS = ("km", "halpern", "stoch_km", "stoch_halpern", "stoch_halpern_lambda")
STOCHASTIC_METHODS = ("stoch_km", "stoch_halpern", "stoch_halpern_lambda")


@dataclass(frozen=True)
class SolverConfig:
    """Complete description of one solver run.

    ``batch`` is ignored by the deterministic methods.  For
    ``stoch_halpern_lambda`` the blend weight must lie in (1/2, 3/4], the
    range on which the step cap ``(2*lam-1)/(2*(1-lam))`` stays in (0, 1].
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
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.method == "stoch_halpern_lambda":
            if self.lam is None or not 0.5 < self.lam <= 0.75:
                raise ValueError("stoch_halpern_lambda requires lambda in (1/2, 3/4]")
        elif self.lam is not None:
            raise ValueError("lambda is only meaningful for stoch_halpern_lambda")
        if self.method in STOCHASTIC_METHODS and self.batch is None:
            raise ValueError(f"{self.method} requires a batch schedule")

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
    as_point(problem.x0, dim=problem.family.dim, name="x0")
    step_max = cfg.step.max_value
    if cfg.method in ("km", "stoch_km") and step_max >= 1.0:
        raise ValueError(
            "averaged methods need alpha_k in (0, 1); "
            f"this step schedule attains {step_max} (use constant(c<1) or a scaled kind)"
        )
    if cfg.method == "stoch_halpern_lambda":
        bound = (2.0 * cfg.lam - 1.0) / (2.0 * (1.0 - cfg.lam))
        if step_max > bound + 1e-12:
            raise ValueError(
                f"step schedule attains {step_max:.6g}, above the blend cap "
                f"(2*lam-1)/(2*(1-lam)) = {bound:.6g}"
            )


def run(problem: Problem, cfg: SolverConfig) -> RunRecord:
    """Execute ``cfg.iterations`` steps of the selected rule on ``problem``.

    Records, at stride ``cfg.record_every`` plus the final iterate: the
    residual ``||x_k - T(x_k)||`` against the exact family mean, the anchor
    objective ``(1/2)||x_k - x0||^2``, the squared distance to the oracle
    point (when the problem carries oracle data), the squared distance of
    the sampled image to the oracle point, and the step norm
    ``||x_{k+1} - x_k||``.  Raises :class:`DivergenceError` with the
    offending seed if an iterate leaves the finite range.
    """
    _validate_run(problem, cfg)
    x_star = None
    if problem.oracle_info is not None:
        from .diagnostics import resolve_oracle  # deferred: diagnostics imports solvers

        x_star = resolve_oracle(problem).x_star
    return _iterate(problem, cfg, x_star=x_star, lam=cfg.lam)


def _iterate(problem: Problem, cfg: SolverConfig, x_star: np.ndarray | None,
             lam: float | None) -> RunRecord:
    """Inner loop; assumes validated inputs (tests may call with out-of-range lam)."""
    family = problem.family
    x0 = problem.x0
    n = family.n
    anchored = cfg.method in ("halpern", "stoch_halpern", "stoch_halpern_lambda")
    stochastic = cfg.stochastic
    pvals = np.full(n, 1.0 / n)
    seed = int(cfg.seed)
    iterations, stride = cfg.iterations, cfg.record_every

    # schedules once per run; the extra entry is the final row's value
    alphas = cfg.step.values(iterations + 1)
    batches = (cfg.batch.values(iterations + 1) if stochastic
               else np.full(iterations + 1, n, dtype=np.int64))
    alpha_list, batch_list = alphas.tolist(), batches.tolist()
    ks = np.append(np.arange(0, iterations, stride), iterations)
    rows = ks.size
    residuals = np.empty(rows)
    f0s = np.empty(rows)
    dists = np.empty(rows) if x_star is not None else None
    batch_dists = np.full(rows, np.nan) if x_star is not None else None
    step_norms = np.full(rows, np.nan)  # NaN stays on the final row: no step taken

    x = x0.copy()
    row = 0
    for k in range(iterations + 1):
        values = family.eval_all(x)
        t_exact = values.sum(axis=0) / n
        rec = k % stride == 0 or k == iterations
        if rec:
            d = x - t_exact
            residuals[row] = np.sqrt(d @ d)
            e = x - x0
            f0s[row] = 0.5 * (e @ e)
            if x_star is not None:
                g = x - x_star
                dists[row] = g @ g
        if k == iterations:
            break

        if stochastic:
            b = batch_list[k]
            counts = iteration_rng(seed, k).multinomial(b, pvals)
            t_val = (counts / b) @ values
        else:
            t_val = t_exact
        if lam is not None:
            t_val = lam * x + (1.0 - lam) * t_val

        if anchored:
            x_next = halpern_step(x0, t_val, alpha_list[k])
        else:
            x_next = km_step(x, t_val, alpha_list[k])
        if not np.all(np.isfinite(x_next)):
            raise DivergenceError(
                f"non-finite iterate at k={k + 1} (seed {seed})", seed=seed, step=k + 1
            )
        if rec:
            if x_star is not None:
                g = t_val - x_star
                batch_dists[row] = g @ g
            d = x_next - x
            step_norms[row] = np.sqrt(d @ d)
            row += 1
        x = x_next

    return RunRecord(
        ks=ks,
        alphas=alphas[ks],
        batch_sizes=batches[ks],
        residuals=residuals,
        f0_values=f0s,
        dist_sq=dists,
        batch_dist_sq=batch_dists,
        step_norms=step_norms,
        final_point=x,
        seed=seed,
        method=cfg.method,
    )
