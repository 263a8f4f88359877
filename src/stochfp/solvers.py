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
The schedules are precomputed arrays and the step-size ranges are checked
once before the loop.  The engine runs blocks of iterations in three phases:
it draws the block's batches and turns counts into weights, then steps each
iteration with one sampled-mean call and checks the whole state for
non-finite values, then records the block's rows with one exact-mean call.
The block length never changes the output.
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

#: most iterations in one block of the engine; longer blocks save no
#: measurable time
_BLOCK = 64
#: most array elements one block's buffers hold; also caps the block length
_BLOCK_ELEMENTS = 2**17

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
    ``cfg.seed``.  The iterations run in blocks of ``B``, each in three
    phases:

    1. *Draw.*  The block's ``B`` draws on the stream.  Count draws
       (``b_k >= n``) go into a ``(B, T, 1, n)`` weight buffer that one
       divide turns into ``counts / b_k`` and one sum into its row sums;
       index draws (``b_k < n``) are kept as they are.
    2. *Step.*  Per iteration one sampled-mean call: the private form of
       :meth:`MappingFamily.weighted_mean` on that iteration's weight row and
       its precomputed sum, or :meth:`MappingFamily.sampled_mean` on its
       indices, or the exact mean for the deterministic methods.  The update
       uses the block's precomputed ``alpha_k * x0`` and ``1 - alpha_k`` and
       is written into a ``(B + 1, T, d)`` iterate buffer, which is checked
       for non-finite values before any family sees it.
    3. *Record.*  One exact-mean call over the ``(r*T, d)`` points of the
       block's ``r`` record rows (the deterministic methods reuse their
       step's exact mean) and one ``einsum`` for their five squared norms.

    ``B`` is at most ``_BLOCK`` and keeps the block's buffers within about
    ``_BLOCK_ELEMENTS``.  Each value is computed by the same operations
    whatever ``B`` is, so the output does not depend on it; the stacked
    exact mean is never taken over a single point.
    ``stoch_halpern_lambda`` iterates on ``AveragedFamily(family, lam)``;
    since ``x - T^lam(x) = (1-lam)*(x - T(x))``, its residuals are divided
    once by ``1 - lam`` to stay measured against the problem's own mean
    ``T``.  Assumes validated inputs.
    """
    family = problem.family
    if cfg.lam is not None:
        family = AveragedFamily(family, cfg.lam)
    x0 = problem.x0
    n, dim = family.n, family.dim
    anchored = cfg.method in ("halpern", "stoch_halpern", "stoch_halpern_lambda")
    stochastic = cfg.stochastic
    iterations, stride = cfg.iterations, cfg.record_every

    # schedules once per run; the extra entry is the final row's value
    alphas = cfg.step.values(iterations + 1)
    batches = (cfg.batch.values(iterations + 1) if stochastic
               else np.full(iterations + 1, n, dtype=np.int64))
    ks = np.append(np.arange(0, iterations, stride), iterations)
    # squared norms per record row: ||x_k - T(x_k)||, ||x_k - x0||, ||x_k - x*||,
    # ||t_k - x*|| for the sampled image t_k, ||x_{k+1} - x_k||; the last two
    # stay NaN on the final row, where no step is taken
    sq = np.full((5, trials, ks.size), np.nan)
    # x0 stands in for a missing oracle point; those rows are dropped at the end
    refs = np.stack([x0, x0 if x_star is None else x_star])[:, None, None, :]

    # block buffers, sized by what a step fills: an iterate row, a weight row
    # (count draws) or an index row (index draws), and the record rows' share
    # of the stacked exact mean (n uniform weights per point)
    sizes = batches[:iterations]
    dense = stochastic and bool((sizes >= n).any())
    width = (n if dense else 0) + (int(sizes[sizes < n].max(initial=0)) if stochastic else 0)
    per_step = trials * (dim + width + -(-n // stride))
    block = max(1, min(_BLOCK, _BLOCK_ELEMENTS // per_step, iterations))
    X = np.empty((block + 1, trials, dim))
    X[0] = x0
    xs = list(X)  # row views, made once
    if dense:
        W = np.zeros((block, trials, 1, n))
        ws = list(W)
    if stochastic:
        stream = BatchStream(cfg.seed, n)

    row = 0
    for k0 in range(0, iterations, block):
        m = min(block, iterations - k0)
        final = k0 + m == iterations
        alpha_list = alphas[k0:k0 + m].tolist()
        size_list = sizes[k0:k0 + m].tolist()
        one_minus = (1.0 - alphas[k0:k0 + m]).tolist()
        if anchored:
            anchor_terms = list(alphas[k0:k0 + m, None] * x0)

        # draw
        if stochastic:
            draws = [None] * m
            for j, b in enumerate(size_list):
                if b < n:
                    draws[j] = stream.draw(k0 + j, b, trials)
                else:
                    W[j, :, 0] = stream.draw(k0 + j, b, trials)
            if dense:
                W[:m] /= sizes[k0:k0 + m, None, None, None]
                wsums = list(W[:m].sum(axis=-1))

        # step; t_k is kept on the record rows
        kept = []
        for j in range(m):
            x, x_next = xs[j], xs[j + 1]
            if not stochastic:
                t_val = family._exact_mean(x)
            elif size_list[j] < n:
                t_val = family.sampled_mean(x, draws[j])
            else:
                t_val = family._weighted_mean(x, ws[j], wsums[j])[:, 0]
            if anchored:
                np.multiply(t_val, one_minus[j], out=x_next)
                x_next += anchor_terms[j]
            else:
                np.multiply(x, one_minus[j], out=x_next)
                x_next += alpha_list[j] * t_val
            if not np.isfinite(x_next).all():
                k = k0 + j
                bad = int(np.argmin(np.isfinite(x_next).all(axis=1)))
                batch = f", b_k = {size_list[j]}" if stochastic else ""
                raise DivergenceError(
                    f"non-finite iterate at k={k + 1} in trial {bad} of master seed {cfg.seed} "
                    f"(alpha_k = {alpha_list[j]:.6g}{batch}, ||x_k|| = {math.hypot(*x[bad]):.6g} "
                    f"at k={k})",
                    seed=cfg.seed, trial=bad, step=k + 1)
            if (k0 + j) % stride == 0:
                kept.append(t_val)

        # record: the block's rows with k % stride == 0, then the final row
        # when the block ends the run
        steps = slice(-k0 % stride, m, stride)
        rows = list(range(m)[steps]) + ([m] if final else [])
        r, r_step = len(rows), len(kept)
        if r:
            points = X[rows]
            if stochastic:
                # BLAS takes a lone point (T = 1, one record row) through its
                # matrix-vector product, which may round differently from the
                # matrix product of a longer stack; two copies avoid it
                flat = points.reshape(-1, dim)
                if len(flat) == 1:
                    flat = np.repeat(flat, 2, axis=0)
                means = family._exact_mean(flat)[:r * trials].reshape(points.shape)
            else:  # t_k is T(x_k); the final row takes the step's call
                if final:
                    kept.append(family._exact_mean(xs[m]))
                means = np.stack(kept)
            diffs = np.empty((5, r, trials, dim))
            np.subtract(points, means, out=diffs[0])
            np.subtract(points, refs, out=diffs[1:3])
            if r_step:
                np.subtract(kept[:r_step], refs[1], out=diffs[3, :r_step])
                np.subtract(X[1:][steps], X[steps], out=diffs[4, :r_step])
            diffs[3:, r_step:] = np.nan
            sq[:, :, row:row + r] = np.einsum("frti,frti->frt", diffs, diffs).transpose(0, 2, 1)
            row += r
        X[0] = X[m]

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
                  batch_dist_sq=batch_dists, step_norms=step_norms,
                  final_points=X[0].copy())
