"""Plain per-trial reference for the solver engine.

One trial, one point at a time: every component through ``eval_all``, the
exact mean as their average, the sampled mean from row ``trial`` of a fresh
``iteration_rng(seed, k)`` draw per iteration (``b`` indices for ``b < n``,
otherwise the multinomial counts), the schedules through ``.at(k)``, and the
public ``halpern_step`` / ``km_step`` updates.  It records the same fields
as :class:`stochfp.RunRecord`.
"""

import numpy as np

from stochfp import halpern_step, iteration_rng, km_step

ANCHORED = ("halpern", "stoch_halpern", "stoch_halpern_lambda")


def reference_run(problem, cfg, x_star=None, trial=0):
    """Recorded fields of trial ``trial`` on master seed ``cfg.seed``, as a dict of arrays."""
    family, x0 = problem.family, problem.x0
    n, iterations, stride = family.n, cfg.iterations, cfg.record_every
    pvals = np.full(n, 1.0 / n)
    out = {key: [] for key in ("residuals", "f0_values", "dist_sq",
                               "batch_dist_sq", "step_norms")}
    x = x0.copy()
    for k in range(iterations + 1):
        values = family.eval_all(x)
        t_exact = values.mean(axis=0)
        record = k % stride == 0 or k == iterations
        if record:
            out["residuals"].append(np.linalg.norm(x - t_exact))
            out["f0_values"].append(0.5 * np.sum((x - x0) ** 2))
            if x_star is not None:
                out["dist_sq"].append(np.sum((x - x_star) ** 2))
        if k == iterations:
            break
        if cfg.stochastic:
            b = cfg.batch.at(k)
            if b < n:
                idx = iteration_rng(cfg.seed, k).integers(0, n, (trial + 1, b))[trial]
                t_val = values[idx].mean(0)
            else:
                counts = iteration_rng(cfg.seed, k).multinomial(b, pvals, size=trial + 1)[trial]
                t_val = (counts / b) @ values
        else:
            t_val = t_exact
        if cfg.lam is not None:
            t_val = cfg.lam * x + (1.0 - cfg.lam) * t_val
        alpha = cfg.step.at(k)
        x_next = (halpern_step(x0, t_val, alpha) if cfg.method in ANCHORED
                  else km_step(x, t_val, alpha))
        if record:
            if x_star is not None:
                out["batch_dist_sq"].append(np.sum((t_val - x_star) ** 2))
            out["step_norms"].append(np.linalg.norm(x_next - x))
        x = x_next
    out["step_norms"].append(np.nan)
    if x_star is not None:
        out["batch_dist_sq"].append(np.nan)
    result = {key: np.array(v) for key, v in out.items() if v}
    result["final_point"] = x
    return result
