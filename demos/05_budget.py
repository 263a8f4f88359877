"""Deterministic against mini-batch anchored iteration at equal evaluation budgets.

A deterministic step evaluates all ``n`` components, so ``K`` steps cost
``K * n`` component evaluations.  A mini-batch step evaluates only its
``b_k`` drawn components, so ``K`` steps cost ``sum_{k<K} b_k``.  On a
feasibility problem with ``n = 10^4`` random halfspaces, the mini-batch
iteration gets many more steps out of the same budget (the incremental
first-order oracle count of Agarwal & Bottou, ICML 2015).  The exact mean
on record rows is a diagnostic and is not counted.
"""

import numpy as np

from stochfp import (BatchSchedule, SolverConfig, StepSchedule, ensemble,
                     random_halfspace_problem, run)

problem = random_halfspace_problem(10**4, 20, 7)
n = problem.family.n
budgets = [n * m for m in (1, 3, 10, 30, 100)]
step = StepSchedule.poly(1.0)  # alpha_k = 1/(k+1) for both

det = run(problem, SolverConfig(method="halpern", step=step,
                                iterations=budgets[-1] // n, seed=0))
stoch_cfg = SolverConfig(method="stoch_halpern", step=step,
                         batch=BatchSchedule.exponential(8, 1.01, cap=1024),
                         iterations=1500, seed=11)
stoch = ensemble(problem, stoch_cfg, trials=4)
# evaluations spent before the iterate at row i: the batch sizes of the
# steps taken so far (record_every=1, so the rows are every k)
spent = np.concatenate([[0], np.cumsum(stoch.batch_sizes[:-1])])

print(f"halfspaces n = {n}, dim = {problem.family.dim}; mean squared distance "
      "to x* after a budget of component evaluations")
print(f"{'budget':>10} {'halpern k':>10} {'msq':>10} {'stoch k':>8} {'msq (4 trials)':>15}")
for budget in budgets:
    k_det = budget // n
    i = int(np.searchsorted(spent, budget, side="right")) - 1
    print(f"{budget:>10d} {k_det:>10d} {det.dist_sq[k_det]:>10.2e} "
          f"{stoch.ks[i]:>8d} {stoch.msq_dist_mean[i]:>15.2e}")
