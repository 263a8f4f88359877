"""Empirical decay exponents of the identity-blended anchored iteration.

Fits the log-log slope of the anchor-objective gap for two step exponents
and compares them with the exponents of the rate bound; a fitted slope
may be steeper than its bound.
"""

from stochfp import (BatchSchedule, SolverConfig, StepSchedule, ensemble,
                     fit_rate, predicted_rate_exponent,
                     random_quadratic_problem)

problem = random_quadratic_problem(20, 6, gen_seed=11)
batch = BatchSchedule.exponential(128, 1.05, cap=2**14)

for a in (0.25, 0.5):
    step = StepSchedule.lambda_poly(a, 0.6)
    cfg = SolverConfig(method="stoch_halpern_lambda", step=step, batch=batch,
                       iterations=4000, seed=7, record_every=1, lam=0.6)
    stats = ensemble(problem, cfg, trials=40)
    slope = fit_rate(stats, (50, 4000))
    predicted, text = predicted_rate_exponent(step)
    print(f"step exponent a={a}: fitted slope {slope:+.3f}   ({text})")
