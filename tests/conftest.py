"""Shared fixtures: the benchmark ensembles reused across test modules.

The heavy Monte-Carlo ensembles are session-scoped so the acceptance
criteria and the per-module property tests share one computation each.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from stochfp import (BatchSchedule, SolverConfig, StepSchedule, ensemble,
                     random_quadratic_problem, two_halfspace_problem)

#: wall-clock seconds spent building each session ensemble, keyed by name;
#: the acceptance suite checks these against the per-criterion budgets
TIMINGS: dict[str, float] = {}


def _timed(name, fn):
    t0 = time.perf_counter()
    out = fn()
    TIMINGS[name] = time.perf_counter() - t0
    return out

# benchmark definitions pinned by the acceptance suite
TWOHALF_STEP = StepSchedule.poly(0.5)
TWOHALF_BATCH = BatchSchedule.exponential(4, 1.01, cap=2**16)
TWOHALF_K = 10_000
TWOHALF_TRIALS = 100
SEED_EXP = 20_240_601
SEED_CONST = 20_240_602
SEED_LEMMA = 20_240_603
SEED_QUAD = 20_240_604
SEED_CLOSEST_KM = 20_240_605
SEED_CLOSEST_HALPERN = 20_240_606

QUAD_N, QUAD_D, QUAD_GEN_SEED = 50, 10, 3
QUAD_BATCH = BatchSchedule.exponential(256, 1.05, cap=2**16)


@pytest.fixture(scope="session")
def twohalf_problem():
    return two_halfspace_problem()


@pytest.fixture(scope="session")
def quad_problem():
    return random_quadratic_problem(QUAD_N, QUAD_D, QUAD_GEN_SEED)


@pytest.fixture(scope="session")
def bench_exp_stats(twohalf_problem):
    """Two-halfspace benchmark, anchored stochastic run, growing batches."""
    cfg = SolverConfig(method="stoch_halpern", step=TWOHALF_STEP,
                       batch=TWOHALF_BATCH, iterations=TWOHALF_K,
                       seed=SEED_EXP, record_every=1)
    return _timed("bench_exp",
                  lambda: ensemble(twohalf_problem, cfg, trials=TWOHALF_TRIALS))


@pytest.fixture(scope="session")
def bench_const_stats(twohalf_problem):
    """Same benchmark with a single-sample batch at every iteration."""
    cfg = SolverConfig(method="stoch_halpern", step=TWOHALF_STEP,
                       batch=BatchSchedule.constant(1), iterations=TWOHALF_K,
                       seed=SEED_CONST, record_every=1)
    return _timed("bench_const",
                  lambda: ensemble(twohalf_problem, cfg, trials=TWOHALF_TRIALS))


@pytest.fixture(scope="session")
def lemma_stats(twohalf_problem):
    """Benchmark run with an uncapped-in-window batch growth for the
    successive-difference and residual decay checks."""
    cfg = SolverConfig(method="stoch_halpern", step=TWOHALF_STEP,
                       batch=BatchSchedule.exponential(4, 1.02, cap=2**31),
                       iterations=TWOHALF_K, seed=SEED_LEMMA, record_every=1)
    return _timed("lemma", lambda: ensemble(twohalf_problem, cfg, trials=50))


@pytest.fixture(scope="session")
def quad_lambda_stats(quad_problem):
    """Quadratic benchmark, identity-blended anchored run (lam=0.75, a=0.5)."""
    cfg = SolverConfig(method="stoch_halpern_lambda",
                       step=StepSchedule.lambda_poly(0.5, 0.75),
                       batch=QUAD_BATCH, iterations=10_000,
                       seed=SEED_QUAD, record_every=1, lam=0.75)
    return _timed("quad_lambda", lambda: ensemble(quad_problem, cfg, trials=100))


@pytest.fixture(scope="session")
def quad_rate_stats_a025(quad_problem):
    cfg = SolverConfig(method="stoch_halpern_lambda",
                       step=StepSchedule.lambda_poly(0.25, 0.6),
                       batch=QUAD_BATCH, iterations=10_000,
                       seed=SEED_QUAD, record_every=1, lam=0.6)
    return _timed("quad_rate_a025", lambda: ensemble(quad_problem, cfg, trials=100))


@pytest.fixture(scope="session")
def quad_rate_stats_a05(quad_problem):
    cfg = SolverConfig(method="stoch_halpern_lambda",
                       step=StepSchedule.lambda_poly(0.5, 0.6),
                       batch=QUAD_BATCH, iterations=10_000,
                       seed=SEED_QUAD, record_every=1, lam=0.6)
    return _timed("quad_rate_a05", lambda: ensemble(quad_problem, cfg, trials=100))
