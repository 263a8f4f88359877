"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The heavy Monte-Carlo ensembles are session fixtures shared with
the module-level property tests (see conftest.py).
"""

import io
import math
import time
from pathlib import Path

import numpy as np
import pytest

from stochfp import (AveragedFamily, BatchSchedule, Halfspace, SolverConfig,
                     StepSchedule, apply_mini_batch, default_probes, ensemble,
                     estimate_sigma_sq, averaged_rate_bound, fit_rate,
                     ProjectionFamily, project_halfspace,
                     random_halfspace_problem, resolve_oracle, sample_batch,
                     theorem_constants, validate)
from stochfp import cli
from stochfp.schedules import (batch_inv_sqrt_sum_bound, batch_inv_sum_bound,
                               lambda_poly_sq_sum_bound,
                               poly_step_sum_lower_bound)

import conftest
from grid_oracle import grid_project

REPO = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO / "configs"


def _check(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}")
    assert ok, f"criterion {num}: {desc}"


# -------------------------------------------------------------------- 1

def test_criterion_01_operator_properties(twohalf_problem, quad_problem):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    families = {
        "two_halfspace": twohalf_problem.family,
        "ten_halfspace": random_halfspace_problem(10, 20, gen_seed=7).family,
        "quadratic": quad_problem.family,
        "averaged": AveragedFamily(twohalf_problem.family, 0.6),
    }
    nonexp_ok = True
    for fam in families.values():
        for _ in range(1000):
            x = rng.standard_normal(fam.dim) * 3
            y = rng.standard_normal(fam.dim) * 3
            vx, vy = fam.eval_all(x), fam.eval_all(y)
            gap = np.linalg.norm(x - y) + 1e-12
            if np.any(np.linalg.norm(vx - vy, axis=1) > gap):
                nonexp_ok = False
            if np.linalg.norm(vx.mean(0) - vy.mean(0)) > gap:
                nonexp_ok = False
    _check(1, "componentwise and mean nonexpansivity, 1000 pairs per family",
           nonexp_ok)

    proj_ok = True
    for _ in range(500):
        a = rng.standard_normal(3)
        h = Halfspace(normal=a, offset=float(rng.uniform(-1, 1)))
        x = rng.standard_normal(3) * 4
        y = rng.standard_normal(3) * 4
        px, py = project_halfspace(h, x), project_halfspace(h, y)
        if np.linalg.norm(project_halfspace(h, px) - px) > 1e-14:
            proj_ok = False
        if np.sum((px - py) ** 2) > float((px - py) @ (x - y)) + 1e-12:
            proj_ok = False
    _check(1, "projection idempotence (1e-14) and firm nonexpansivity (1e-12)",
           proj_ok)

    var_ok = True
    base = twohalf_problem.family
    for lam in (0.0, 0.3, 0.6, 1.0):
        avg = AveragedFamily(base, lam)
        for _ in range(100):
            x = rng.standard_normal(2) * 3
            vb = base.eval_all(x)
            va = avg.eval_all(x)
            v_base = float(np.sum((vb - vb.mean(0)) ** 2)) / base.n
            v_avg = float(np.sum((va - va.mean(0)) ** 2)) / base.n
            target = (1 - lam) ** 2 * v_base
            if abs(v_avg - target) > 1e-10 * max(target, 1e-30):
                var_ok = False
    _check(1, "averaged-family variance identity (rel tol 1e-10)", var_ok)

    elapsed = time.perf_counter() - t0
    _check(1, f"operator suite runtime {elapsed:.1f}s < 10s", elapsed < 10.0)


# -------------------------------------------------------------------- 2

def test_criterion_02_mini_batch_statistics(twohalf_problem):
    t0 = time.perf_counter()
    fam = twohalf_problem.family
    x = np.array([0.7, 0.4])
    y_star = np.zeros(2)
    n_comp, b, n_draws = fam.n, 8, 100_000
    t_exact = fam.mean(x)
    values = fam.eval_all(x)
    sigma_sq_exact = float(np.sum((values - t_exact) ** 2)) / n_comp

    samples = np.empty((n_draws, 2))
    for k in range(n_draws):
        draw = sample_batch(seed=424242, k=k, n=n_comp, b=b)
        samples[k] = apply_mini_batch(fam, draw, x)

    sigma_hat = samples.std(axis=0, ddof=1) * math.sqrt(b)
    band = 4.0 * sigma_hat / math.sqrt(b * n_draws) + 1e-15
    bias = np.abs(samples.mean(axis=0) - t_exact)
    _check(2, f"unbiasedness: |bias| {bias.round(7).tolist()} within 4-sigma band "
              f"{band.round(7).tolist()}", bool(np.all(bias <= band)))

    emp_var = float(np.mean(np.sum((samples - t_exact) ** 2, axis=1)))
    _check(2, f"variance {emp_var:.6f} <= sigma^2/b * 1.05 = "
              f"{sigma_sq_exact / b * 1.05:.6f}",
           emp_var <= sigma_sq_exact / b * 1.05)

    sq_dists = np.sum((samples - y_star) ** 2, axis=1)
    se = sq_dists.std(ddof=1) / math.sqrt(n_draws)
    lhs = float(sq_dists.mean())
    rhs = float(np.sum((x - y_star) ** 2)) + sigma_sq_exact / b + 3 * se
    _check(2, f"quasi-nonexpansivity in expectation: {lhs:.6f} <= {rhs:.6f}",
           lhs <= rhs)

    elapsed = time.perf_counter() - t0
    _check(2, f"mini-batch suite runtime {elapsed:.1f}s < 60s", elapsed < 60.0)


# -------------------------------------------------------------------- 3

def test_criterion_03_oracle_agreement(quad_problem):
    t0 = time.perf_counter()
    instances = [
        ([Halfspace(np.array([1.0, 0.0]), 0.0), Halfspace(np.array([0.0, 1.0]), 0.0)],
         [1.0, 1.0]),
        ([Halfspace(np.array([1.0, 1.0]), 0.0), Halfspace(np.array([1.0, -1.0]), 0.0)],
         [1.0, 0.0]),
        ([Halfspace(np.array([1.0, 0.0]), 0.0), Halfspace(np.array([1.0, 1.0]), 1.0)],
         [2.0, 3.0]),
    ]
    agree = True
    for halfspaces, x0 in instances:
        res = ProjectionFamily(halfspaces).nearest_fixed_point(x0)
        g = grid_project(halfspaces, x0)
        if np.linalg.norm(res.x_star - g) > 1e-3:
            agree = False
    _check(3, "active-set projection oracle agrees with brute-force grid to 1e-3 "
              "on 3 hand-built instances", agree)

    res = quad_problem.family.nearest_fixed_point(quad_problem.x0)
    _check(3, f"normal-equation relative residual {res.residual_at_star:.2e} <= 1e-10",
           res.residual_at_star <= 1e-10)

    elapsed = time.perf_counter() - t0
    _check(3, f"oracle suite runtime {elapsed:.1f}s < 30s", elapsed < 30.0)


# -------------------------------------------------------------------- 4

def test_criterion_04_mean_square_convergence(bench_exp_stats):
    stats = bench_exp_stats
    i100 = int(np.searchsorted(stats.ks, 100))
    iK = int(np.searchsorted(stats.ks, 10_000))
    msq_ratio = stats.msq_dist_mean[iK] / stats.msq_dist_mean[i100]
    res_ratio = stats.residual_mean[iK] / stats.residual_mean[i100]
    _check(4, f"mean |x_K - x*|^2 ratio K vs 100: {msq_ratio:.4f} <= 0.10",
           msq_ratio <= 0.10)
    _check(4, f"mean residual ratio K vs 100: {res_ratio:.4f} <= 0.2",
           res_ratio <= 0.2)
    _check(4, f"benchmark ensemble runtime {conftest.TIMINGS['bench_exp']:.0f}s < 300s",
           conftest.TIMINGS["bench_exp"] < 300.0)


# -------------------------------------------------------------------- 5

def test_criterion_05_increasing_vs_constant_batch(bench_exp_stats,
                                                   bench_const_stats):
    final_exp = bench_exp_stats.msq_dist_mean[-1]
    final_const = bench_const_stats.msq_dist_mean[-1]
    ratio = final_exp / final_const
    _check(5, f"final mean-square error: increasing {final_exp:.3e} <= "
              f"0.5 x constant {final_const:.3e} (ratio {ratio:.3f})",
           ratio <= 0.5)
    _check(5, f"constant-batch ensemble runtime "
              f"{conftest.TIMINGS['bench_const']:.0f}s < 300s",
           conftest.TIMINGS["bench_const"] < 300.0)


# -------------------------------------------------------------------- 6

def test_criterion_06_boundedness(bench_exp_stats, twohalf_problem):
    oracle = resolve_oracle(twohalf_problem)
    probes = default_probes(twohalf_problem, oracle, seed=1)
    sigma_sq = estimate_sigma_sq(twohalf_problem.family, probes)
    dist0 = float(np.sum((twohalf_problem.x0 - oracle.x_star) ** 2))
    bound = (dist0 + sigma_sq) * 1.10
    worst = float(bench_exp_stats.msq_dist_mean.max())
    _check(6, f"mean |x_k - x*|^2 max {worst:.4f} <= (|x0-x*|^2 + sigma^2)*1.10 "
              f"= {bound:.4f} at every recorded k", worst <= bound)


# -------------------------------------------------------------------- 7

def test_criterion_07_rate_bound(quad_lambda_stats, quad_problem):
    stats = quad_lambda_stats
    oracle = resolve_oracle(quad_problem)
    probes = default_probes(quad_problem, oracle, seed=1)
    sigma_sq = estimate_sigma_sq(quad_problem.family, probes)
    constants = theorem_constants(quad_problem, oracle, sigma_sq)
    step = StepSchedule.lambda_poly(0.5, 0.75)
    dist0 = float(np.sum((quad_problem.x0 - oracle.x_star) ** 2))
    ok = True
    for horizon in (100, 1000, 10_000):
        gaps = stats.f0gap_mean[:horizon]  # recorded every k: k in [0, horizon)
        i_min = int(np.argmin(gaps))
        lhs = float(gaps[i_min])
        rhs = averaged_rate_bound(constants, validate(step, conftest.QUAD_BATCH, horizon),
                                  dist0) + 3.0 * float(stats.f0gap_se[i_min])
        print(f"    K={horizon}: min_k mean f0 gap {lhs:.4f} <= bound {rhs:.4f}")
        if lhs > rhs:
            ok = False
    _check(7, "identity-blended rate bound holds at K in {100, 1000, 10000}", ok)
    _check(7, f"quadratic ensemble runtime {conftest.TIMINGS['quad_lambda']:.0f}s"
              " < 600s", conftest.TIMINGS["quad_lambda"] < 600.0)


# -------------------------------------------------------------------- 8

def test_criterion_08_rate_exponents(quad_rate_stats_a025, quad_rate_stats_a05,
                                     cli_runs):
    slope_a025 = fit_rate(quad_rate_stats_a025, (100, 10_000))
    _check(8, f"fitted slope a=0.25: {slope_a025:.3f} in [-0.40, -0.10]",
           -0.40 <= slope_a025 <= -0.10)
    slope_a05 = fit_rate(quad_rate_stats_a05, (100, 10_000))
    _check(8, f"fitted slope a=0.5: {slope_a05:.3f} in [-0.75, -0.30]",
           -0.75 <= slope_a05 <= -0.30)

    summary = cli_runs["twohalf_a05"]["summary"]
    slope_line = next(line for line in summary.splitlines()
                      if "fitted slope" in line)
    flagship_slope = float(slope_line.split(":")[1])
    _check(8, f"shipped a=0.5 benchmark summary slope {flagship_slope:.3f} "
              "in [-0.75, -0.30]", -0.75 <= flagship_slope <= -0.30)

    total = conftest.TIMINGS["quad_rate_a025"] + conftest.TIMINGS["quad_rate_a05"]
    _check(8, f"rate ensembles total runtime {total:.0f}s < 600s", total < 600.0)


# -------------------------------------------------------------------- 9

@pytest.fixture(scope="session")
def cli_runs(tmp_path_factory):
    """Run every shipped config twice; keep trace bytes and first summaries."""
    base = tmp_path_factory.mktemp("cli_runs")
    sink = io.StringIO()
    results = {}
    for cfg_path in sorted(CONFIG_DIR.glob("*.cfg")):
        name = cfg_path.stem
        p1 = base / f"{name}_r1"
        p2 = base / f"{name}_r2"
        code1 = cli.run_experiment(str(cfg_path), out_prefix=str(p1), stream=sink)
        code2 = cli.run_experiment(str(cfg_path), out_prefix=str(p2), stream=sink)
        assert code1 == 0 and code2 == 0, f"{name} failed to run"
        results[name] = {
            "trace1": (base / f"{name}_r1_trace.csv").read_bytes(),
            "trace2": (base / f"{name}_r2_trace.csv").read_bytes(),
            "summary": (base / f"{name}_r1_summary.txt").read_text(),
        }
    return results


def test_criterion_09_determinism(cli_runs):
    mismatched = [name for name, r in cli_runs.items()
                  if r["trace1"] != r["trace2"]]
    _check(9, f"byte-identical trace CSV across two runs of all "
              f"{len(cli_runs)} shipped configs", not mismatched)


# -------------------------------------------------------------------- 10

def test_criterion_10_schedule_certifications():
    ok_div = True
    for a in (0.25, 0.5, 1.0):
        for horizon in (10, 100, 1000):
            total = float(StepSchedule.poly(a).values(horizon).sum())
            if total < poly_step_sum_lower_bound(a, horizon) * (1 - 1e-12):
                ok_div = False
    _check(10, "step partial sums dominate the divergence closed form "
               "(1e-12 rel)", ok_div)

    ok_sq = True
    for a in (0.25, 0.5, 0.75):
        for horizon in (10, 100, 1000):
            sched = StepSchedule.lambda_poly(a, 0.75)
            total = float((sched.values(horizon) ** 2).sum())
            if total > lambda_poly_sq_sum_bound(a, 0.75, horizon) * (1 + 1e-12):
                ok_sq = False
    _check(10, "squared-step partial sums below the closed form in all three "
               "exponent regimes (1e-12 rel)", ok_sq)

    ok_batch = True
    exp = BatchSchedule.exponential(32, 2.0)
    poly3 = BatchSchedule.polynomial(1.0, 1.0, 3.0)
    for horizon in (10, 100, 1000):
        rep = validate(StepSchedule.poly(0.5), exp, horizon)
        r = 1.0 / math.sqrt(2.0)
        geo_sqrt = (1 - r**horizon) / (math.sqrt(32.0) * (1 - r))
        geo_inv = (1 - 0.5**horizon) / (32.0 * 0.5)
        if abs(rep.sum_inv_sqrt_b - geo_sqrt) > 1e-12 * geo_sqrt:
            ok_batch = False
        if abs(rep.sum_inv_b - geo_inv) > 1e-12 * geo_inv:
            ok_batch = False
        if not (rep.sum_inv_b <= batch_inv_sum_bound(exp) * (1 + 1e-12)):
            ok_batch = False
        if not (rep.sum_inv_sqrt_b <= batch_inv_sqrt_sum_bound(exp) * (1 + 1e-12)):
            ok_batch = False
        rep_p = validate(StepSchedule.poly(0.5), poly3, horizon)
        if not (rep_p.sum_inv_b <= batch_inv_sum_bound(poly3) * (1 + 1e-12)):
            ok_batch = False
        if not (rep_p.sum_inv_sqrt_b <= batch_inv_sqrt_sum_bound(poly3) * (1 + 1e-12)):
            ok_batch = False
    b_val = batch_inv_sum_bound(exp)
    _check(10, f"batch partial sums match geometric closed forms to 1e-12 rel; "
               f"B = {b_val} for the doubling schedule", ok_batch and b_val == 0.0625)


# -------------------------------------------------------------------- 11

def test_criterion_11_closest_fixed_point(twohalf_problem):
    # averaged iterates settle on some fixed point, anchored ones on the one
    # nearest x0.  The tolerances were fixed before the pinned seeds first
    # ran, which read (two_halfspace, ten_halfspace): KM residual 0 and
    # 9.0e-16, KM msq 5.14e-2 and 3.03e-2, Halpern msq 7.92e-6 and 4.92e-4
    problems = {"two_halfspace": twohalf_problem,
                "ten_halfspace": random_halfspace_problem(10, 20, gen_seed=7)}
    runs = (("stoch_km", StepSchedule.constant(0.5), conftest.SEED_CLOSEST_KM),
            ("stoch_halpern", StepSchedule.poly(0.75), conftest.SEED_CLOSEST_HALPERN))
    for label, problem in problems.items():
        km, halpern = (
            ensemble(problem, SolverConfig(method=method, step=step,
                                           batch=conftest.TWOHALF_BATCH,
                                           iterations=conftest.TWOHALF_K, seed=seed,
                                           record_every=100), trials=30)
            for method, step, seed in runs)
        km_res, km_msq = km.residual_mean[-1], km.msq_dist_mean[-1]
        h_msq = halpern.msq_dist_mean[-1]
        _check(11, f"{label}: KM mean residual at K {km_res:.1e} <= 1e-12",
               km_res <= 1e-12)
        _check(11, f"{label}: KM mean |x_K - x*|^2 {km_msq:.3e} >= 0.01",
               km_msq >= 0.01)
        _check(11, f"{label}: Halpern mean |x_K - x*|^2 {h_msq:.3e} <= 0.1 x KM's",
               h_msq <= 0.1 * km_msq)
