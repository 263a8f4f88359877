from dataclasses import replace

import numpy as np
import pytest

from stochfp import (BatchSchedule, EnsembleStats, Halfspace, OracleError,
                     Problem, QuadraticTerm, SolverConfig, StepSchedule,
                     ensemble, estimate_sigma_sq, fit_rate,
                     make_projection_family, oracle_feasibility,
                     oracle_quadratic, predicted_rate_exponent, resolve_oracle,
                     run, sample_ball, theorem_constants, two_halfspace_problem)
from stochfp import CallableFamily, random_quadratic_problem
from stochfp.sampling import TrialStreams
from stochfp.solvers import _run_trials
from grid_oracle import grid_project


def _hs(*rows):
    return [Halfspace(normal=np.array(r[:-1], dtype=float), offset=float(r[-1]))
            for r in rows]


def test_oracle_feasibility_componentwise_clamp():
    halfspaces = _hs((1, 0, 0), (0, 1, 0))
    res = oracle_feasibility(halfspaces, [1.0, 1.0])
    np.testing.assert_allclose(res.x_star, [0.0, 0.0], atol=1e-9)
    assert res.residual_at_star <= 1e-8


def test_oracle_feasibility_cone_instance():
    halfspaces = _hs((1, 1, 0), (1, -1, 0))
    res = oracle_feasibility(halfspaces, [1.0, 0.0])
    np.testing.assert_allclose(res.x_star, [0.0, 0.0], atol=1e-9)


def test_oracle_feasibility_identity_on_feasible_anchor():
    halfspaces = _hs((1, 0, 0), (0, 1, 0))
    res = oracle_feasibility(halfspaces, [-0.5, -2.0])
    np.testing.assert_allclose(res.x_star, [-0.5, -2.0], atol=1e-12)


def test_oracle_feasibility_empty_intersection():
    halfspaces = _hs((1, 0, -1), (-1, 0, -1))  # x1 <= -1 and x1 >= 1
    with pytest.raises(OracleError, match="empty"):
        oracle_feasibility(halfspaces, [0.0, 0.0], max_sweeps=2000)


def test_oracle_agrees_with_grid_on_slanted_instance():
    halfspaces = _hs((1, 0, 0), (1, 1, 1))
    res = oracle_feasibility(halfspaces, [2.0, 3.0])
    np.testing.assert_allclose(res.x_star, [0.0, 1.0], atol=1e-9)
    g = grid_project(halfspaces, [2.0, 3.0])
    assert np.linalg.norm(res.x_star - g) <= 1e-3


def test_oracle_cache_cannot_go_stale():
    problem = two_halfspace_problem()
    np.testing.assert_array_equal(resolve_oracle(problem).x_star, [0.0, 0.0])
    with pytest.raises(ValueError, match="read-only"):
        problem.x0[:] = [-1.0, -3.0]
    with pytest.raises(AttributeError):
        problem.x0 = np.array([-1.0, -3.0])
    np.testing.assert_array_equal(resolve_oracle(problem).x_star,
                                  resolve_oracle(problem, cache=False).x_star)
    # the caller's array is copied, and a replaced problem starts uncached
    anchor = np.array([1.0, 0.0])
    copy = Problem(family=problem.family, x0=anchor, oracle_info=problem.oracle_info)
    anchor[:] = [-1.0, -3.0]
    np.testing.assert_array_equal(resolve_oracle(copy).x_star, [0.0, 0.0])
    moved = replace(problem, x0=np.array([-1.0, -3.0]))
    np.testing.assert_array_equal(resolve_oracle(moved).x_star, [-1.0, -3.0])


def test_oracle_quadratic_exact_fit():
    terms = [QuadraticTerm(A=np.eye(2), b=np.array([3.0, 4.0]))]
    res = oracle_quadratic(terms, [0.0, 0.0])
    np.testing.assert_allclose(res.x_star, [3.0, 4.0], atol=1e-12)
    assert res.method == "normal_equations"


def test_oracle_quadratic_two_identity_terms():
    terms = [QuadraticTerm(A=np.eye(2), b=np.array([1.0, 0.0])),
             QuadraticTerm(A=np.eye(2), b=np.array([0.0, 1.0]))]
    res = oracle_quadratic(terms, [5.0, 5.0])
    np.testing.assert_allclose(res.x_star, [0.5, 0.5], atol=1e-14)


def test_oracle_quadratic_zero_targets():
    rng = np.random.default_rng(8)
    terms = [QuadraticTerm(A=rng.standard_normal((3, 3)), b=np.zeros(3))
             for _ in range(4)]
    res = oracle_quadratic(terms, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(res.x_star, np.zeros(3), atol=1e-12)


def test_oracle_quadratic_singular_system():
    t = QuadraticTerm(A=np.array([[1.0, 0.0], [2.0, 0.0]]), b=np.zeros(2),
                      check_rank=False)
    with pytest.raises(OracleError, match="feasibility family"):
        oracle_quadratic([t], [1.0, 1.0])


def test_deterministic_halpern_lands_near_oracle():
    problem = two_halfspace_problem()
    x_star = resolve_oracle(problem).x_star
    cfg = SolverConfig(method="halpern", step=StepSchedule.poly(1.0),
                       iterations=100_000, seed=0, record_every=100_000)
    rec = run(problem, cfg)
    assert np.linalg.norm(rec.final_point - x_star) <= 5e-2


def test_estimate_sigma_sq_examples():
    same = CallableFamily([lambda x: x * 0.5] * 3, dim=1)
    assert estimate_sigma_sq(same, [[1.0], [2.0]]) == 0.0
    two = CallableFamily([lambda x: np.zeros(1), lambda x: np.ones(1)], dim=1)
    assert estimate_sigma_sq(two, [[0.3]]) == pytest.approx(0.25)
    # projection family contributes nothing at common fixed points
    fam = make_projection_family(_hs((1, 0, 0), (0, 1, 0)))
    assert estimate_sigma_sq(fam, [[-1.0, -1.0], [-0.2, -3.0]]) == 0.0


def test_sample_ball_stays_inside():
    pts = sample_ball([1.0, -2.0, 0.0], 2.5, 500, seed=3)
    dists = np.linalg.norm(pts - np.array([1.0, -2.0, 0.0]), axis=1)
    assert np.all(dists <= 2.5 + 1e-12)


def test_theorem_constants_trivial_cases():
    problem = Problem(family=CallableFamily([lambda x: x], dim=2),
                      x0=np.zeros(2))
    from stochfp import OracleResult
    oracle = OracleResult(x_star=np.zeros(2), residual_at_star=0.0, method="dykstra")
    c = theorem_constants(problem, oracle, sigma_sq=0.0)
    assert c.M == 0.0 and c.M1 == 0.0 and c.M3 == 0.0

    problem2 = Problem(family=CallableFamily([lambda x: x], dim=2),
                       x0=np.array([1.0, 1.0]))
    c2 = theorem_constants(problem2, oracle, sigma_sq=0.5)
    assert c2.M == pytest.approx(2.5)
    assert c2.M2 == pytest.approx(2.5)
    assert c2.M1 == pytest.approx(np.sqrt(2.0) + np.sqrt(2 * (2.5 + 0.5)))
    assert c2.M3 == pytest.approx(4 * (2.5 + 0.5 + 2.0))


def test_theorem_constants_batch_bound():
    problem = Problem(family=CallableFamily([lambda x: x], dim=1),
                      x0=np.zeros(1))
    from stochfp import OracleResult
    oracle = OracleResult(x_star=np.zeros(1), residual_at_star=0.0, method="dykstra")
    c = theorem_constants(problem, oracle, 0.0,
                          batch=BatchSchedule.exponential(32, 2.0))
    assert c.B == pytest.approx(0.0625, abs=0.0)
    c2 = theorem_constants(problem, oracle, 0.0, batch=BatchSchedule.constant(4))
    assert c2.B is None


def _synthetic_stats(gaps, ks):
    ks = np.asarray(ks)
    z = np.zeros(ks.size)
    return EnsembleStats(
        ks=ks, alphas=z, batch_sizes=np.ones(ks.size, dtype=np.int64),
        residual_mean=z, residual_se=z,
        f0gap_mean=np.asarray(gaps), f0gap_se=z,
        msq_dist_mean=None, msq_dist_se=None,
        batch_msq_mean=None, batch_msq_se=None,
        step_norm_mean=z, trial_count=2, f0_star=0.0, x_star=None,
        trial_seeds=np.zeros(2, dtype=np.uint64),
    )


def test_fit_rate_exact_power_law():
    ks = np.arange(1, 2001)
    stats = _synthetic_stats(ks**-0.5, ks)
    assert fit_rate(stats, (10, 2000)) == pytest.approx(-0.5, abs=1e-12)


def test_fit_rate_flat_series():
    ks = np.arange(1, 101)
    stats = _synthetic_stats(np.full(100, 0.37), ks)
    assert fit_rate(stats, (1, 100)) == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_uses_absolute_gap():
    ks = np.arange(1, 1001)
    stats = _synthetic_stats(-(ks**-0.25), ks)
    assert fit_rate(stats, (10, 1000)) == pytest.approx(-0.25, abs=1e-12)


def test_fit_rate_errors():
    ks = np.arange(1, 101)
    stats = _synthetic_stats(np.zeros(100), ks)
    with pytest.raises(ValueError, match="noise floor"):
        fit_rate(stats, (1, 100))
    small = _synthetic_stats((ks**-0.5), ks)
    with pytest.raises(ValueError, match="at least 5"):
        fit_rate(small, (1, 4))


def test_predicted_rate_exponent_cases():
    assert predicted_rate_exponent(StepSchedule.poly(0.25))[0] == pytest.approx(-0.25)
    assert predicted_rate_exponent(StepSchedule.poly(0.5))[0] == pytest.approx(-0.5)
    assert predicted_rate_exponent(StepSchedule.poly(0.75))[0] == pytest.approx(-0.25)
    assert predicted_rate_exponent(StepSchedule.poly(1.0))[0] is None
    assert predicted_rate_exponent(StepSchedule.constant(0.5))[0] is None


def test_ensemble_deterministic_has_zero_se():
    problem = two_halfspace_problem()
    cfg = SolverConfig(method="halpern", step=StepSchedule.poly(0.5),
                       iterations=50, seed=3, record_every=5)
    stats = ensemble(problem, cfg, trials=4)
    assert np.all(stats.residual_se == 0.0)
    assert np.all(stats.f0gap_se == 0.0)
    assert np.all(stats.msq_dist_se == 0.0)


def test_ensemble_single_component_stochastic_zero_se():
    fam = CallableFamily([lambda x: 0.5 * x], dim=1)
    problem = Problem(family=fam, x0=np.array([1.0]))
    cfg = SolverConfig(method="stoch_halpern", step=StepSchedule.poly(0.5),
                       batch=BatchSchedule.constant(3), iterations=40, seed=3,
                       record_every=4)
    stats = ensemble(problem, cfg, trials=5)
    assert np.all(stats.residual_se == 0.0)
    assert np.all(stats.f0gap_se == 0.0)


def test_ensemble_trials_depend_only_on_their_seed(twohalf_problem):
    cfg = SolverConfig(method="stoch_halpern", step=StepSchedule.poly(0.5),
                       batch=BatchSchedule.exponential(4, 1.05, cap=512),
                       iterations=200, seed=77, record_every=20)
    a = ensemble(twohalf_problem, cfg, trials=5)
    b = ensemble(twohalf_problem, cfg, trials=8)
    np.testing.assert_array_equal(a.trial_seeds, b.trial_seeds[:5])
    for stats in (a, b):
        runs = [run(twohalf_problem, replace(cfg, seed=int(s)))
                for s in stats.trial_seeds]
        for field, mean in (("residuals", stats.residual_mean),
                            ("dist_sq", stats.msq_dist_mean)):
            expect = np.mean([getattr(r, field) for r in runs], axis=0)
            np.testing.assert_allclose(mean, expect, rtol=1e-13, atol=0.0)


def test_trial_draws_and_rows_do_not_depend_on_trial_count():
    # trial i's counts are bitwise the same for T=3 and T=6; its recorded
    # rows agree to rounding (the (T, d) products may round differently)
    problem = random_quadratic_problem(12, 4, gen_seed=5)
    cfg = SolverConfig(method="stoch_halpern", step=StepSchedule.poly(0.5),
                       batch=BatchSchedule.exponential(4, 1.05, cap=512),
                       iterations=150, seed=31, record_every=7)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(6, np.uint64)
    few, many = TrialStreams(seeds[:3], 12), TrialStreams(seeds, 12)
    out3 = np.empty((3, 12), dtype=np.int64)
    out6 = np.empty((6, 12), dtype=np.int64)
    for k in (0, 1, 77, 149):
        b = cfg.batch.at(k)
        few.draw(k, b, out3)
        many.draw(k, b, out6)
        np.testing.assert_array_equal(out3, out6[:3])
    a = _run_trials(problem, cfg, seeds[:3])
    b = _run_trials(problem, cfg, seeds)
    for field in ("residuals", "f0_values", "dist_sq", "batch_dist_sq", "step_norms"):
        np.testing.assert_allclose(getattr(a, field), getattr(b, field)[:3],
                                   rtol=1e-13, atol=0.0, err_msg=field)
    np.testing.assert_allclose(a.final_points, b.final_points[:3], rtol=1e-13, atol=0.0)


def test_ensemble_requires_two_trials(twohalf_problem):
    cfg = SolverConfig(method="halpern", step=StepSchedule.poly(0.5),
                       iterations=10, seed=0)
    with pytest.raises(ValueError):
        ensemble(twohalf_problem, cfg, trials=1)


def test_batch_image_dist_bounded(bench_exp_stats, twohalf_problem):
    # expected squared distance of the sampled image to the limit point stays
    # below M + sigma_sq + 3 SE at every recorded k (final row is NaN)
    from stochfp import default_probes
    oracle = resolve_oracle(twohalf_problem)
    probes = default_probes(twohalf_problem, oracle, seed=1)
    sigma_sq = estimate_sigma_sq(twohalf_problem.family, probes)
    c = theorem_constants(twohalf_problem, oracle, sigma_sq)
    bound = c.M + sigma_sq + 3.0 * np.nan_to_num(bench_exp_stats.batch_msq_se[:-1])
    vals = bench_exp_stats.batch_msq_mean[:-1]
    assert np.all(vals <= bound + 1e-12)
