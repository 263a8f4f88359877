from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from stochfp import (AveragedFamily, BatchSchedule, EnsembleStats,
                     GradientFamily, Halfspace, OracleError, OracleInfo,
                     Problem, QuadraticTerm, SolverConfig, StepSchedule,
                     ProjectionFamily, ensemble, estimate_sigma_sq, fit_rate,
                     predicted_rate_exponent, resolve_oracle,
                     run, sample_ball, theorem_constants, two_halfspace_problem)
from stochfp import averaged_rate_bound, default_probes, validate
from stochfp import (CallableFamily, random_halfspace_problem,
                     random_quadratic_problem)
from stochfp.sampling import BatchStream
from stochfp.solvers import _run_trials
from grid_oracle import grid_project
import conftest


def _hs(*rows):
    return [Halfspace(normal=np.array(r[:-1], dtype=float), offset=float(r[-1]))
            for r in rows]


def test_oracle_feasibility_componentwise_clamp():
    halfspaces = _hs((1, 0, 0), (0, 1, 0))
    res = ProjectionFamily(halfspaces).nearest_fixed_point([1.0, 1.0])
    np.testing.assert_allclose(res.x_star, [0.0, 0.0], atol=1e-9)
    assert res.residual_at_star <= 1e-8


def test_oracle_feasibility_cone_instance():
    halfspaces = _hs((1, 1, 0), (1, -1, 0))
    res = ProjectionFamily(halfspaces).nearest_fixed_point([1.0, 0.0])
    np.testing.assert_allclose(res.x_star, [0.0, 0.0], atol=1e-9)


def test_oracle_feasibility_identity_on_feasible_anchor():
    halfspaces = _hs((1, 0, 0), (0, 1, 0))
    res = ProjectionFamily(halfspaces).nearest_fixed_point([-0.5, -2.0])
    np.testing.assert_allclose(res.x_star, [-0.5, -2.0], atol=1e-12)


def test_oracle_feasibility_empty_intersection():
    halfspaces = _hs((1, 0, -1), (-1, 0, -1))  # x1 <= -1 and x1 >= 1
    with pytest.raises(OracleError, match="empty"):
        ProjectionFamily(halfspaces).nearest_fixed_point([0.0, 0.0])


# (500, 50, 3) ends with 43 active halfspaces, the largest active set the suite factors
@pytest.mark.parametrize("n, dim, gen_seed", [(10, 20, 7), (1000, 20, 7), (2000, 20, 7),
                                              (500, 50, 3)],
                         ids=["10", "1000", "2000", "500-50-3"])
def test_oracle_feasibility_satisfies_kkt(n, dim, gen_seed):
    problem = random_halfspace_problem(n, dim, gen_seed)
    res = problem.family.nearest_fixed_point(problem.x0)
    A = np.stack([h.normal for h in problem.oracle_info.data])
    beta = np.array([h.offset for h in problem.oracle_info.data])
    slack = A @ res.x_star - beta
    assert slack.max() <= 1e-10
    active = np.abs(slack) <= 1e-9
    assert active.any()
    # x0 - x* is a nonnegative combination of the active normals
    u = np.linalg.lstsq(A[active].T, problem.x0 - res.x_star, rcond=None)[0]
    assert u.min() >= -1e-10
    assert np.linalg.norm(A[active].T @ u - (problem.x0 - res.x_star)) <= 1e-9
    assert res.method == "active_set" and res.iterations >= active.sum()


def test_oracle_feasibility_reports_empty_intersection_at_scale():
    problem = random_halfspace_problem(2000, 20, 7)
    e1 = np.eye(20)[0]
    halfspaces = list(problem.oracle_info.data) + [Halfspace(e1, -1.0),
                                                    Halfspace(-e1, -1.0)]
    # the Farkas certificate, not the residual check that follows the steps
    with pytest.raises(OracleError, match="the intersection is empty"):
        ProjectionFamily(halfspaces).nearest_fixed_point(problem.x0)


def test_oracle_agrees_with_grid_on_slanted_instance():
    halfspaces = _hs((1, 0, 0), (1, 1, 1))
    res = ProjectionFamily(halfspaces).nearest_fixed_point([2.0, 3.0])
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
    np.testing.assert_array_equal(
        resolve_oracle(problem).x_star,
        problem.family.nearest_fixed_point(problem.x0).x_star)
    # the caller's array is copied, and a replaced problem starts uncached
    anchor = np.array([1.0, 0.0])
    copy = Problem(family=problem.family, x0=anchor, oracle_info=problem.oracle_info)
    anchor[:] = [-1.0, -3.0]
    np.testing.assert_array_equal(resolve_oracle(copy).x_star, [0.0, 0.0])
    moved = replace(problem, x0=np.array([-1.0, -3.0]))
    np.testing.assert_array_equal(resolve_oracle(moved).x_star, [-1.0, -3.0])


def test_oracle_quadratic_exact_fit():
    terms = [QuadraticTerm(A=np.eye(2), b=np.array([3.0, 4.0]))]
    res = GradientFamily(terms).nearest_fixed_point([0.0, 0.0])
    np.testing.assert_allclose(res.x_star, [3.0, 4.0], atol=1e-12)
    assert res.method == "normal_equations"


def test_oracle_quadratic_two_identity_terms():
    terms = [QuadraticTerm(A=np.eye(2), b=np.array([1.0, 0.0])),
             QuadraticTerm(A=np.eye(2), b=np.array([0.0, 1.0]))]
    res = GradientFamily(terms).nearest_fixed_point([5.0, 5.0])
    np.testing.assert_allclose(res.x_star, [0.5, 0.5], atol=1e-14)


def test_oracle_quadratic_zero_targets():
    rng = np.random.default_rng(8)
    terms = [QuadraticTerm(A=rng.standard_normal((3, 3)), b=np.zeros(3))
             for _ in range(4)]
    res = GradientFamily(terms).nearest_fixed_point([1.0, 1.0, 1.0])
    np.testing.assert_allclose(res.x_star, np.zeros(3), atol=1e-12)


def test_oracle_quadratic_singular_system():
    # QuadraticTerm rejects a rank-deficient A, so the family gets a stand-in
    t = SimpleNamespace(A=np.array([[1.0, 0.0], [2.0, 0.0]]), b=np.zeros(2), dim=2)
    with pytest.raises(OracleError, match="feasibility family"):
        GradientFamily([t]).nearest_fixed_point([1.0, 1.0])


def test_oracle_quadratic_refuses_a_zero_step():
    # at eta = 0 every component is the identity, so the fixed point nearest
    # x0 = 0 is x0 itself, not the normal-equation minimizer
    problem = random_quadratic_problem(5, 3, 1, eta=0.0)
    with pytest.raises(OracleError, match="eta = 0"):
        resolve_oracle(problem)


@pytest.mark.parametrize("base", [two_halfspace_problem().family,
                                  random_quadratic_problem(50, 10, 3).family],
                         ids=["projection", "gradient"])
def test_blend_answers_with_its_base_oracle(base):
    x0 = np.ones(base.dim)
    blended = AveragedFamily(base, 0.6).nearest_fixed_point(x0)
    own = base.nearest_fixed_point(x0)
    np.testing.assert_array_equal(blended.x_star, own.x_star)
    assert replace(blended, x_star=None) == replace(own, x_star=None)


def test_family_without_oracle_refuses_the_query():
    family = CallableFamily([lambda x: 0.5 * x], dim=2)
    problem = Problem(family=family, x0=np.ones(2), oracle_info=OracleInfo(()))
    with pytest.raises(OracleError, match="CallableFamily has no oracle"):
        resolve_oracle(problem)


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
    fam = ProjectionFamily(_hs((1, 0, 0), (0, 1, 0)))
    assert estimate_sigma_sq(fam, [[-1.0, -1.0], [-0.2, -3.0]]) == 0.0


def test_sample_ball_stays_inside():
    pts = sample_ball([1.0, -2.0, 0.0], 2.5, 500, seed=3)
    dists = np.linalg.norm(pts - np.array([1.0, -2.0, 0.0]), axis=1)
    assert np.all(dists <= 2.5 + 1e-12)


def test_theorem_constants_trivial_cases():
    problem = Problem(family=CallableFamily([lambda x: x], dim=2),
                      x0=np.zeros(2))
    from stochfp import OracleResult
    oracle = OracleResult(x_star=np.zeros(2), residual_at_star=0.0, method="active_set")
    c = theorem_constants(problem, oracle, sigma_sq=0.0)
    assert c.M == 0.0 and c.M1 == 0.0 and c.M3 == 0.0

    problem2 = Problem(family=CallableFamily([lambda x: x], dim=2),
                       x0=np.array([1.0, 1.0]))
    c2 = theorem_constants(problem2, oracle, sigma_sq=0.5)
    assert c2.M == pytest.approx(2.5)
    assert c2.M1 == pytest.approx(np.sqrt(2.0) + np.sqrt(2 * (2.5 + 0.5)))
    assert c2.M3 == pytest.approx(4 * (2.5 + 0.5 + 2.0))


@pytest.mark.parametrize("batch", [conftest.QUAD_BATCH,
                                   BatchSchedule.exponential(8, 1.05, cap=4096)],
                         ids=["quad_batch", "shipped_lambda_batch"])
@pytest.mark.parametrize("horizon", [100, 400, 1000, 10_000])
def test_rate_bound_reads_the_validation_report(quad_problem, batch, horizon):
    # the report's sums are the same reductions as summing the emitted
    # schedule values directly, so the bound agrees bit for bit
    oracle = resolve_oracle(quad_problem)
    sigma_sq = estimate_sigma_sq(quad_problem.family,
                                 default_probes(quad_problem, oracle, seed=1))
    c = theorem_constants(quad_problem, oracle, sigma_sq)
    step = StepSchedule.lambda_poly(0.5, 0.75)
    d0 = float(np.sum((quad_problem.x0 - oracle.x_star) ** 2))
    alphas = step.values(horizon)
    inv_b = 1.0 / batch.values_float(horizon)
    direct = ((d0 + c.M3 * np.sum(alphas**2) + c.sigma_sq * np.sum(inv_b))
              / (2.0 * np.sum(alphas)))
    assert averaged_rate_bound(c, validate(step, batch, horizon), d0) == direct


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
    # the signed gap crosses zero between k=41 and k=42: the running minimum
    # of |gap| would collapse there, so no slope is fitted
    crossing = _synthetic_stats(-(ks**-0.5) + 0.155, ks)
    with pytest.raises(ValueError, match="changes sign in the fit window at k=42"):
        fit_rate(crossing, (10, 100))


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
    # trial t of T=5 is trial t of T=8, and a lone run is trial 0 of both
    few = ensemble(twohalf_problem, cfg, trials=5)
    many = _run_trials(twohalf_problem, cfg, 8)
    for field, mean in (("residuals", few.residual_mean),
                        ("dist_sq", few.msq_dist_mean)):
        expect = getattr(many, field)[:5].mean(axis=0)
        np.testing.assert_allclose(mean, expect, rtol=1e-13, atol=0.0)
    lone = run(twohalf_problem, cfg)
    for trace in (_run_trials(twohalf_problem, cfg, 5), many):
        for field in ("residuals", "dist_sq"):
            np.testing.assert_allclose(getattr(lone, field), getattr(trace, field)[0],
                                       rtol=1e-13, atol=0.0, err_msg=field)


def test_trial_draws_and_rows_do_not_depend_on_trial_count():
    # trial i's counts are bitwise the same for T=3 and T=6; its recorded
    # rows agree to rounding (the (T, d) products may round differently)
    problem = random_quadratic_problem(12, 4, gen_seed=5)
    cfg = SolverConfig(method="stoch_halpern", step=StepSchedule.poly(0.5),
                       batch=BatchSchedule.exponential(4, 1.05, cap=512),
                       iterations=150, seed=31, record_every=7)
    stream = BatchStream(cfg.seed, 12)
    for k in (0, 1, 77, 149):
        b = cfg.batch.at(k)
        np.testing.assert_array_equal(stream.draw(k, [b], 3)[0], stream.draw(k, [b], 6)[0][:3])
    a = _run_trials(problem, cfg, 3)
    b = _run_trials(problem, cfg, 6)
    for field in ("residuals", "f0_values", "dist_sq", "batch_dist_sq", "step_norms"):
        np.testing.assert_allclose(getattr(a, field), getattr(b, field)[:3],
                                   rtol=1e-13, atol=0.0, err_msg=field)
    np.testing.assert_allclose(a.final_points, b.final_points[:3], rtol=1e-13, atol=0.0)


def test_ensemble_requires_two_trials(twohalf_problem):
    cfg = SolverConfig(method="halpern", step=StepSchedule.poly(0.5),
                       iterations=10, seed=0)
    with pytest.raises(ValueError):
        ensemble(twohalf_problem, cfg, trials=1)


@pytest.mark.parametrize("trials", [2.5, np.float64(3)])
def test_ensemble_refuses_a_non_integer_trial_count(twohalf_problem, trials):
    cfg = SolverConfig(method="halpern", step=StepSchedule.poly(0.5),
                       iterations=10, seed=0)
    with pytest.raises(ValueError, match="integer trials"):
        ensemble(twohalf_problem, cfg, trials)


def test_batch_image_dist_bounded(bench_exp_stats, twohalf_problem):
    # expected squared distance of the sampled image to the limit point stays
    # below M + sigma_sq + 3 SE at every recorded k (final row is NaN)
    oracle = resolve_oracle(twohalf_problem)
    probes = default_probes(twohalf_problem, oracle, seed=1)
    sigma_sq = estimate_sigma_sq(twohalf_problem.family, probes)
    c = theorem_constants(twohalf_problem, oracle, sigma_sq)
    bound = c.M + sigma_sq + 3.0 * np.nan_to_num(bench_exp_stats.batch_msq_se[:-1])
    vals = bench_exp_stats.batch_msq_mean[:-1]
    assert np.all(vals <= bound + 1e-12)
