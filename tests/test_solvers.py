import dataclasses
import tracemalloc

import numpy as np
import pytest

from stochfp import (AveragedFamily, BatchSchedule, CallableFamily, Halfspace,
                     Problem, ProjectionFamily, STOCHASTIC_METHODS,
                     SolverConfig, StepSchedule, ensemble,
                     random_halfspace_problem, random_quadratic_problem,
                     resolve_oracle, run, two_halfspace_problem)
from stochfp.core import DivergenceError
from stochfp.sampling import BatchStream
from stochfp import solvers
from stochfp.solvers import FieldError, _run_trials

from reference_loop import reference_run


def _single_projection_problem():
    h = Halfspace(normal=np.array([1.0, 0.0]), offset=0.0)
    return Problem(family=ProjectionFamily([h]),
                   x0=np.array([1.0, 0.0]))


def test_run_two_steps_by_hand():
    # alpha_k = 1/(k+1): x_1 = x_0; x_2 = 0.5*x0 + 0.5*P(x_1) = (0.5, 0)
    problem = _single_projection_problem()
    cfg = SolverConfig(method="halpern", step=StepSchedule.poly(1.0),
                       iterations=2, seed=0, record_every=1)
    rec = run(problem, cfg)
    np.testing.assert_allclose(rec.final_point, [0.5, 0.0], atol=1e-15)
    assert rec.ks.tolist() == [0, 1, 2]


def test_run_records_initial_state():
    problem = _single_projection_problem()
    cfg = SolverConfig(method="halpern", step=StepSchedule.poly(1.0),
                       iterations=1, seed=0, record_every=10)
    rec = run(problem, cfg)
    assert rec.ks[0] == 0
    # residual at x0 = ||x0 - P(x0)|| = 1
    assert rec.residuals[0] == pytest.approx(1.0)
    assert rec.f0_values[0] == 0.0
    assert np.isnan(rec.step_norms[-1])


def test_record_row_count_matches_stride():
    problem = _single_projection_problem()
    cfg = SolverConfig(method="halpern", step=StepSchedule.poly(0.5),
                       iterations=100, seed=0, record_every=7)
    rec = run(problem, cfg)
    assert rec.ks.size == int(np.ceil(100 / 7)) + 1
    assert rec.ks[-1] == 100


def _singleton_stochastic_family():
    # n=1 family: batch mean is always the single component
    return CallableFamily([lambda x: 0.5 * x + 1.0], dim=2)


@pytest.mark.parametrize("det_method, stoch_method", [
    ("halpern", "stoch_halpern"), ("km", "stoch_km")])
def test_degenerate_noise_equivalence(det_method, stoch_method):
    fam = _singleton_stochastic_family()
    problem = Problem(family=fam, x0=np.array([4.0, -2.0]))
    step = (StepSchedule.poly(0.5) if det_method == "halpern"
            else StepSchedule.constant(0.5))
    det = run(problem, SolverConfig(method=det_method, step=step,
                                    iterations=60, seed=1, record_every=1))
    sto = run(problem, SolverConfig(method=stoch_method, step=step,
                                    batch=BatchSchedule.constant(7),
                                    iterations=60, seed=1, record_every=1))
    assert np.array_equal(det.final_point, sto.final_point)
    assert np.array_equal(det.residuals, sto.residuals)
    assert np.array_equal(det.f0_values, sto.f0_values)


def test_lambda_zero_reduces_to_plain_stochastic():
    # the solver's blend range is (1/2, 3/4]; the blended family it iterates
    # on is run at lam=0 to confirm the blend is exactly a no-op there
    problem = two_halfspace_problem()
    batch = BatchSchedule.exponential(4, 1.05, cap=1024)
    cfg_plain = SolverConfig(method="stoch_halpern", step=StepSchedule.poly(0.5),
                             batch=batch, iterations=200, seed=11, record_every=1)
    plain = run(problem, cfg_plain)
    blended = run(Problem(AveragedFamily(problem.family, 0.0), problem.x0), cfg_plain)
    assert np.array_equal(plain.final_point, blended.final_point)
    assert np.array_equal(plain.residuals, blended.residuals)


def test_lambda_run_residuals_are_the_base_family_residuals():
    # a blended run steps on the blend and records on the problem's own
    # family: each residual row is ||x_k - T(x_k)|| at that run's iterate
    # x_k, the final point of the same run stopped at k (index draws for
    # b_k < 6 = n, count draws after)
    problem = random_quadratic_problem(6, 3, gen_seed=3)

    def lam_run(iterations):
        return run(problem, SolverConfig(
            method="stoch_halpern_lambda", step=StepSchedule.lambda_poly(0.5, 0.75),
            batch=BatchSchedule.exponential(4, 1.1), iterations=iterations, seed=5,
            record_every=1, lam=0.75))

    rec = lam_run(20)
    iterates = [problem.x0] + [lam_run(k).final_point for k in range(1, 21)]
    expected = [np.linalg.norm(x - problem.family.mean(x)) for x in iterates]
    assert rec.batch_sizes[0] < 6 <= rec.batch_sizes[-1]
    np.testing.assert_allclose(rec.residuals, expected, rtol=1e-13)


def test_lambda_config_range_enforced():
    with pytest.raises(ValueError):
        SolverConfig(method="stoch_halpern_lambda", step=StepSchedule.poly(0.5),
                     batch=BatchSchedule.constant(4), iterations=10, seed=0,
                     lam=0.9)
    with pytest.raises(ValueError):
        SolverConfig(method="stoch_halpern_lambda", step=StepSchedule.poly(0.5),
                     batch=BatchSchedule.constant(4), iterations=10, seed=0)


def test_lambda_step_cap_validated():
    # lam = 0.6 gives cap 0.25; poly(0.5) attains alpha_0 = 1
    with pytest.raises(ValueError, match="blend cap"):
        SolverConfig(method="stoch_halpern_lambda", step=StepSchedule.poly(0.5),
                     batch=BatchSchedule.constant(4), iterations=10, seed=0,
                     lam=0.6)


def test_km_rejects_unit_step():
    with pytest.raises(ValueError, match="averaged methods"):
        SolverConfig(method="km", step=StepSchedule.poly(0.5),
                     iterations=10, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_seed_outside_philox_key_range_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        SolverConfig(method="halpern", step=StepSchedule.poly(0.5),
                     iterations=10, seed=seed)


def test_non_integer_seed_rejected():
    # Philox would truncate the key 1.5 to 1 and silently run seed 1
    with pytest.raises(FieldError) as err:
        SolverConfig(method="halpern", step=StepSchedule.poly(0.5),
                     iterations=10, seed=1.5)
    assert err.value.field == "seed"
    SolverConfig(method="halpern", step=StepSchedule.poly(0.5),
                 iterations=10, seed=np.uint64(7))


def test_non_integer_iterations_and_stride_rejected():
    # the engine ranges and slices over these counts, so a float must stop at
    # the API boundary with the field named
    step = StepSchedule.poly(0.5)
    for fields, name in (({"iterations": 2.5}, "iterations"),
                         ({"iterations": 3, "record_every": 1.5}, "record_every"),
                         ({"iterations": 3.0}, "iterations"),
                         ({"iterations": 0}, "iterations"),
                         ({"iterations": 3, "record_every": 0}, "record_every")):
        with pytest.raises(FieldError) as err:
            SolverConfig(method="halpern", step=step, seed=1, **fields)
        assert err.value.field == name
    cfg = SolverConfig(method="halpern", step=step, seed=1, iterations=np.int64(3),
                       record_every=np.int32(2))
    assert run(_single_projection_problem(), cfg).ks.tolist() == [0, 2, 3]


def test_stochastic_requires_batch():
    with pytest.raises(ValueError, match="batch"):
        SolverConfig(method="stoch_halpern", step=StepSchedule.poly(0.5),
                     iterations=10, seed=0)


@pytest.mark.parametrize("method", ["km", "halpern"])
def test_deterministic_method_refuses_batch(method):
    # the exact mean would run while the summary described the batch schedule
    with pytest.raises(FieldError) as err:
        SolverConfig(method=method, step=StepSchedule.constant(0.5),
                     batch=BatchSchedule.constant(1), iterations=10, seed=0)
    assert err.value.field == "batch"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_divergence_aborts_with_seed():
    # an expanding affine map (not nonexpansive) blows up under km steps
    fam = CallableFamily([lambda x: 1e8 * x + 1e308], dim=1)
    problem = Problem(family=fam, x0=np.array([1.0]))
    cfg = SolverConfig(method="km", step=StepSchedule.constant(0.9),
                       iterations=50, seed=1234)
    with pytest.raises(DivergenceError) as err:
        run(problem, cfg)
    assert err.value.seed == 1234 and err.value.trial == 0


def _callable_problem():
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    fam = CallableFamily([lambda x: x / max(1.0, float(np.linalg.norm(x))),
                          lambda x: rot @ x,
                          lambda x: np.array([x[0], 0.0]),
                          lambda x: np.clip(x, -0.5, 2.0)], dim=2)
    return Problem(family=fam, x0=np.array([2.0, 1.0]))


def _blend_problem():
    base = two_halfspace_problem()
    return Problem(family=AveragedFamily(base.family, 0.6), x0=base.x0,
                   oracle_info=base.oracle_info)


REFERENCE_PROBLEMS = {
    "projection": lambda: random_halfspace_problem(10, 4, gen_seed=3),
    "gradient": lambda: random_quadratic_problem(8, 3, gen_seed=2),
    "callable": _callable_problem,
    "blend": _blend_problem,
}

REFERENCE_METHODS = {
    "km": dict(step=StepSchedule.constant(0.5)),
    "halpern": dict(step=StepSchedule.poly(0.5)),
    "stoch_km": dict(step=StepSchedule.constant(0.5)),
    "stoch_halpern": dict(step=StepSchedule.poly(0.5)),
    "stoch_halpern_lambda": dict(step=StepSchedule.lambda_poly(0.5, 0.75), lam=0.75),
}


@pytest.mark.parametrize("method", list(REFERENCE_METHODS))
@pytest.mark.parametrize("label", list(REFERENCE_PROBLEMS))
def test_run_matches_per_trial_reference(label, method):
    # the (T, d) engine at T=1 against a plain loop over eval_all,
    # iteration_rng and the two update formulas; record_every=3 exercises
    # the iterations that evaluate only the sampled mean
    problem = REFERENCE_PROBLEMS[label]()
    batch = BatchSchedule.exponential(2, 1.1, cap=64) if method.startswith("stoch") else None
    cfg = SolverConfig(method=method, iterations=40, seed=977, batch=batch,
                       record_every=3, **REFERENCE_METHODS[method])
    x_star = resolve_oracle(problem).x_star if problem.oracle_info is not None else None
    rec = run(problem, cfg)
    ref = reference_run(problem, cfg, x_star)
    assert (rec.dist_sq is None) == (x_star is None)
    for key, expected in ref.items():
        got = rec.final_point if key == "final_point" else getattr(rec, key)
        _assert_matches_reference(got, expected, key)


def _assert_matches_reference(got, expected, key):
    scale = np.nanmax(np.abs(expected))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale,
                               err_msg=key)


@pytest.mark.parametrize("method", STOCHASTIC_METHODS)
@pytest.mark.parametrize("label", list(REFERENCE_PROBLEMS))
def test_ensemble_row_matches_per_trial_reference(label, method):
    # trial 2 of a 3-trial ensemble against the plain loop on row 2 of the
    # master seed's draws
    problem = REFERENCE_PROBLEMS[label]()
    cfg = SolverConfig(method=method, iterations=40, seed=977,
                       batch=BatchSchedule.exponential(2, 1.1, cap=64),
                       record_every=3, **REFERENCE_METHODS[method])
    x_star = resolve_oracle(problem).x_star if problem.oracle_info is not None else None
    trace = _run_trials(problem, cfg, 3)
    for key, expected in reference_run(problem, cfg, x_star, trial=2).items():
        got = getattr(trace, "final_points" if key == "final_point" else key)[2]
        _assert_matches_reference(got, expected, key)


BLOCK_PROBLEMS = {
    "halfspace": lambda: random_halfspace_problem(10, 4, gen_seed=3),
    "quadratic": lambda: random_quadratic_problem(8, 3, gen_seed=2),
    "callable": _callable_problem,
}
# b < n throughout, b >= n throughout, and 2 -> 64 across every n above
BLOCK_BATCHES = [BatchSchedule.constant(2), BatchSchedule.constant(16),
                 BatchSchedule.exponential(2, 1.1, cap=64)]


def _trials_at_block_lengths(monkeypatch, problem, cfg, trials):
    """``_run_trials`` with blocks of 1, 3 and the default number of iterations."""
    traces = []
    for length in (1, 3, solvers._BLOCK):
        monkeypatch.setattr(solvers, "_BLOCK", length)
        traces.append(_run_trials(problem, cfg, trials))
    return traces


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("method", list(REFERENCE_METHODS))
@pytest.mark.parametrize("label", list(BLOCK_PROBLEMS))
def test_output_does_not_depend_on_the_block_length(monkeypatch, label, method, stride):
    # K = 40 is a multiple of neither 3 nor 7; the default length takes the
    # whole run in one block.  With one trial a block may hold a single
    # record point.
    problem = BLOCK_PROBLEMS[label]()
    batches = BLOCK_BATCHES if method.startswith("stoch") else [None]
    for batch in batches:
        cfg = SolverConfig(method=method, iterations=40, seed=977, batch=batch,
                           record_every=stride, **REFERENCE_METHODS[method])
        for trials in (1, 3):
            first, *others = _trials_at_block_lengths(monkeypatch, problem, cfg, trials)
            for other in others:
                for field in dataclasses.fields(first):
                    np.testing.assert_array_equal(getattr(other, field.name),
                                                  getattr(first, field.name),
                                                  err_msg=f"{field.name}, {batch}, T={trials}")


def _finite_only(component):
    def guarded(x):
        if not np.all(np.isfinite(x)):
            raise AssertionError(f"component evaluated at a non-finite point {x}")
        return component(x)
    return guarded


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_in_a_later_block_is_reported_as_with_single_steps(monkeypatch):
    # each draw of component 2 multiplies the iterate by 1e60, so a trial
    # overflows on its sixth such draw, after the first block of 3; no
    # component may ever see the non-finite iterate
    fam = CallableFamily([_finite_only(lambda x: x), _finite_only(lambda x: 1e60 * x)], dim=1)
    problem = Problem(family=fam, x0=np.array([1.0]))
    cfg = SolverConfig(method="stoch_km", step=StepSchedule.constant(0.9),
                       batch=BatchSchedule.constant(1), iterations=200, seed=4,
                       record_every=5)
    errors = []
    for length in (1, 3):
        monkeypatch.setattr(solvers, "_BLOCK", length)
        with pytest.raises(DivergenceError) as err:
            _run_trials(problem, cfg, 3)
        errors.append(err.value)
    single, blocked = errors
    assert single.step > 3
    assert ((blocked.seed, blocked.trial, blocked.step, str(blocked))
            == (single.seed, single.trial, single.step, str(single)))


def test_memory_does_not_grow_with_the_iteration_count():
    # a (K, T, n) buffer would add T*n*8 = 3200 bytes per iteration; the
    # schedule arrays add less than 100
    problem = random_quadratic_problem(50, 10, gen_seed=3)
    resolve_oracle(problem)
    peaks = []
    for iterations in (500, 5000):
        cfg = SolverConfig(method="stoch_halpern", step=StepSchedule.poly(0.5),
                           batch=BatchSchedule.exponential(16, 1.01, cap=256),
                           iterations=iterations, seed=3, record_every=iterations)
        tracemalloc.start()
        try:
            _run_trials(problem, cfg, 8)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 100 * 4500


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_names_the_failing_trial():
    # b=1: a trial that draws the blow-up component at k=0 jumps to ~1e200,
    # where that component overflows when drawn again, so its iterate is
    # non-finite at k=2.  Choose a master seed whose trial 0 draws the
    # identity at k=0 (and stays finite through k=2) while trial 1 draws the
    # blow-up component at k=0 and k=1.
    fam = CallableFamily([lambda x: x, lambda x: 1e200 * x], dim=1)
    problem = Problem(family=fam, x0=np.array([1.0]))

    for master in range(100):
        stream = BatchStream(master, 2)
        first, second = stream.draw(0, [1], 3)[0].tolist(), stream.draw(1, [1], 3)[0].tolist()
        if first[0] == [0] and first[1] == [1] and second[1] == [1]:
            break
    else:
        pytest.fail("no master seed in range(100) draws the required batches")
    cfg = SolverConfig(method="stoch_km", step=StepSchedule.constant(0.9),
                       batch=BatchSchedule.constant(1), iterations=20, seed=master)
    with pytest.raises(DivergenceError) as err:
        ensemble(problem, cfg, trials=3)
    assert err.value.seed == master
    assert err.value.trial == 1
    assert err.value.step == 2
    assert f"trial 1 of master seed {master}" in str(err.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_undrawn_overflowing_component_does_not_poison_the_trial():
    # component 2 overflows at x0 = 1; a trial that never draws it keeps a
    # finite iterate (the exact mean on record rows is inf, not the step)
    fam = CallableFamily([lambda x: x, lambda x: 1e308 * x + 1e308], dim=1)
    problem = Problem(family=fam, x0=np.array([1.0]))
    iterations = 5
    for master in range(1000):
        stream = BatchStream(master, 2)
        if all(stream.draw(k, [1], 3)[0][0].tolist() == [0] for k in range(iterations)):
            break
    else:
        pytest.fail("no master seed in range(1000) draws only component 1")
    cfg = SolverConfig(method="stoch_km", step=StepSchedule.constant(0.5),
                       batch=BatchSchedule.constant(1), iterations=iterations, seed=master)
    rec = run(problem, cfg)
    np.testing.assert_array_equal(rec.final_point, [1.0])


@pytest.mark.filterwarnings("error")
def test_saturated_batches_are_sampled(twohalf_problem):
    # floor(4 * 10^k) passes 2^62 at k=19; such batches are drawn as they are
    cfg = SolverConfig(method="stoch_halpern", step=StepSchedule.poly(0.5),
                       batch=BatchSchedule.exponential(4, 10.0), iterations=30,
                       seed=5)
    rec = run(twohalf_problem, cfg)
    stats = ensemble(twohalf_problem, cfg, trials=2)
    for sizes in (rec.batch_sizes, stats.batch_sizes):
        assert np.all(sizes[:19] < 2**62) and np.all(sizes[19:] == 2**62)
    assert np.all(np.isfinite(rec.dist_sq))
    assert np.all(np.isfinite(stats.msq_dist_mean))


def test_successive_differences_vanish(lemma_stats):
    # expected step norm at the end is far below its value at K/10
    ks = lemma_stats.ks
    k_mid = 1000
    k_last = 9999
    step_mid = lemma_stats.step_norm_mean[np.searchsorted(ks, k_mid)]
    step_last = lemma_stats.step_norm_mean[np.searchsorted(ks, k_last)]
    assert step_last < 0.2 * step_mid


def test_residual_vanishes(lemma_stats):
    ks = lemma_stats.ks
    r100 = lemma_stats.residual_mean[np.searchsorted(ks, 100)]
    r10k = lemma_stats.residual_mean[np.searchsorted(ks, 10_000)]
    assert r10k * 5.0 <= r100
