import math

import numpy as np
import pytest

from stochfp import BatchSchedule, StepSchedule, validate
from stochfp.schedules import (batch_inv_sqrt_sum_bound, batch_inv_sum_bound,
                               lambda_poly_sq_sum_bound,
                               poly_step_sum_lower_bound)


def test_poly_step_examples():
    s = StepSchedule.poly(0.5)
    assert s.at(0) == pytest.approx(1.0)
    assert s.at(3) == pytest.approx(0.5)


def test_lambda_poly_step_example():
    s = StepSchedule.lambda_poly(0.5, 0.75)
    assert s.at(0) == pytest.approx(1.0)  # (2l-1)/(2(1-l)) = 1 at l=3/4


def test_step_parameter_ranges():
    with pytest.raises(ValueError):
        StepSchedule.poly(0.0)
    with pytest.raises(ValueError):
        StepSchedule.poly(1.5)
    with pytest.raises(ValueError):
        StepSchedule.lambda_poly(0.5, 0.5)
    with pytest.raises(ValueError):
        StepSchedule.lambda_poly(0.5, 0.9)
    with pytest.raises(ValueError):
        StepSchedule.constant(0.0)
    with pytest.raises(ValueError):
        StepSchedule.constant(1.2)


def test_steps_in_unit_interval_and_monotone():
    for s in (StepSchedule.poly(0.25), StepSchedule.poly(1.0),
              StepSchedule.lambda_poly(0.7, 0.6)):
        vals = s.values(500)
        assert np.all(vals > 0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) < 0)
        assert vals.tolist() == [s.at(k) for k in range(500)]  # bit for bit


def test_batch_exponential_example():
    b = BatchSchedule.exponential(32, 2.0)
    assert b.at(0) == 32
    assert b.at(4) == 512


def test_batch_constant_and_polynomial_examples():
    assert BatchSchedule.constant(8).at(123) == 8
    assert BatchSchedule.polynomial(1.0, 1.0, 2.0).at(3) == 16


def test_batch_floor_and_clamp():
    b = BatchSchedule.polynomial(0.5, 0.25, 1.0)  # raw value 0.25 at k=0
    assert b.at(0) == 1
    capped = BatchSchedule.exponential(4, 2.0, cap=64)
    assert [capped.at(k) for k in range(7)] == [4, 8, 16, 32, 64, 64, 64]


def test_batch_overflow_saturates():
    b = BatchSchedule.exponential(2, 10.0)
    assert b.at(400) == 2**62  # uncapped overflow sentinel
    assert b.values(401).tolist() == [b.at(k) for k in range(401)]
    assert BatchSchedule.exponential(2, 10.0, cap=1024).at(400) == 1024


STEP_KINDS = [StepSchedule.poly(0.25), StepSchedule.poly(1.0),
              StepSchedule.lambda_poly(0.7, 0.6), StepSchedule.constant(0.3),
              StepSchedule.constant(1)]
BATCH_KINDS = [BatchSchedule.constant(7), BatchSchedule.polynomial(0.5, 0.25, 1.0),
               BatchSchedule.polynomial(1.0, 1.0, 2.5, cap=1000),
               BatchSchedule.exponential(4, 1.01, cap=2**16),
               BatchSchedule.exponential(0.3, 1.5, cap=10**30),
               BatchSchedule.exponential(4, 1.5)]


@pytest.mark.parametrize("step", STEP_KINDS, ids=StepSchedule.describe)
def test_step_values_are_the_scalar_steps_bit_for_bit(step):
    vals = step.values(2000)
    assert vals.dtype == float
    assert vals.tolist() == [step.at(k) for k in range(2000)]


@pytest.mark.parametrize("batch", BATCH_KINDS, ids=BatchSchedule.describe)
def test_batch_values_are_the_scalar_sizes_bit_for_bit(batch):
    # the last kind is uncapped: 4 * 1.5**k is an inf product from k=1748
    # and raises OverflowError in the power from k=1751; inf as a float,
    # 2^62 as an emitted size
    floats = batch.values_float(2000)
    assert floats.tolist() == [batch._emitted(k) for k in range(2000)]
    assert batch.values(2000).tolist() == [batch.at(k) for k in range(2000)]
    if batch.cap is None and batch.kind == "exponential":
        assert floats[-1] == np.inf and batch.values(2000)[-1] == 2**62


def test_batch_monotone_nondecreasing():
    for b in (BatchSchedule.polynomial(0.7, 2.0, 1.5),
              BatchSchedule.exponential(3, 1.2)):
        vals = b.values_float(300)
        assert np.all(np.diff(vals) >= 0)


def test_validate_poly_constant_k0_example():
    # 1/b <= alpha fails from k=16 onward: alpha_16 = 17**-0.5 < 0.25
    rep = validate(StepSchedule.poly(0.5), BatchSchedule.constant(4), 100)
    scan = rep.inv_b_le_alpha
    assert scan.first_violation == 16
    assert scan.k0 is None  # never recovers within the horizon
    assert (17.0 ** -0.5) < 0.25 < (16.0 ** -0.5) + 1e-15


def test_validate_exponential_b32_bound_value():
    rep = validate(StepSchedule.poly(0.5), BatchSchedule.exponential(32, 2.0), 200)
    assert rep.batch_bound_B == pytest.approx(0.0625, abs=0.0)
    assert rep.sum_inv_b_le_B
    assert rep.inv_b_le_alpha_sq.k0 == 0


def test_validate_fast_exponential_holds_from_zero():
    # 1/b_k = 4**-k <= (k+1)**-1 = alpha_k^2 for all k
    rep = validate(StepSchedule.poly(0.5), BatchSchedule.exponential(1, 4.0), 50)
    assert rep.inv_b_le_alpha_sq.k0 == 0


def test_validate_reports_lambda_bound_scan():
    rep = validate(StepSchedule.poly(0.5), BatchSchedule.exponential(8, 1.05),
                   100, lam=0.6)
    scan = rep.alpha_le_lambda_bound
    # bound = 0.25; alpha_k = (k+1)**-0.5 <= 0.25 iff k >= 15
    assert scan.first_violation == 0
    assert scan.k0 == 15


def test_validate_never_raises_on_infeasible():
    rep = validate(StepSchedule.constant(0.5), BatchSchedule.constant(1), 10)
    assert not rep.batch_inv_sqrt_summable
    assert not rep.step_vanishes


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("horizon", [10, 100, 1000])
def test_poly_partial_sum_divergence_proxy(a, horizon):
    total = float(StepSchedule.poly(a).values(horizon).sum())
    assert total >= poly_step_sum_lower_bound(a, horizon) * (1 - 1e-12)


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("lam", [0.6, 0.75])
@pytest.mark.parametrize("horizon", [10, 100, 1000])
def test_lambda_poly_square_sum_bound(a, lam, horizon):
    sched = StepSchedule.lambda_poly(a, lam)
    total = float((sched.values(horizon) ** 2).sum())
    assert total <= lambda_poly_sq_sum_bound(a, lam, horizon) * (1 + 1e-12)


@pytest.mark.parametrize("horizon", [10, 100, 1000])
def test_exponential_partial_sums_match_geometric_forms(horizon):
    # b0=32, delta=2 emits exact powers of two: partial sums are exact
    # geometric series
    b = BatchSchedule.exponential(32, 2.0)
    rep = validate(StepSchedule.poly(0.5), b, horizon)
    r = 1.0 / math.sqrt(2.0)
    expect_sqrt = (1.0 / math.sqrt(32.0)) * (1 - r**horizon) / (1 - r)
    expect_inv = (1.0 / 32.0) * (1 - 0.5**horizon) / (1 - 0.5)
    assert rep.sum_inv_sqrt_b == pytest.approx(expect_sqrt, rel=1e-12)
    assert rep.sum_inv_b == pytest.approx(expect_inv, rel=1e-12)
    assert rep.sum_inv_b <= rep.batch_bound_B * (1 + 1e-12)
    assert rep.sum_inv_sqrt_b <= rep.root_batch_bound * (1 + 1e-12)


@pytest.mark.parametrize("horizon", [10, 100, 1000])
def test_polynomial_batch_bounds(horizon):
    # b_k = (k+1)^3 exactly (integer powers, no floor error)
    b = BatchSchedule.polynomial(1.0, 1.0, 3.0)
    rep = validate(StepSchedule.poly(0.5), b, horizon)
    ks = np.arange(horizon, dtype=float) + 1.0
    assert rep.sum_inv_b == pytest.approx(float(np.sum(ks**-3)), rel=1e-12)
    assert rep.sum_inv_b <= batch_inv_sum_bound(b) * (1 + 1e-12)
    assert rep.sum_inv_sqrt_b <= batch_inv_sqrt_sum_bound(b) * (1 + 1e-12)
    assert b.inv_sqrt_summable and b.inv_summable


def test_constant_batch_root_sum_grows_linearly():
    step = StepSchedule.poly(0.5)
    b = BatchSchedule.constant(9)
    for horizon in (50, 200, 800):
        s1 = validate(step, b, horizon).sum_inv_sqrt_b
        s2 = validate(step, b, 2 * horizon).sum_inv_sqrt_b
        assert s2 >= 1.9 * s1
    assert batch_inv_sum_bound(b) is None
    assert not b.inv_sqrt_summable


def test_cap_hit_reported():
    rep = validate(StepSchedule.poly(0.5),
                   BatchSchedule.exponential(4, 2.0, cap=32), 20)
    assert rep.cap_hit
    assert any("cap" in line for line in rep.lines())
