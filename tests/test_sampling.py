import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochfp import (BatchDraw, CallableFamily, apply_mini_batch,
                     iteration_rng, sample_batch, two_halfspace_problem)
from stochfp.sampling import BatchStream


def test_single_component_always_index_one():
    for b in (1, 5, 64):
        draw = sample_batch(seed=7, k=0, n=1, b=b)
        assert np.all(draw.indices == 1)
        assert draw.batch_size == b


def test_indices_within_range():
    draw = sample_batch(seed=3, k=2, n=5, b=3)
    assert draw.indices.min() >= 1 and draw.indices.max() <= 5
    assert draw.batch_size == 3


def test_empirical_frequency_two_components():
    # binomial concentration: 3 sigma ~ 0.0047 at b = 1e5
    for seed in (0, 1, 12345):
        draw = sample_batch(seed=seed, k=0, n=2, b=100_000)
        freq = np.mean(draw.indices == 1)
        assert 0.49 <= freq <= 0.51


def test_reproducibility_bit_exact():
    a = sample_batch(seed=99, k=17, n=10, b=1000)
    b = sample_batch(seed=99, k=17, n=10, b=1000)
    assert np.array_equal(a.indices, b.indices)


def test_distinct_iterations_and_seeds_differ():
    base = sample_batch(seed=99, k=17, n=10, b=1000)
    other_k = sample_batch(seed=99, k=18, n=10, b=1000)
    other_seed = sample_batch(seed=100, k=17, n=10, b=1000)
    assert not np.array_equal(base.indices, other_k.indices)
    assert not np.array_equal(base.indices, other_seed.indices)


def test_batch_size_change_does_not_perturb_other_iterations():
    # iteration k=9 draw is identical no matter what was drawn at k < 9
    before = sample_batch(seed=5, k=9, n=4, b=100)
    sample_batch(seed=5, k=3, n=4, b=999_999)
    after = sample_batch(seed=5, k=9, n=4, b=100)
    assert np.array_equal(before.indices, after.indices)


def _fresh_draw(seed, k, n, b, trials):
    # the stream's rule, written out: b indices per trial for b < n,
    # otherwise the multinomial counts
    gen = iteration_rng(seed, k)
    if b < n:
        return gen.integers(0, n, (trials, b))
    return gen.multinomial(b, np.full(n, 1.0 / n), size=trials)


@pytest.mark.parametrize("n, b", [(2, 1), (7, 1000), (300, 64)])
def test_counter_reset_draws_what_a_fresh_generator_draws(n, b):
    # one stream per seed visits the iterations in any order and must
    # reproduce the size-3 draw of iteration_rng(seed, k) bit for bit
    seeds = [0, 99, 2**64 - 1]
    streams = [BatchStream(seed, n) for seed in seeds]
    for k in (5, 0, 17, 5, 2**40, 1):
        for stream, seed in zip(streams, seeds):
            np.testing.assert_array_equal(stream.draw(k, b, 3), _fresh_draw(seed, k, n, b, 3))


_trial_counts = st.integers(1, 7).flatmap(
    lambda t: st.tuples(st.just(t), st.integers(t + 1, 8)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**128 - 1),
       ks=st.lists(st.integers(0, 2**40), min_size=1, max_size=6),
       n=st.integers(1, 300), b=st.integers(1, 300) | st.integers(1, 10**6),
       trials=_trial_counts)
def test_stream_draws_are_rows_of_a_fresh_generator_draw(seed, ks, n, b, trials):
    # one stream object visits the iterations in any order; each draw is the
    # size-T draw of a fresh iteration_rng(seed, k), bit for bit (integers
    # for b < n, multinomial otherwise), and its first T rows do not depend
    # on how many trials are drawn
    few, many = trials
    stream = BatchStream(seed, n)
    for k in ks:
        rows = stream.draw(k, b, few)
        np.testing.assert_array_equal(rows, stream.draw(k, b, many)[:few])
        np.testing.assert_array_equal(rows, _fresh_draw(seed, k, n, b, few))
        if b < n:
            assert rows.shape == (few, b) and rows.min() >= 0 and rows.max() < n
        else:
            assert rows.shape == (few, n) and np.all(rows.sum(axis=1) == b)


@pytest.mark.parametrize("n, b", [(50, 3), (2000, 64), (5, 4), (5, 5), (2, 8)])
def test_index_draw_is_a_fresh_integers_draw(n, b):
    # b < n draws b indices per trial; b >= n keeps the multinomial counts
    rows = BatchStream(11, n).draw(4, b, 3)
    if b < n:
        np.testing.assert_array_equal(rows, iteration_rng(11, 4).integers(0, n, (3, b)))
    else:
        assert rows.shape == (3, n) and np.all(rows.sum(axis=1) == b)


def test_sample_batch_is_the_solver_draw():
    # sample_batch is row 0 of the solver's draw: its b indices in drawn
    # order for b < n, its counts expanded to ascending indices otherwise
    for seed, k, n, b in ((3, 0, 2, 8), (424242, 9, 5, 40), (7, 123, 50, 3),
                          (11, 4, 2000, 64)):
        draw = sample_batch(seed, k, n, b)
        row = BatchStream(seed, n).draw(k, b, 3)[0]
        if b < n:
            np.testing.assert_array_equal(draw.indices, row + 1)
            np.testing.assert_array_equal(draw.counts(), np.bincount(row, minlength=n))
        else:
            np.testing.assert_array_equal(draw.counts(), row)
            assert np.all(np.diff(draw.indices) >= 0)


def test_draw_validates_indices():
    with pytest.raises(ValueError):
        BatchDraw(indices=np.array([0, 1]), n=3, k=0, seed=0)
    with pytest.raises(ValueError):
        BatchDraw(indices=np.array([4]), n=3, k=0, seed=0)
    with pytest.raises(ValueError):
        BatchDraw(indices=np.array([], dtype=np.int64), n=3, k=0, seed=0)


def test_counts_ascending_order():
    draw = BatchDraw(indices=np.array([3, 1, 3, 2, 3]), n=4, k=0, seed=0)
    assert draw.counts().tolist() == [1, 1, 3, 0]


def _interval_family():
    return CallableFamily([lambda x: np.minimum(x, 0.0),
                           lambda x: np.maximum(x, 1.0)], dim=1)


def test_apply_all_indices_equal_gives_component():
    fam = _interval_family()
    draw = BatchDraw(indices=np.array([2, 2, 2, 2]), n=2, k=0, seed=0)
    assert apply_mini_batch(fam, draw, [0.5])[0] == pytest.approx(1.0)


def test_apply_mixed_draw_interval_family():
    fam = _interval_family()
    draw = BatchDraw(indices=np.array([1, 2]), n=2, k=0, seed=0)
    assert apply_mini_batch(fam, draw, [0.5])[0] == pytest.approx(0.5)


def test_apply_full_sweep_equals_exact_mean():
    fam = two_halfspace_problem().family
    draw = BatchDraw(indices=np.arange(1, fam.n + 1), n=fam.n, k=0, seed=0)
    x = np.array([0.8, 0.1])
    np.testing.assert_allclose(apply_mini_batch(fam, draw, x),
                               fam.mean(x), rtol=1e-15)


def test_apply_skips_an_undrawn_overflowing_component():
    fam = CallableFamily([lambda x: x, lambda x: 1e308 * x + 1e308], dim=1)
    draw = BatchDraw(indices=np.array([1, 1]), n=2, k=0, seed=0)
    np.testing.assert_array_equal(apply_mini_batch(fam, draw, [1.0]), [1.0])


def test_apply_rejects_family_mismatch():
    fam = _interval_family()
    draw = BatchDraw(indices=np.array([3]), n=3, k=0, seed=0)
    with pytest.raises(ValueError):
        apply_mini_batch(fam, draw, [0.0])
