import tracemalloc

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
            np.testing.assert_array_equal(stream.draw(k, [b], 3)[0], _fresh_draw(seed, k, n, b, 3))


_trial_counts = st.integers(1, 7).flatmap(
    lambda t: st.tuples(st.just(t), st.integers(t + 1, 8)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**128 - 1),
       k0s=st.lists(st.integers(0, 2**40), min_size=1, max_size=6),
       n=st.integers(1, 300),
       sizes=st.lists(st.integers(1, 300) | st.integers(1, 10**6), min_size=1, max_size=6),
       trials=_trial_counts)
def test_stream_draws_are_rows_of_a_fresh_generator_draw(seed, k0s, n, sizes, trials):
    # one stream object visits blocks in any order, their sizes mixing
    # b < n and b >= n; entry j of a block is the size-T draw of a fresh
    # iteration_rng(seed, k0 + j), bit for bit (integers for b < n,
    # multinomial otherwise), and its first T rows do not depend on how many
    # trials are drawn
    few, many = trials
    stream = BatchStream(seed, n)
    for k0 in k0s:
        block, wide = stream.draw(k0, sizes, few), stream.draw(k0, sizes, many)
        assert len(block) == len(wide) == len(sizes)
        for j, (rows, b) in enumerate(zip(block, sizes)):
            np.testing.assert_array_equal(rows, wide[j][:few])
            np.testing.assert_array_equal(rows, _fresh_draw(seed, k0 + j, n, b, few))
            if b < n:
                assert rows.shape == (few, b) and rows.min() >= 0 and rows.max() < n
            else:
                assert rows.shape == (few, n) and np.all(rows.sum(axis=1) == b)


@pytest.mark.parametrize("n, b", [(50, 3), (2000, 64), (5, 4), (5, 5), (2, 8)])
def test_index_draw_is_a_fresh_integers_draw(n, b):
    # b < n draws b indices per trial; b >= n keeps the multinomial counts
    rows = BatchStream(11, n).draw(4, [b], 3)[0]
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
        row = BatchStream(seed, n).draw(k, [b], 3)[0][0]
        if b < n:
            np.testing.assert_array_equal(draw.indices, row + 1)
            np.testing.assert_array_equal(draw.counts(), np.bincount(row, minlength=n))
        else:
            np.testing.assert_array_equal(draw.counts(), row)
            assert np.all(np.diff(draw.indices) >= 0)


@pytest.mark.parametrize("n", [2**31 + 11, 3 * 10**9, 2**32])
def test_index_draw_near_the_32_bit_limit_is_numpys_integers_draw(n):
    # (2**32 - n) mod n is about n/2 at 2**31 + 11 and 0.43 n at 3e9, so many
    # values are rejected and the redraw loop runs; at 2**32 every 32-bit half
    # is an index.  No n-length vector is built for these index draws.
    stream = BatchStream(5, n)
    for k in (0, 3, 2**40):
        for trials in (1, 3):
            for b in (1, 5, 64, 1001):
                np.testing.assert_array_equal(stream.draw(k, [b], trials)[0],
                                              iteration_rng(5, k).integers(0, n, (trials, b)))
        np.testing.assert_array_equal(sample_batch(5, k, n, 64).indices,
                                      iteration_rng(5, k).integers(0, n, (1, 64))[0] + 1)


@pytest.mark.parametrize("n", [2000, 2**31 + 11, 50])
@pytest.mark.parametrize("trials", [1, 2, 3])
def test_block_draw_equals_per_iteration_draws(n, trials):
    # a ramping block of index draws, which at 2**31 + 11 mostly redraw; there
    # k0 = 320 (T = 1) and 576 (T = 3) each hold an iteration whose one rejected
    # value is the unused half of an odd T*b, which keeps its slice.  At n = 50
    # the block crosses from b < n to b >= n and back.
    sizes = [5, 5, 6, 7, 64, 1] if n > 64 else [3, 20, 49, 50, 64, 256, 7]
    stream = BatchStream(7, n)
    for k0 in (0, 64, 320, 576, 2**40):
        block = stream.draw(k0, sizes, trials)
        assert len(block) == len(sizes)
        for j, (rows, b) in enumerate(zip(block, sizes)):
            np.testing.assert_array_equal(rows, _fresh_draw(7, k0 + j, n, b, trials))


def test_index_draw_builds_no_n_length_vector():
    # 4 indices out of 10**7 components: the draw allocates O(b), not O(n)
    tracemalloc.start()
    try:
        draw = sample_batch(0, 0, 10**7, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    np.testing.assert_array_equal(draw.indices, iteration_rng(0, 0).integers(0, 10**7, (1, 4))[0] + 1)


def test_numpy_integer_sizes_draw_as_python_ints():
    # the index rule multiplies uint64 words by n, which a NumPy int64 n must not upset
    for n, b in ((2000, 5), (4, 5)):
        np.testing.assert_array_equal(sample_batch(0, 3, np.int64(n), np.int64(b)).indices,
                                      sample_batch(0, 3, n, b).indices)
    np.testing.assert_array_equal(BatchStream(1, np.int64(2000)).draw(4, [3], 2)[0],
                                  BatchStream(1, 2000).draw(4, [3], 2)[0])
    # a bool b draws as the int it equals
    np.testing.assert_array_equal(sample_batch(0, 3, 10, True).indices,
                                  sample_batch(0, 3, 10, 1).indices)


@pytest.mark.parametrize("make", [lambda n: sample_batch(0, 0, n, 4), lambda n: BatchStream(0, n)])
def test_n_beyond_the_32_bit_index_rule_is_refused(make):
    # NumPy maps words by a 64-bit rule above 2**32, which the stream does not define
    with pytest.raises(ValueError, match=f"n = {2**32 + 1}"):
        make(2**32 + 1)


@pytest.mark.parametrize("make", [lambda n: sample_batch(0, 0, n, 4), lambda n: BatchStream(0, n)])
def test_no_components_is_refused(make):
    with pytest.raises(ValueError, match="n = 0"):
        make(0)


@pytest.mark.parametrize("seed, k, field", [(1.5, 0, "seed"), (1, -1, "iteration"),
                                             (1, 2**64, "iteration"), (1, 2.0, "iteration")])
def test_sample_batch_rejects_a_key_or_counter_philox_cannot_hold(seed, k, field):
    # a float would be truncated to another stream's draw, and a negative or
    # too large k overflows the counter word
    with pytest.raises(ValueError, match=field):
        sample_batch(seed, k, 3, 2)


@pytest.mark.parametrize("seed, k, field", [(1.5, 0, "seed"), (-1, 0, "seed"), (2**128, 0, "seed"),
                                             (0, -1, "iteration"), (0, 2**64, "iteration"),
                                             (0, 1.7, "iteration")])
def test_iteration_rng_rejects_a_key_or_counter_philox_cannot_hold(seed, k, field):
    # Philox would truncate a float and wrap a negative counter to 2**64 - 1
    with pytest.raises(ValueError, match=field):
        iteration_rng(seed, k)


@pytest.mark.parametrize("b", [2.5, np.float64(3), "4"])
def test_sample_batch_rejects_a_non_integer_batch_size(b):
    with pytest.raises(ValueError, match="b must be an integer"):
        sample_batch(0, 0, 10, b)


def test_draw_validates_indices():
    with pytest.raises(ValueError):
        BatchDraw(indices=np.array([0, 1]), n=3)
    with pytest.raises(ValueError):
        BatchDraw(indices=np.array([4]), n=3)
    with pytest.raises(ValueError):
        BatchDraw(indices=np.array([], dtype=np.int64), n=3)


def test_counts_ascending_order():
    draw = BatchDraw(indices=np.array([3, 1, 3, 2, 3]), n=4)
    assert draw.counts().tolist() == [1, 1, 3, 0]


def _interval_family():
    return CallableFamily([lambda x: np.minimum(x, 0.0),
                           lambda x: np.maximum(x, 1.0)], dim=1)


def test_apply_all_indices_equal_gives_component():
    fam = _interval_family()
    draw = BatchDraw(indices=np.array([2, 2, 2, 2]), n=2)
    assert apply_mini_batch(fam, draw, [0.5])[0] == pytest.approx(1.0)


def test_apply_mixed_draw_interval_family():
    fam = _interval_family()
    draw = BatchDraw(indices=np.array([1, 2]), n=2)
    assert apply_mini_batch(fam, draw, [0.5])[0] == pytest.approx(0.5)


def test_apply_full_sweep_equals_exact_mean():
    fam = two_halfspace_problem().family
    draw = BatchDraw(indices=np.arange(1, fam.n + 1), n=fam.n)
    x = np.array([0.8, 0.1])
    np.testing.assert_allclose(apply_mini_batch(fam, draw, x),
                               fam.mean(x), rtol=1e-15)


def test_apply_skips_an_undrawn_overflowing_component():
    fam = CallableFamily([lambda x: x, lambda x: 1e308 * x + 1e308], dim=1)
    draw = BatchDraw(indices=np.array([1, 1]), n=2)
    np.testing.assert_array_equal(apply_mini_batch(fam, draw, [1.0]), [1.0])


def test_apply_rejects_family_mismatch():
    fam = _interval_family()
    draw = BatchDraw(indices=np.array([3]), n=3)
    with pytest.raises(ValueError):
        apply_mini_batch(fam, draw, [0.0])
