"""The stream replica against numpy's own seeding and drawing, and the
shuffle against the splitmix64 stream loop it replaced."""

import numpy as np
import pytest

from uaperceiver.rng import (_GOLDEN, _MASK, _mix, derive_seed, derive_seeds,
                             first_uniforms, pcg64_states, shuffled_indices)

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
SEEDS = EDGE_SEEDS + np.random.default_rng(2024).integers(
    0, 2**64, size=200, dtype=np.uint64).tolist()


def test_pcg64_states_equal_numpy():
    assert list(pcg64_states(np.array(SEEDS, dtype=np.uint64))) == [
        np.random.PCG64(seed).state for seed in SEEDS]


@pytest.mark.parametrize("shape", [(16, 16), (32, 32), (3, 5), (1, 1)])
def test_first_uniforms_equal_default_rng(shape):
    drawn = [u.copy() for u in first_uniforms(np.array(SEEDS, dtype=np.uint64), shape)]
    assert len(drawn) == len(SEEDS)
    for seed, u in zip(SEEDS, drawn):
        expected = np.random.default_rng(seed).random(size=shape)
        assert u.shape == shape and u.tobytes() == expected.tobytes(), seed


def test_derive_seeds_equal_derive_seed():
    """Negative bases and bases past 2**64 reduce as the scalar does, and
    the index arithmetic wraps the same up to index 10**6."""
    bases = [-1, -(2**70) - 3, 2**64 + 5, 12345]
    count = 10**6 + 1
    seeds = derive_seeds(bases, count)
    assert seeds.shape == (len(bases), count) and seeds.dtype == np.uint64
    picks = [0, 1, 2, 29, 30, 2**16, 999_999, 10**6] + np.random.default_rng(5).integers(
        0, count, size=100).tolist()
    for row, base in enumerate(bases):
        assert [int(seeds[row, i]) for i in picks] == [derive_seed(base, i) for i in picks]


def reference_shuffle(n, seed):
    """Fisher-Yates over range(n), one splitmix64 draw per swap, each
    drawn from a counter stepped by the golden ratio."""
    idx = np.arange(n, dtype=np.int64)
    state = seed & _MASK
    for i in range(n - 1, 0, -1):
        state = (state + _GOLDEN) & _MASK
        j = _mix(state) % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 400, 2000])
@pytest.mark.parametrize("seed", [0, 1, -5, 2**64 - 1, 123456789012345678901])
def test_shuffled_indices_equal_the_stream_loop(n, seed):
    order = shuffled_indices(n, seed)
    assert order.dtype == np.int64
    np.testing.assert_array_equal(order, reference_shuffle(n, seed))
