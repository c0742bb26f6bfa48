"""Calibration metrics against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uaperceiver as ua
from uaperceiver.errors import DimensionError, NumericError, UsageError
from uaperceiver.metrics import (
    DEFAULT_BINS,
    PROB_FLOOR,
    nll_from_logits,
    softmax_rows,
)


def random_batch(seed, n=1000, k=5):
    rng = np.random.default_rng(seed)
    probs = softmax_rows(rng.normal(size=(n, k), scale=2.0))
    labels = rng.integers(0, k, size=n)
    return ua.EvalBatch(probs, labels)


# ---- brute-force oracles ---------------------------------------------


def oracle_nll(probs, labels):
    out = 0.0
    for i, y in enumerate(labels):
        out += -math.log(max(probs[i, y], PROB_FLOOR))
    return out / len(labels)


def oracle_brier(probs, labels):
    n, k = probs.shape
    out = 0.0
    for i in range(n):
        for c in range(k):
            target = 1.0 if c == labels[i] else 0.0
            out += (target - probs[i, c]) ** 2
    return out / (n * k)


def oracle_ece(probs, labels, num_bins=DEFAULT_BINS):
    n = len(labels)
    assigned = [[] for _ in range(num_bins)]
    for i in range(n):
        conf = max(probs[i])
        pred = int(np.argmax(probs[i]))
        for b in range(num_bins):
            lo, hi = b / num_bins, (b + 1) / num_bins
            inside = conf <= hi if b == 0 else (conf > lo and conf <= hi)
            if inside:
                assigned[b].append((conf, 1.0 if pred == labels[i] else 0.0))
                break
    # bin assignment above is the independently derived logic; the bin
    # means/weighted sum reuse numpy's pairwise summation so that exact
    # equality with the production code is well-defined
    contributions = np.zeros(num_bins)
    for b, members in enumerate(assigned):
        if not members:
            continue
        confs = np.array([c for c, _ in members])
        accs = np.array([a for _, a in members])
        contributions[b] = (len(members) / n) * abs(accs.mean() - confs.mean())
    return float(np.sum(contributions))


# ---- EvalBatch -------------------------------------------------------


def test_eval_batch_validation():
    for row in ([0.5, 0.6], [np.nan, 1.0], [np.inf, 0.0], [np.inf, -np.inf]):
        with pytest.raises(NumericError):
            ua.EvalBatch(np.array([row]), [0])
    with pytest.raises(UsageError):
        ua.EvalBatch(np.array([[0.5, 0.5]]), [2])
    with pytest.raises(DimensionError):
        ua.EvalBatch(np.array([0.5, 0.5]), [0])


def test_eval_batch_from_logits():
    logits = np.array([[1.0, 2.0], [0.0, 0.0]])
    batch = ua.EvalBatch.from_logits(logits, [0, 1])
    np.testing.assert_allclose(batch.probs.sum(axis=1), [1.0, 1.0], atol=1e-12)


# ---- nll -------------------------------------------------------------


def test_nll_perfect_prediction():
    batch = ua.EvalBatch(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 1])
    assert ua.nll(batch) == 0.0


def test_nll_uniform_binary():
    batch = ua.EvalBatch(np.full((4, 2), 0.5), [0, 1, 0, 1])
    assert abs(ua.nll(batch) - math.log(2)) < 1e-12
    assert abs(ua.nll(batch) - 0.693147) < 1e-6


def test_nll_clamps_zero_probability():
    batch = ua.EvalBatch(np.array([[1.0, 0.0]]), [1])
    assert abs(ua.nll(batch) - (-math.log(PROB_FLOOR))) < 1e-9


def test_nll_loop_oracle():
    batch = random_batch(0, n=200)
    assert abs(ua.nll(batch) - oracle_nll(batch.probs, batch.labels)) < 1e-12


# ---- accuracy --------------------------------------------------------


def test_accuracy_all_correct_and_all_wrong():
    probs = np.array([[0.9, 0.1], [0.2, 0.8]])
    assert ua.accuracy(ua.EvalBatch(probs, [0, 1])) == 1.0
    assert ua.accuracy(ua.EvalBatch(probs, [1, 0])) == 0.0


def test_accuracy_tie_breaks_to_lowest_index():
    batch = ua.EvalBatch(np.array([[0.5, 0.5]]), [0])
    assert ua.accuracy(batch) == 1.0
    batch = ua.EvalBatch(np.array([[0.5, 0.5]]), [1])
    assert ua.accuracy(batch) == 0.0


# ---- ece / reliability bins -----------------------------------------


def test_ece_confident_and_correct_is_zero():
    probs = np.zeros((10, 3))
    probs[:, 1] = 1.0
    batch = ua.EvalBatch(probs, np.ones(10, dtype=int))
    assert ua.ece(batch) == 0.0


def test_ece_single_wrong_sample():
    batch = ua.EvalBatch(np.array([[0.7, 0.3]]), [1])
    assert abs(ua.ece(batch) - 0.7) < 1e-15


def test_ece_brute_force_oracle_exact():
    batch = random_batch(1, n=1000)
    assert ua.ece(batch) == oracle_ece(batch.probs, batch.labels)


def test_reliability_bins_counts_sum():
    batch = random_batch(2, n=500)
    bins = ua.reliability_bins(batch)
    assert bins.num_bins == DEFAULT_BINS
    assert bins.counts.sum() == 500


def test_reliability_bins_boundary_confidences():
    # confidence exactly on a bin edge belongs to the lower bin (bins
    # are half-open (lo, hi]); 0.2 with B=5 lands in the first bin
    probs = np.array([[0.2, 0.2, 0.2, 0.2, 0.2]])
    bins = ua.reliability_bins(ua.EvalBatch(probs, [0]), num_bins=5)
    assert bins.counts[0] == 1
    assert bins.counts[1] == 0


# ---- brier -----------------------------------------------------------


def test_brier_one_hot_correct_is_zero():
    batch = ua.EvalBatch(np.array([[0.0, 1.0, 0.0]]), [1])
    assert ua.brier(batch) == 0.0


def test_brier_uniform_binary():
    # ((1-0.5)^2 + (0-0.5)^2) / K with K=2
    batch = ua.EvalBatch(np.array([[0.5, 0.5]]), [0])
    assert abs(ua.brier(batch) - 0.25) < 1e-15


def test_brier_double_loop_oracle():
    batch = random_batch(3, n=300)
    assert abs(ua.brier(batch) - oracle_brier(batch.probs, batch.labels)) < 1e-12


# ---- permutation invariance -----------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_metrics_row_permutation_invariant(seed):
    batch = random_batch(seed, n=50, k=3)
    perm = np.random.default_rng(seed + 1).permutation(50)
    shuffled = ua.EvalBatch(batch.probs[perm], batch.labels[perm])
    assert abs(ua.nll(batch) - ua.nll(shuffled)) < 1e-12
    assert abs(ua.accuracy(batch) - ua.accuracy(shuffled)) < 1e-12
    assert abs(ua.ece(batch) - ua.ece(shuffled)) < 1e-12
    assert abs(ua.brier(batch) - ua.brier(shuffled)) < 1e-12


# ---- nelder-mead -----------------------------------------------------


def test_nelder_mead_1d_quadratic():
    x = ua.nelder_mead(lambda v: (v - 2.0) ** 2, 0.0)
    assert abs(x - 2.0) < 1e-4


def test_nelder_mead_absolute_value():
    x = ua.nelder_mead(lambda v: abs(v), 5.0)
    assert abs(x) < 1e-3


def test_nelder_mead_rejects_non_finite_start():
    with pytest.raises(NumericError):
        ua.nelder_mead(lambda v: float("nan"), 0.0)


# ---- temperature scaling ---------------------------------------------


def calibrated_logits(seed, n=2000, k=4):
    """Labels drawn from the softmax of the logits themselves, so the
    logits are exact log-probabilities of a calibrated source."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, k), scale=1.5)
    probs = softmax_rows(logits)
    labels = np.array([rng.choice(k, p=p) for p in probs])
    return logits, labels


def grid_oracle_temperature(logits, labels):
    grid = np.exp(np.linspace(math.log(0.05), math.log(10.0), 4000))
    nlls = [nll_from_logits(logits / t, labels) for t in grid]
    return float(grid[int(np.argmin(nlls))])


def test_temperature_never_hurts():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(100, 3), scale=3.0)
        labels = rng.integers(0, 3, size=100)
        t_star, _ = ua.temperature_scale(logits, labels)
        assert nll_from_logits(logits / t_star, labels) <= nll_from_logits(
            logits, labels
        ) + 1e-15


def test_temperature_near_one_when_calibrated():
    logits, labels = calibrated_logits(0)
    t_star, _ = ua.temperature_scale(logits, labels)
    t_grid = grid_oracle_temperature(logits, labels)
    assert abs(t_star - 1.0) < 0.05
    assert abs(t_grid - 1.0) < 0.05


def test_temperature_recovers_overconfidence_factor():
    logits, labels = calibrated_logits(1)
    scaled = logits * 10.0
    t_star, probs = ua.temperature_scale(scaled, labels)
    t_grid = grid_oracle_temperature(scaled, labels)
    assert abs(t_star - 10.0) / 10.0 < 0.1
    assert abs(t_star - t_grid) / t_grid < 0.1
    before = ua.ece(ua.EvalBatch.from_logits(scaled, labels))
    after = ua.ece(ua.EvalBatch(probs, labels))
    assert after < before


def test_temperature_preserves_accuracy():
    logits, labels = calibrated_logits(2, n=300)
    t_star, probs = ua.temperature_scale(logits * 4.0, labels)
    base = ua.accuracy(ua.EvalBatch.from_logits(logits, labels))
    scaled = ua.accuracy(ua.EvalBatch(probs, labels))
    assert base == scaled
