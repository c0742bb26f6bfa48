"""Calibration metrics and temperature scaling.

Conventions, fixed here and recorded in every report:

* ECE uses 15 equal-width confidence bins on (0, 1]; a confidence of
  exactly 0 lands in the first bin.
* The Brier score includes a 1/K factor (mean over classes rather than
  sum) -- deliberately different from the classical definition.
* NLL clamps probabilities at 1e-12 before taking logs.
* Accuracy breaks argmax ties toward the lowest class index.

All functions are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, UsageError

PROB_FLOOR = 1e-12
DEFAULT_BINS = 15


@dataclass(frozen=True)
class EvalBatch:
    """Per-sample class probabilities and integer labels."""

    probs: np.ndarray  # n x K, rows sum to 1
    labels: np.ndarray  # n ints in [0, K)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "labels", y)
        if p.ndim != 2 or p.shape[0] < 1:
            raise DimensionError(f"probs must be n x K with n >= 1, got {p.shape}")
        if y.shape != (p.shape[0],):
            raise DimensionError("labels must be one int per probability row")
        if y.min() < 0 or y.max() >= p.shape[1]:
            raise UsageError("labels out of class range")
        # checked first: summing an inf and a -inf entry warns
        if not (np.isfinite(p).all() and np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9):
            raise NumericError("probability rows must be finite and sum to 1 "
                               "within 1e-9")

    @classmethod
    def from_logits(cls, logits, labels) -> "EvalBatch":
        return cls(softmax_rows(logits), labels)


def softmax_rows(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def accuracy(batch: EvalBatch) -> float:
    preds = np.argmax(batch.probs, axis=1)  # lowest index wins ties
    return float(np.mean(preds == batch.labels))


def nll(batch: EvalBatch) -> float:
    p = batch.probs[np.arange(len(batch.labels)), batch.labels]
    return float(np.mean(-np.log(np.maximum(p, PROB_FLOOR))))


@dataclass(frozen=True)
class ReliabilityBins:
    counts: np.ndarray
    mean_confidence: np.ndarray
    mean_accuracy: np.ndarray

    @property
    def num_bins(self) -> int:
        return len(self.counts)


def reliability_bins(batch: EvalBatch, num_bins: int = DEFAULT_BINS
                     ) -> ReliabilityBins:
    """Equal-width bins over confidence, bin b covering ((b-1)/B, b/B]."""
    if num_bins < 1:
        raise UsageError(f"num_bins must be >= 1, got {num_bins}")
    conf = batch.probs.max(axis=1)
    correct = (np.argmax(batch.probs, axis=1) == batch.labels).astype(np.float64)
    counts = np.zeros(num_bins, dtype=np.int64)
    mean_conf = np.zeros(num_bins)
    mean_acc = np.zeros(num_bins)
    for b in range(num_bins):
        lo, hi = b / num_bins, (b + 1) / num_bins
        mask = (conf > lo) & (conf <= hi) if b > 0 else (conf <= hi)
        n_b = int(mask.sum())
        counts[b] = n_b
        if n_b:
            mean_conf[b] = conf[mask].mean()
            mean_acc[b] = correct[mask].mean()
    return ReliabilityBins(counts, mean_conf, mean_acc)


def ece(batch: EvalBatch, num_bins: int = DEFAULT_BINS) -> float:
    bins = reliability_bins(batch, num_bins)
    n = len(batch.labels)
    weights = bins.counts / n
    return float(np.sum(weights * np.abs(bins.mean_accuracy - bins.mean_confidence)))


def brier(batch: EvalBatch) -> float:
    onehot = np.zeros_like(batch.probs)
    onehot[np.arange(len(batch.labels)), batch.labels] = 1.0
    return float(np.mean(np.mean((onehot - batch.probs) ** 2, axis=1)))


# ---- Nelder-Mead ----------------------------------------------------


def nelder_mead(f, x0: float, tol: float = 1e-8, max_iters: int = 500,
                initial_step: float = 0.25) -> float:
    """One-dimensional downhill simplex: two vertices, reflection 1,
    expansion 2, contraction 0.5. A contraction is always taken, since a
    shrink toward the best vertex lands on the same point in one
    dimension. Stops when the vertices are within ``tol``, or after
    ``max_iters`` iterations."""
    best = float(x0)
    worst = best + initial_step * max(1.0, abs(best))
    f_best, f_worst = float(f(best)), float(f(worst))
    if not (np.isfinite(f_best) and np.isfinite(f_worst)):
        raise NumericError("objective non-finite on the initial simplex")

    for _ in range(max_iters):
        if f_worst < f_best:
            best, worst, f_best, f_worst = worst, best, f_worst, f_best
        if abs(worst - best) < tol:
            break
        reflected = best + (best - worst)
        fr = float(f(reflected))
        if fr < f_best:
            expanded = best + 2.0 * (best - worst)
            fe = float(f(expanded))
            worst, f_worst = (expanded, fe) if fe < fr else (reflected, fr)
        else:
            worst = best + 0.5 * (worst - best)
            f_worst = float(f(worst))
    return worst if f_worst < f_best else best


def nll_from_logits(logits, labels) -> float:
    return nll(EvalBatch.from_logits(logits, labels))


def temperature_scale(logits, labels) -> tuple[float, np.ndarray]:
    """Fit T > 0 minimizing NLL of softmax(logits / T).

    The search runs over log T (keeping T positive without constraints)
    and the candidate T = 1 is always evaluated and kept when better, so
    the fitted NLL never exceeds the unscaled NLL.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)

    def objective(z):
        return nll_from_logits(logits / np.exp(z), labels)

    z_star = nelder_mead(objective, 0.0, tol=1e-10, max_iters=200)
    t_star = float(np.exp(z_star))
    if nll_from_logits(logits, labels) <= objective(z_star):
        t_star = 1.0
    return t_star, softmax_rows(logits / t_star)
