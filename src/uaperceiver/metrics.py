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
        if np.abs(p.sum(axis=1) - 1.0).max() > 1e-9:
            raise NumericError("probability rows must sum to 1 within 1e-9")

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]

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


def nelder_mead(f, x0, tol: float = 1e-8, max_iters: int = 500,
                initial_step: float = 0.25) -> np.ndarray:
    """Downhill simplex with the classic 1 / 2 / 0.5 / 0.5 coefficients.

    Stops when every vertex is within ``tol`` (max-norm) of the best
    vertex, or after ``max_iters`` iterations.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    d = x0.size
    simplex = [x0.copy()]
    for i in range(d):
        v = x0.copy()
        v[i] += initial_step if v[i] == 0.0 else initial_step * max(1.0, abs(v[i]))
        simplex.append(v)
    values = [float(f(v)) for v in simplex]
    if not all(np.isfinite(values)):
        raise NumericError("objective non-finite on the initial simplex")

    for _ in range(max_iters):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if max(np.max(np.abs(v - simplex[0])) for v in simplex[1:]) < tol:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        fr = float(f(reflected))
        if fr < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            fe = float(f(expanded))
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            fc = float(f(contracted))
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:  # shrink toward the best vertex
                for i in range(1, len(simplex)):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = float(f(simplex[i]))
    best = int(np.argmin(values))
    return simplex[best]


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
        return nll_from_logits(logits / np.exp(float(z[0])), labels)

    z_star = nelder_mead(objective, np.zeros(1), tol=1e-10, max_iters=200)
    t_star = float(np.exp(z_star[0]))
    if nll_from_logits(logits, labels) <= objective(z_star):
        t_star = 1.0
    return t_star, softmax_rows(logits / t_star)
