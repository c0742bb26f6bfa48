"""AdamW with decoupled weight decay, fused over a ParamStore's vector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, RangeError
from .params import ParamStore


@dataclass(frozen=True)
class AdamWSettings:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01

    def __post_init__(self):
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= beta < 1.0:
                raise RangeError(f"{name} must lie in [0, 1), got {beta}")
        if not 0.0 < self.eps < np.inf:
            raise RangeError(f"eps must lie in (0, inf), got {self.eps}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise RangeError(
                f"weight_decay must lie in [0, inf), got {self.weight_decay}")


class AdamWState:
    """First/second moment vectors in the store's layout, and the step count."""

    def __init__(self, params: ParamStore, settings: AdamWSettings = AdamWSettings()):
        self.settings = settings
        self.step_count = 0
        self.m = np.zeros_like(params.vector)
        self.v = np.zeros_like(params.vector)


def adamw_step(params: ParamStore, grad_vector: np.ndarray, state: AdamWState,
               lr: float) -> None:
    """One in-place AdamW update of ``params.vector`` by ``grad_vector``, a
    gradient of the same layout, in about ten array operations. Weight
    decay is decoupled: p <- p - lr*wd*p is applied separately from the
    bias-corrected moment update. An update that leaves a parameter
    non-finite raises ``NumericError`` naming the step, not a numpy
    warning."""
    if lr < 0:
        raise NumericError(f"learning rate must be >= 0, got {lr}")
    p, g = params.vector, grad_vector
    if g.shape != p.shape:
        raise DimensionError(f"gradient vector has shape {g.shape}, expected {p.shape}")
    if not np.all(np.isfinite(g)):
        name = params.first_nonfinite(g)
        raise NumericError(f"non-finite gradient for parameter {name!r}")
    s, m, v = state.settings, state.m, state.v
    state.step_count += 1
    t = state.step_count
    # overflow shows as a non-finite parameter, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        m *= s.beta1
        m += (1.0 - s.beta1) * g
        v *= s.beta2
        v += (1.0 - s.beta2) * g * g
        p -= lr * ((m / (1.0 - s.beta1 ** t)) / (np.sqrt(v / (1.0 - s.beta2 ** t)) + s.eps))
        if s.weight_decay != 0.0:
            p -= lr * s.weight_decay * p
    if not np.all(np.isfinite(p)):
        raise NumericError(f"AdamW step {t} made parameter "
                           f"{params.first_nonfinite(p)!r} non-finite")
