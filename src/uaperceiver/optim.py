"""AdamW with decoupled weight decay, operating on a ParamStore."""

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
        if not self.eps > 0.0:
            raise RangeError(f"eps must be > 0, got {self.eps}")
        if not self.weight_decay >= 0.0:
            raise RangeError(f"weight_decay must be >= 0, got {self.weight_decay}")


class AdamWState:
    """Per-parameter first/second moment buffers plus the step counter."""

    def __init__(self, params: ParamStore, settings: AdamWSettings = AdamWSettings()):
        self.settings = settings
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}


def adamw_step(params: ParamStore, grads: dict, state: AdamWState, lr: float) -> None:
    """One in-place AdamW update.

    Weight decay is decoupled: p <- p - lr*wd*p is applied separately
    from the bias-corrected moment update.
    """
    if lr < 0:
        raise NumericError(f"learning rate must be >= 0, got {lr}")
    s = state.settings
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - s.beta1 ** t
    bc2 = 1.0 - s.beta2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise DimensionError(
                f"gradient for {name!r} has shape {g.shape}, expected {p.data.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= s.beta1
        m += (1.0 - s.beta1) * g
        v *= s.beta2
        v += (1.0 - s.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + s.eps)
        p.data -= lr * update
        if s.weight_decay != 0.0:
            p.data -= lr * s.weight_decay * p.data
