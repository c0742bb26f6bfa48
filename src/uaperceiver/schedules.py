"""Learning-rate schedules for the five training strategies.

Four kinds are supported:

* ``constant`` -- alpha1 at every step.
* ``snapshot_cosine`` -- cosine restarts: a(t) = a0/2 * (cos(pi *
  mod(t-1, c) / c) + 1) with cycle length c = ceil(T/M); the rate
  restarts at a0 at the start of every cycle and its per-cycle minimum
  falls on the cycle's last step.
* ``swa_linear`` -- linear interpolation alpha1 -> alpha2 inside each
  cycle of length c; c = 1 degenerates to a constant alpha1.
* ``fast_cyclic`` -- linear anneal alpha1 -> alpha2 repeated over a
  fixed number of cycles.

``lr_at`` is a pure function of (schedule, step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UsageError

KINDS = ("constant", "snapshot_cosine", "swa_linear", "fast_cyclic")


@dataclass(frozen=True)
class LRSchedule:
    kind: str
    alpha1: float
    alpha2: float = 0.0
    total_steps: int = 1
    cycles_or_c: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError(f"unknown schedule kind {self.kind!r}")
        if not all(0 <= rate < math.inf for rate in (self.alpha1, self.alpha2)):
            raise UsageError(f"learning rates must be finite and >= 0, got "
                             f"{self.alpha1} and {self.alpha2}")
        if self.alpha2 > self.alpha1:
            raise UsageError(f"low rate {self.alpha2} exceeds the initial rate "
                             f"{self.alpha1}")
        if not (self.total_steps >= self.cycles_or_c >= 1):
            raise UsageError(
                f"need total_steps >= cycles_or_c >= 1, got "
                f"{self.total_steps} and {self.cycles_or_c}"
            )

    @property
    def cycle_length(self) -> int:
        if self.kind == "swa_linear":
            return self.cycles_or_c
        if self.kind in ("snapshot_cosine", "fast_cyclic"):
            return math.ceil(self.total_steps / self.cycles_or_c)
        return self.total_steps


def lr_at(schedule: LRSchedule, t: int) -> float:
    """Learning rate at 1-based step t."""
    if not (1 <= t <= schedule.total_steps):
        raise UsageError(
            f"step {t} outside [1, {schedule.total_steps}] for {schedule.kind}"
        )
    a1, a2 = schedule.alpha1, schedule.alpha2
    if schedule.kind == "constant":
        return a1
    c = schedule.cycle_length
    pos = (t - 1) % c
    if schedule.kind == "snapshot_cosine":
        return (a1 / 2.0) * (math.cos(math.pi * pos / c) + 1.0)
    # swa_linear and fast_cyclic share the within-cycle linear ramp
    if c == 1:
        return a1
    frac = pos / (c - 1)
    return a1 + (a2 - a1) * frac


def capture_steps(schedule: LRSchedule) -> list[int]:
    """Steps at the per-cycle learning-rate minima (snapshot/SWA/fast)."""
    c = schedule.cycle_length
    return list(range(c, schedule.total_steps + 1, c))
