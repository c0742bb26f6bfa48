"""One flat parameter vector with named views.

A ParamStore is the unit of checkpointing, weight averaging and
ensembling: one contiguous float64 ``vector`` and a named Tensor view of
each slice of it, laid out in the order of its shapes (for a model, that
of ``model.param_shapes``). Stores of one layout combine as whole arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Callable, Iterator

import numpy as np

from .errors import DimensionError, NumericError, UsageError
from .tensor import Tensor, view_leaf


class ParamStore:
    """``shapes`` (name -> shape, in layout order) over a copy of
    ``vector``, which must be finite and hold exactly as many scalars."""

    def __init__(self, shapes: dict[str, tuple], vector, requires_grad: bool = False):
        self.vector = np.array(vector, dtype=np.float64)
        self.requires_grad = requires_grad
        self._shapes = {name: tuple(shape) for name, shape in shapes.items()}
        sizes = [math.prod(shape) for shape in self._shapes.values()]
        self._ends = list(accumulate(sizes))
        if self.vector.shape != (sum(sizes),):
            raise DimensionError(f"parameter vector has shape {self.vector.shape}, "
                                 f"expected ({sum(sizes)},)")
        parts = np.split(self.vector, self._ends[:-1])  # views, in layout order
        self._items = {name: view_leaf(part.reshape(shape), requires_grad)
                       for (name, shape), part in zip(self._shapes.items(), parts)}
        if not np.all(np.isfinite(self.vector)):
            raise NumericError(f"parameter {self.first_nonfinite(self.vector)!r} "
                               "holds non-finite values")

    def __reduce__(self):  # pickle the vector once, not each view's copy
        return ParamStore, (self._shapes, self.vector, self.requires_grad)

    def __getitem__(self, name: str) -> Tensor:
        return self._items[name]

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def names(self) -> list[str]:
        return list(self._items)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._items.items())

    def first_nonfinite(self, values: np.ndarray) -> str:
        """The tensor at the first non-finite entry of ``values`` (this layout)."""
        index = int(np.argmin(np.isfinite(values)))
        return self.names()[bisect_right(self._ends, index)]

    def num_scalars(self) -> int:
        return self.vector.size

    def copy(self, requires_grad: bool | None = None) -> "ParamStore":
        rg = self.requires_grad if requires_grad is None else requires_grad
        return ParamStore(self._shapes, self.vector, rg)

    def detached(self) -> "ParamStore":
        return self.copy(requires_grad=False)

    def shapes(self) -> dict[str, tuple]:
        return dict(self._shapes)

    def check_shapes(self, expected: dict[str, tuple]) -> None:
        """DimensionError naming the first tensor that is missing, extra,
        shaped unlike ``expected`` (name -> shape) or out of its order."""
        for name, shape in expected.items():
            if name not in self._shapes:
                raise DimensionError(f"tensor {name!r} is missing, expected {shape}")
            if self._shapes[name] != shape:
                raise DimensionError(f"tensor {name!r} has shape "
                                     f"{self._shapes[name]}, expected {shape}")
        for name, want in zip(self._shapes, [*expected, None]):
            if name != want:
                raise DimensionError(f"tensor {name!r} " + (
                    f"is out of order: expected {want!r} in its place"
                    if name in expected else "is not expected"))

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "ParamStore":
        return ParamStore(self._shapes, fn(self.vector))

    def map2(self, other: "ParamStore",
             fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "ParamStore":
        other.check_shapes(self._shapes)
        return ParamStore(self._shapes, fn(self.vector, other.vector))

    def allclose(self, other: "ParamStore", atol: float = 0.0) -> bool:
        other.check_shapes(self._shapes)
        return np.allclose(self.vector, other.vector, atol=atol, rtol=0.0)


def swa_update(w_avg: ParamStore, n_models: int, w: ParamStore) -> ParamStore:
    """Fold one more iterate into a running mean of weights."""
    if n_models < 1:
        raise UsageError(f"n_models must be >= 1, got {n_models}")
    return w_avg.map2(w, lambda a, b: (a * n_models + b) / (n_models + 1))
