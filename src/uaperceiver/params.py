"""Named, ordered parameter collections.

A ParamStore is the unit of checkpointing, weight averaging, and
ensembling: two stores built from the same model configuration are
element-wise combinable.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .errors import DimensionError, UsageError
from .tensor import Tensor


class ParamStore:
    def __init__(self):
        self._items: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._items:
            raise UsageError(f"duplicate parameter name {name!r}")
        self._items[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._items[name]

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def names(self) -> list[str]:
        return list(self._items.keys())

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._items.items())

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def num_scalars(self) -> int:
        return sum(t.size for t in self._items.values())

    def copy(self, requires_grad: bool | None = None) -> "ParamStore":
        out = ParamStore()
        for name, t in self._items.items():
            rg = t.requires_grad if requires_grad is None else requires_grad
            out.add(name, Tensor(t.data, requires_grad=rg))
        return out

    def detached(self) -> "ParamStore":
        return self.copy(requires_grad=False)

    def shapes(self) -> dict[str, tuple]:
        return {name: t.shape for name, t in self._items.items()}

    def check_shapes(self, expected: dict[str, tuple]) -> None:
        """DimensionError naming the first tensor that is missing, extra or
        shaped unlike ``expected`` (name -> shape); order is ignored."""
        for name, shape in expected.items():
            if name not in self._items:
                raise DimensionError(f"tensor {name!r} is missing, expected {shape}")
            if self._items[name].shape != shape:
                raise DimensionError(f"tensor {name!r} has shape "
                                     f"{self._items[name].shape}, expected {shape}")
        for name in self._items:
            if name not in expected:
                raise DimensionError(f"tensor {name!r} is not expected")

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "ParamStore":
        out = ParamStore()
        for name, t in self._items.items():
            out.add(name, Tensor(fn(t.data), requires_grad=False))
        return out

    def map2(
        self, other: "ParamStore", fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> "ParamStore":
        other.check_shapes(self.shapes())
        out = ParamStore()
        for name, t in self._items.items():
            out.add(name, Tensor(fn(t.data, other[name].data), requires_grad=False))
        return out

    def allclose(self, other: "ParamStore", atol: float = 0.0) -> bool:
        other.check_shapes(self.shapes())
        return all(np.allclose(t.data, other[name].data, atol=atol, rtol=0.0)
                   for name, t in self._items.items())


def swa_update(w_avg: ParamStore, n_models: int, w: ParamStore) -> ParamStore:
    """Fold one more iterate into a running mean of weights."""
    if n_models < 1:
        raise UsageError(f"n_models must be >= 1, got {n_models}")
    return w_avg.map2(w, lambda a, b: (a * n_models + b) / (n_models + 1))
