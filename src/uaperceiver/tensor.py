"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: 2-D matrices (plus vectors) and the
dozen operations needed to express an attention network. Every operation
validates that its result is finite; NaN/Inf anywhere is treated as an
error state rather than silently propagated.

Gradients accumulate into ``Tensor.grad`` on every ``backward`` call;
resetting between optimizer steps is the caller's responsibility.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, NumericError, UsageError

_LN_EPS_MIN = 0.0  # layer_norm requires eps > 0

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


class Tensor:
    """A node in the computation graph.

    Leaf tensors carry ``requires_grad``; interior nodes are created by
    the op helpers below and remember how to push gradients back to
    their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, copy=True)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor initialized with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if self.requires_grad else None
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def detached(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ---- reverse pass ------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar loss through the whole graph."""
        if self.data.size != 1:
            raise UsageError(
                f"backward() requires a scalar, got shape {self.data.shape}"
            )
        order = _toposort(self)
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad += g.reshape(node.data.shape)
            if node._backward is not None:
                for parent, contrib in node._backward(g):
                    if parent._backward is None and not parent.requires_grad:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + contrib
                    else:
                        grads[key] = contrib


def _toposort(root: Tensor) -> list:
    """Reverse topological order, iterative to tolerate deep graphs."""
    order: list = []
    seen: set = set()
    stack: list = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    order.reverse()
    return order


def _result(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Build an interior node; prune the graph when no parent needs grads."""
    needs = any(p.requires_grad or p._backward is not None for p in parents)
    out = Tensor.__new__(Tensor)
    if not np.all(np.isfinite(data)):
        raise NumericError("operation produced non-finite values")
    out.data = data
    out.requires_grad = False
    out.grad = None
    if needs:
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---- arithmetic ------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        return ((a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(g, b.data.shape)))

    return _result(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        return (
            (a, _unbroadcast(g * b.data, a.data.shape)),
            (b, _unbroadcast(g * a.data, b.data.shape)),
        )

    return _result(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def backward(g):
        return ((a, g * c),)

    return _result(a.data * c, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(
            f"matmul expects matrices, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul inner extents disagree: {a.data.shape} x {b.data.shape}"
        )
    data = a.data @ b.data

    def backward(g):
        return ((a, g @ b.data.T), (b, a.data.T @ g))

    return _result(data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        return ((a, g.T),)

    return _result(a.data.T.copy(), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape

    def backward(g):
        return ((a, g.reshape(old)),)

    return _result(a.data.reshape(shape).copy(), (a,), backward)


def cols(a: Tensor, j0: int, j1: int) -> Tensor:
    """Column slice [:, j0:j1] of a matrix."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError("cols expects a matrix")

    def backward(g):
        full = np.zeros_like(a.data)
        full[:, j0:j1] = g
        return ((a, full),)

    return _result(a.data[:, j0:j1].copy(), (a,), backward)


def concat_cols(parts: Iterable[Tensor]) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    widths = [p.data.shape[1] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=1)

    def backward(g):
        out = []
        j = 0
        for p, w in zip(parts, widths):
            out.append((p, g[:, j : j + w]))
            j += w
        return tuple(out)

    return _result(data, parts, backward)


# ---- nonlinearities --------------------------------------------------


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis, computed with max-subtraction."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return ((x, s * (g - dot)),)

    return _result(s, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation (GPT-2 convention)."""
    x = as_tensor(x)
    v = x.data
    inner = _GELU_C * (v + _GELU_A * v ** 3)
    t = np.tanh(inner)
    data = 0.5 * v * (1.0 + t)

    def backward(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * v ** 2)
        local = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t ** 2) * du
        return ((x, g * local),)

    return _result(data, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize along the last axis (1/D variance), then scale and shift."""
    if eps <= _LN_EPS_MIN:
        raise UsageError(f"layer_norm eps must be positive, got {eps}")
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise DimensionError(
            f"layer_norm gamma/beta must have shape ({d},), got "
            f"{gamma.data.shape} and {beta.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gamma.data + beta.data

    def backward(g):
        gxhat = g * gamma.data
        mean_g = gxhat.mean(axis=-1, keepdims=True)
        mean_gx = (gxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gxhat - mean_g - xhat * mean_gx)
        axes = tuple(range(g.ndim - 1))
        ggamma = (g * xhat).sum(axis=axes) if axes else g * xhat
        gbeta = g.sum(axis=axes) if axes else g
        return ((x, gx), (gamma, ggamma), (beta, gbeta))

    return _result(data, (x, gamma, beta), backward)


# ---- reductions and losses ------------------------------------------


def total(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    a = as_tensor(a)

    def backward(g):
        return ((a, np.full_like(a.data, float(g))),)

    return _result(np.asarray(a.data.sum()), (a,), backward)


def mean_rows(a: Tensor) -> Tensor:
    """Mean over rows of a matrix; returns a 1 x D matrix."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError("mean_rows expects a matrix")
    m = a.data.shape[0]

    def backward(g):
        return ((a, np.broadcast_to(g / m, a.data.shape).copy()),)

    return _result(a.data.mean(axis=0, keepdims=True), (a,), backward)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under row softmax."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2 or labels.shape != (logits.data.shape[0],):
        raise DimensionError(
            f"cross_entropy got logits {logits.data.shape} and labels {labels.shape}"
        )
    n = logits.data.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    data = np.asarray(-logp[np.arange(n), labels].mean())

    def backward(g):
        p = np.exp(logp)
        p[np.arange(n), labels] -= 1.0
        return ((logits, p * (float(g) / n)),)

    return _result(data, (logits,), backward)
