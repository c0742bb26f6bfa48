"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: arrays whose last two axes are
matrices, any leading axes being batch axes (images, heads) that
broadcast, and the dozen operations needed to express an attention
network. Every operation validates that its result is finite; NaN/Inf
anywhere is treated as an error state rather than silently propagated.
Shape operations return views; no operation mutates its inputs.
Tensors hold no gradient state: ``backward`` returns the gradients.
"""

from __future__ import annotations

import math
from typing import Sequence

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

    __slots__ = ("data", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, copy=True)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor initialized with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ---- reverse pass ------------------------------------------------

    def backward(self) -> dict["Tensor", np.ndarray]:
        """Backpropagate a scalar loss; returns ``{leaf: gradient}`` for each
        ``requires_grad`` leaf it reaches. Read-only: gradients may alias."""
        if self.data.size != 1:
            raise UsageError(
                f"backward() requires a scalar, got shape {self.data.shape}"
            )
        order = _toposort(self)
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        leaf_grads: dict[Tensor, np.ndarray] = {}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                leaf_grads[node] = g.reshape(node.data.shape)
            if node._backward is not None:
                for parent, contrib in node._backward(g):
                    if parent._backward is None and not parent.requires_grad:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + contrib
                    else:
                        grads[key] = contrib
        return leaf_grads


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
    """Matrix product over the last two axes; leading axes broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul expects matrices, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner extents disagree: {a.data.shape} x {b.data.shape}"
        )
    data = a.data @ b.data

    def backward(g):
        return (
            (a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)),
            (b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)),
        )

    return _result(data, (a, b), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes; by default swap the last two."""
    a = as_tensor(a)
    if axes is None:
        axes = (*range(a.data.ndim - 2), a.data.ndim - 1, a.data.ndim - 2)
    inverse = np.argsort(axes)

    def backward(g):
        return ((a, g.transpose(inverse)),)

    return _result(a.data.transpose(axes), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape

    def backward(g):
        return ((a, g.reshape(old)),)

    return _result(a.data.reshape(shape), (a,), backward)


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
    inner = _GELU_C * (v + _GELU_A * (v * v * v))
    t = np.tanh(inner)
    data = 0.5 * v * (1.0 + t)

    def backward(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * (v * v))
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
    """Mean over the rows (axis -2), kept as a 1-row axis."""
    a = as_tensor(a)
    if a.data.ndim < 2:
        raise DimensionError("mean_rows expects a matrix")
    m = a.data.shape[-2]

    def backward(g):
        return ((a, np.broadcast_to(g / m, a.data.shape).copy()),)

    return _result(a.data.mean(axis=-2, keepdims=True), (a,), backward)


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
