"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: arrays whose last two axes are
matrices, any leading axes being batch axes (images, heads) that
broadcast, and the dozen operations needed to express an attention
network. ``linear`` and ``attention`` are fused single nodes, so a
layer's graph holds only what its backward reads. Every operation
validates that its result is finite; NaN/Inf anywhere is treated as an
error state rather than silently propagated. Shape operations return
views. Operations compute in place only on arrays they allocated: none
writes into its inputs or into a gradient it receives, since gradients
may alias. Tensors hold no gradient state: ``backward`` returns the
gradients. A node's backward gives None to a parent needing no gradient.
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
                    if not _needs_grad(parent):
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


def _needs_grad(t: Tensor) -> bool:  # a trainable leaf or a path to one
    return t.requires_grad or t._backward is not None


def _result(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Build an interior node; prune the graph when no parent needs grads."""
    needs = any(_needs_grad(p) for p in parents)
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
        ga = (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
              if _needs_grad(a) else None)
        gb = (_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
              if _needs_grad(b) else None)
        return ((a, ga), (b, gb))

    return _result(data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node: the bias is added in place."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if (x.data.ndim < 2 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise DimensionError(
            f"linear got x {x.data.shape}, w {w.data.shape} and b {b.data.shape}"
        )
    data = x.data @ w.data
    data += b.data

    def backward(g):
        gx = _unbroadcast(g @ w.data.T, x.data.shape) if _needs_grad(x) else None
        return (
            (x, gx),
            (w, _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.data.shape)),
            (b, _unbroadcast(g, b.data.shape)),
        )

    return _result(data, (x, w, b), backward)


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


def _softmax_(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis with max-subtraction, overwriting ``x``."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _softmax_grad_(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Gradient through softmax output ``s``, overwriting ``g``."""
    dot = (g * s).sum(axis=-1, keepdims=True)
    g -= dot
    g *= s
    return g


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis, computed with max-subtraction."""
    x = as_tensor(x)
    s = _softmax_(x.data.copy())

    def backward(g):
        return ((x, _softmax_grad_(g.copy(), s)),)

    return _result(s, (x,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    q is (..., N, D), k and v are (..., M, D); leading axes broadcast, so
    one unbatched query set can attend to a batch of keys. Each head sees
    D / heads features and the head outputs are concatenated. Only the
    attention probabilities are kept for the backward pass.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    d = q.data.shape[-1]
    if (q.data.ndim < 2 or k.data.ndim < 2 or k.data.shape[-1] != d
            or v.data.shape != k.data.shape or d % heads != 0):
        raise DimensionError(
            f"attention got q {q.data.shape}, k {k.data.shape}, v {v.data.shape} "
            f"with {heads} heads"
        )
    dh = d // heads
    c = 1.0 / math.sqrt(dh)

    def split(a):
        """(..., rows, D) -> (..., H, rows, dh), a view."""
        return np.swapaxes(a.reshape(*a.shape[:-1], heads, dh), -2, -3)

    def merge(a):
        """(..., H, rows, dh) -> (..., rows, D)."""
        a = np.swapaxes(a, -2, -3)
        return a.reshape(*a.shape[:-2], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    p = qh @ np.swapaxes(kh, -1, -2)
    p *= c
    if not np.all(np.isfinite(p)):
        raise NumericError("attention produced non-finite scores")
    _softmax_(p)

    def backward(g):
        gh = split(g)
        dvh = np.swapaxes(p, -1, -2) @ gh
        ds = _softmax_grad_(gh @ np.swapaxes(vh, -1, -2), p)
        ds *= c
        dqh = ds @ kh
        dkh = np.swapaxes(np.swapaxes(qh, -1, -2) @ ds, -1, -2)
        return (
            (q, merge(_unbroadcast(dqh, qh.shape))),
            (k, merge(_unbroadcast(dkh, kh.shape))),
            (v, merge(_unbroadcast(dvh, vh.shape))),
        )

    return _result(merge(p @ vh), (q, k, v), backward)


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation (GPT-2 convention)."""
    x = as_tensor(x)
    v = x.data
    t = v * v
    t *= v
    t *= _GELU_A
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    data = t + 1.0  # halving is exact, so this is 0.5 * v * (1 + t) to the bit
    data *= v
    data *= 0.5

    def backward(g):
        du = v * v
        du *= 3.0 * _GELU_A
        du += 1.0
        du *= _GELU_C
        tail = t * t
        np.subtract(1.0, tail, out=tail)
        tail *= 0.5 * v
        tail *= du
        local = np.add(t, 1.0, out=du)
        local *= 0.5
        local += tail
        local *= g
        return ((x, local),)

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
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / d + eps)
    xhat *= inv
    data = xhat * gamma.data
    data += beta.data

    def backward(g):
        axes = tuple(range(g.ndim - 1))
        tmp = g * xhat
        ggamma = tmp.sum(axis=axes)
        gx = g * gamma.data
        mean_g = gx.mean(axis=-1, keepdims=True)
        np.multiply(gx, xhat, out=tmp)
        mean_gx = tmp.mean(axis=-1, keepdims=True)
        gx -= mean_g
        np.multiply(xhat, mean_gx, out=tmp)
        gx -= tmp
        gx *= inv
        return ((x, gx), (gamma, ggamma), (beta, g.sum(axis=axes)))

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
