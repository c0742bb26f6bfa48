"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: arrays whose last two axes are
matrices, any leading axes being batch axes (images, heads) that
broadcast, and the dozen operations needed to express an attention
network. ``linear`` and ``attention`` are fused single nodes, and so is
each pre-norm sub-block of a Perceiver: ``prenorm_attention`` (x plus the
out-projected attention over layer_norm(x), for self-attention or a
cross-attend's query side) and ``prenorm_mlp`` (x plus the GELU MLP over
layer_norm(x)). Every op computes through private array kernels that the
primitive and the fused ops share, so a sub-block's node and the same
sub-block built from primitive ops agree to the bit. A sub-block node
keeps what is costly to recompute (layer norm's ``xhat`` and ``inv``, the
attention probabilities and output, the MLP's pre-activation and tanh
term) and its backward recomputes the cheap products from them: the
normalized input, the q, k and v projections and the GELU output
(selective recomputation, Korthikanti et al. 2022, arXiv:2205.05198). It
adds the normalized input's gradient as (from q + from k) + from v, the
grouping separate nodes give. A node is kept apart from the value it
produced, so a graph holds only what its backward reads: an op's result
holds its array and a ``_node``, which holds its parents' graph entries
(a trainable leaf is its own, a constant has none) and a closure over
the arrays and shapes its backward reads; a result no backward reads,
such as a residual sum, is freed when the forward drops it. Every
operation validates that its result is finite; NaN/Inf anywhere is
treated as an error state rather than silently propagated. A sub-block
node also checks its q, k and v and its attention scores; any other
non-finite intermediate reaches its result, which raises the same
message. Shape operations return views. Operations compute in place
only on arrays they allocated: none writes into its inputs or into a
gradient it receives, since gradients may alias. Tensors hold no
gradient state: ``backward`` returns the gradients. A node's backward
returns its parents' gradients in order, None to one needing no gradient.
``backward`` is one-shot: it drops each node's closure and parents once
the node has pushed its gradient, so a graph's arrays are freed as the
backward goes and a training step peaks at its forward graph plus one
node's backward arrays; a consumed graph cannot be backpropagated again.
Reductions call their ufunc reducers (``np.add.reduce``, ...) directly and
finiteness is ``np.isfinite(x).all()``: numpy's Python wrappers, such as
``ndarray.mean`` and ``np.all``, cost 2-6 us a call, a real share of a node.
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
    """A value in the computation graph: a leaf (``requires_grad`` if
    trainable) or an op's result, whose ``_node`` is its graph entry."""

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, copy=True)
        if not np.isfinite(arr).all():
            raise NumericError("tensor initialized with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._node = None

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
        ``requires_grad`` leaf it reaches. Read-only: gradients may alias.

        One-shot: each node drops its backward closure and its parents
        once it has pushed its gradient, so a saved array is freed as
        soon as the last backward reading it has run. A second call, or
        the backward of a new graph that reaches a consumed node, raises
        UsageError; leaves are never consumed."""
        if self.data.size != 1:
            raise UsageError(
                f"backward() requires a scalar, got shape {self.data.shape}"
            )
        root = _entry(self)
        order = _toposort(root)
        grads: dict[int, np.ndarray] = {id(root): np.ones_like(self.data)}
        leaf_grads: dict[Tensor, np.ndarray] = {}
        with quiet_overflow():
            while order:
                node = order.pop()
                g = grads.pop(id(node))
                if type(node) is Tensor:  # a trainable leaf
                    leaf_grads[node] = g.reshape(node.data.shape)
                    continue
                parents, backward = node.parents, node.backward
                node.parents = node.backward = None  # consumed
                for parent, contrib in zip(parents, backward(g)):
                    if parent is not None:  # None: a constant
                        key = id(parent)
                        grads[key] = grads[key] + contrib if key in grads else contrib
        return leaf_grads


class _Node:
    """An op's result's graph entry: its parents' entries and its backward
    closure, both None once consumed."""

    __slots__ = ("parents", "backward")

    def __init__(self, parents: tuple, backward):
        self.parents, self.backward = parents, backward


def _entry(t: Tensor):
    """``t``'s graph entry, or None for a constant. A consumed node stays an
    entry, so a new graph reaching it fails rather than pruning it."""
    return t if t.requires_grad else t._node


def _toposort(root) -> list:
    """Graph entries in topological order, the root last, iterative to
    tolerate deep graphs; a consumed node is a UsageError here, before
    any backward runs."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node is None or id(node) in seen:  # a constant, or a node seen
            continue
        parents = () if type(node) is Tensor else node.parents
        if parents is None:
            raise UsageError("backward() reached a graph node whose backward "
                             "already ran; build the loss again")
        seen.add(id(node))
        stack.append((node, True))
        for p in parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def quiet_overflow():
    """numpy's floating-point warnings off, entered once per forward (by
    the model) and once per backward, not per op: each node's finiteness
    check then reports an overflow as its one NumericError."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def view_leaf(data: np.ndarray, requires_grad: bool) -> Tensor:
    """A leaf over ``data`` itself: neither copied nor checked, so the
    caller vouches that it is float64 and finite."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = requires_grad
    out._node = None
    return out


def _result(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """An op's result; it gets a node unless no parent needs a gradient."""
    out = view_leaf(_finite(data), False)
    entries = tuple([p if p.requires_grad else p._node for p in parents])  # each _entry
    if entries != (None,) * len(entries):
        out._node = _Node(entries, backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = np.add.reduce(g, axis=axis, keepdims=True)
    return g.reshape(shape)


def _mean(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """``a.mean(axis=axis, keepdims=True)``, bit for bit."""
    out = np.add.reduce(a, axis=axis, keepdims=True)
    out /= a.shape[axis]
    return out


# ---- kernels: the array arithmetic of the ops ------------------------
# A primitive op and a pre-norm sub-block compute through the same
# kernels, so their results and gradients agree to the bit.


def _finite(data: np.ndarray) -> np.ndarray:
    if not np.isfinite(data).all():
        raise NumericError("operation produced non-finite values")
    return data


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    data = x @ w
    data += b
    return data


def _linear_grads(g, x, w, sx: tuple):
    """(dx, dw, db) of ``x @ w + b`` for x of shape ``sx``: dx is None when
    ``w`` is, and dw when ``x`` is. dw comes first, so an ``x`` recomputed
    for this call alone is freed before dx is allocated."""
    dw = None if x is None else _unbroadcast(np.swapaxes(x, -1, -2) @ g,
                                              (x.shape[-1], g.shape[-1]))
    del x
    return (None if w is None else _unbroadcast(g @ w.T, sx), dw,
            _unbroadcast(g, g.shape[-1:]))


def _normalize(x: np.ndarray, eps: float):
    """(xhat, inv): ``x`` normalized along its last axis, and
    1 / sqrt(var + eps)."""
    xhat = x - _mean(x)
    inv = _mean(xhat * xhat)
    inv += eps
    np.divide(1.0, np.sqrt(inv, out=inv), out=inv)  # in place
    xhat *= inv
    return xhat, inv


def _scale_shift(xhat: np.ndarray, gam: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Layer norm's output from ``xhat``."""
    data = xhat * gam
    data += beta
    return data


def _norm_grads(g, xhat, inv, gam):
    """(dx, dgamma, dbeta) of layer norm."""
    axes = tuple(range(g.ndim - 1))
    tmp = g * xhat
    ggamma = np.add.reduce(tmp, axis=axes)
    gx = g * gam
    np.multiply(gx, xhat, out=tmp)
    mean_gx = _mean(tmp)
    gx -= _mean(gx)
    np.multiply(xhat, mean_gx, out=tmp)
    gx -= tmp
    gx *= inv
    return gx, ggamma, np.add.reduce(g, axis=axes)


def _softmax_(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis with max-subtraction, overwriting ``x``."""
    x -= np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=-1, keepdims=True)
    return x


def _softmax_grad_(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Gradient through softmax output ``s``, overwriting ``g``. The row
    sums of ``g * s`` are formed one leading-axis slice at a time, so the
    product is never held whole."""
    if g.ndim < 3:
        rows = np.add.reduce(g * s, axis=-1, keepdims=True)
    else:
        rows = np.empty((*g.shape[:-1], 1))
        for gi, si, out in zip(g, s, rows):
            np.add.reduce(gi * si, axis=-1, keepdims=True, out=out)
    g -= rows
    g *= s
    return g


def _heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., rows, D) -> (..., H, rows, D / H), a view."""
    return np.swapaxes(a.reshape(*a.shape[:-1], heads, a.shape[-1] // heads), -2, -3)


def _merge(a: np.ndarray) -> np.ndarray:
    """(..., H, rows, dh) -> (..., rows, H * dh)."""
    a = np.swapaxes(a, -2, -3)
    return a.reshape(*a.shape[:-2], a.shape[-2] * a.shape[-1])


def _attend(q, k, v, heads: int):
    """(output, probabilities) of multi-head attention; non-finite scores
    are a NumericError."""
    p = _heads(q, heads) @ np.swapaxes(_heads(k, heads), -1, -2)
    p *= 1.0 / math.sqrt(q.shape[-1] // heads)
    if not np.isfinite(p).all():
        raise NumericError("attention produced non-finite scores")
    _softmax_(p)
    return _merge(p @ _heads(v, heads)), p


def _attend_grads(g, p, q, k, v, heads: int):
    """(dq, dk, dv) of multi-head attention with probabilities ``p``."""
    qh, kh, vh, gh = _heads(q, heads), _heads(k, heads), _heads(v, heads), _heads(g, heads)
    dv = np.empty((*p.shape[:-3], p.shape[-1], q.shape[-1]))  # dV in its merged layout
    np.matmul(np.swapaxes(p, -1, -2), gh, out=_heads(dv, heads))
    ds = _softmax_grad_(gh @ np.swapaxes(vh, -1, -2), p)
    ds *= 1.0 / math.sqrt(q.shape[-1] // heads)
    dqh = ds @ kh
    dkh = np.swapaxes(np.swapaxes(qh, -1, -2) @ ds, -1, -2)
    return (_merge(_unbroadcast(dqh, qh.shape)), _merge(_unbroadcast(dkh, kh.shape)),
            _unbroadcast(dv, v.shape))


def _gelu_tanh(v: np.ndarray) -> np.ndarray:
    """GELU's tanh term, tanh(c * (v + a * v^3))."""
    t = v * v
    t *= v
    t *= _GELU_A
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _gelu(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU of ``v`` from its tanh term ``t``."""
    data = t + 1.0  # halving is exact, so this is 0.5 * v * (1 + t) to the bit
    data *= v
    data *= 0.5
    return data


def _gelu_grad(g, v, t):
    tail = t * t
    np.subtract(1.0, tail, out=tail)
    du = 0.5 * v
    tail *= du
    du = np.multiply(v, v, out=du)  # du/dv of tanh's argument, in 0.5 * v's array
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    tail *= du
    local = np.add(t, 1.0, out=du)
    local *= 0.5
    local += tail
    local *= g
    return local


def _check_linear(sx: tuple, w: Tensor, b: Tensor) -> None:
    if (len(sx) < 2 or w.data.ndim != 2 or sx[-1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise DimensionError(f"linear got x {sx}, w {w.data.shape} and b {b.data.shape}")


def _check_norm(sx: tuple, gamma: Tensor, beta: Tensor, eps: float) -> None:
    if eps <= _LN_EPS_MIN:
        raise UsageError(f"layer_norm eps must be positive, got {eps}")
    if gamma.data.shape != sx[-1:] or beta.data.shape != sx[-1:]:
        raise DimensionError(
            f"layer_norm gamma/beta must have shape ({sx[-1]},), got "
            f"{gamma.data.shape} and {beta.data.shape}"
        )


def _check_attention(q, k, v, heads: int) -> None:
    d = q.shape[-1]
    if q.ndim < 2 or k.ndim < 2 or k.shape[-1] != d or v.shape != k.shape or d % heads != 0:
        raise DimensionError(f"attention got q {q.shape}, k {k.shape}, v {v.shape} "
                             f"with {heads} heads")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---- arithmetic ------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _result(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data

    def backward(g):
        return _unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)

    return _result(x * y, (a, b), backward)


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
    sa, sb = a.data.shape, b.data.shape
    x = a.data if _entry(b) is not None else None  # read only for b's gradient
    y = b.data if _entry(a) is not None else None

    def backward(g):
        return (None if y is None else _unbroadcast(g @ np.swapaxes(y, -1, -2), sa),
                None if x is None else _unbroadcast(np.swapaxes(x, -1, -2) @ g, sb))

    return _result(a.data @ b.data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node: the bias is added in place."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_linear(x.data.shape, w, b)
    sx = x.data.shape
    xd = x.data if _entry(w) is not None else None  # read only for w's gradient
    wd = w.data if _entry(x) is not None else None

    def backward(g):
        return _linear_grads(g, xd, wd, sx)

    return _result(_linear(x.data, w.data, b.data), (x, w, b), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes; by default swap the last two."""
    a = as_tensor(a)
    if axes is None:
        axes = (*range(a.data.ndim - 2), a.data.ndim - 1, a.data.ndim - 2)
    inverse = np.argsort(axes)

    def backward(g):
        return (g.transpose(inverse),)

    return _result(a.data.transpose(axes), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape

    def backward(g):
        return (g.reshape(old),)

    return _result(a.data.reshape(shape), (a,), backward)


# ---- nonlinearities --------------------------------------------------


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis, computed with max-subtraction."""
    x = as_tensor(x)
    s = _softmax_(x.data.copy())

    def backward(g):
        return (_softmax_grad_(g.copy(), s),)

    return _result(s, (x,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    q is (..., N, D), k and v are (..., M, D); leading axes broadcast, so
    one unbatched query set can attend to a batch of keys. Each head sees
    D / heads features and the head outputs are concatenated. The backward
    keeps the attention probabilities and q, k and v, not the output.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    _check_attention(q.data, k.data, v.data, heads)
    qd, kd, vd = q.data, k.data, v.data
    out, p = _attend(qd, kd, vd, heads)

    def backward(g):
        return _attend_grads(g, p, qd, kd, vd, heads)

    return _result(out, (q, k, v), backward)


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation (GPT-2 convention)."""
    x = as_tensor(x)
    v = x.data
    t = _gelu_tanh(v)

    def backward(g):
        return (_gelu_grad(g, v, t),)

    return _result(_gelu(v, t), (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize along the last axis (1/D variance), then scale and shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    _check_norm(x.data.shape, gamma, beta, eps)
    xhat, inv = _normalize(x.data, eps)
    gam = gamma.data

    def backward(g):
        return _norm_grads(g, xhat, inv, gam)

    return _result(_scale_shift(xhat, gam, beta.data), (x, gamma, beta), backward)


# ---- pre-norm sub-blocks ----------------------------------------------


def prenorm_attention(x: Tensor, norm, proj, out, heads: int, kv=(),
                      eps: float = 1e-5) -> Tensor:
    """``x + out(attention(q, k, v))`` over ``n = layer_norm(x)``, as one
    node. ``norm`` is (gamma, beta) and ``out`` and each of ``proj`` a
    (w, b) pair. Self-attention projects q, k and v from ``n`` by three
    pairs; a cross-attend projects q by one and is given K and V as the
    tensors ``kv``.

    The node keeps layer norm's ``xhat`` and ``inv``, the attention
    probabilities and the attention output; its backward recomputes
    ``n`` and the projections from them."""
    x = as_tensor(x)
    (gamma, beta), (wo, bo), given = norm, out, tuple(kv)
    _check_norm(x.data.shape, gamma, beta, eps)
    for w, b in proj:
        _check_linear(x.data.shape, w, b)
    xhat, inv = _normalize(x.data, eps)
    gam, bet, ws = gamma.data, beta.data, [(w.data, b.data) for w, b in proj]
    n = _scale_shift(xhat, gam, bet)
    kvd = [t.data for t in given]
    qkv = [_finite(_linear(n, w, b)) for w, b in ws] + kvd
    _check_attention(*qkv, heads)
    a, p = _attend(*qkv, heads)
    del n, qkv
    _check_linear(a.shape, wo, bo)

    def backward(g):
        ga, gwo, gbo = _linear_grads(g, a, wo.data, a.shape)
        n = _scale_shift(xhat, gam, bet)
        grads = _attend_grads(ga, p, *[_linear(n, w, b) for w, b in ws], *kvd, heads)
        gn, pairs = None, []
        for gi, (w, _) in zip(grads, ws):
            gni, gw, gb = _linear_grads(gi, n, w, n.shape)
            gn = gni if gn is None else gn + gni  # (q + k) + v, as separate nodes summed
            pairs += (gw, gb)
        gx, ggamma, gbeta = _norm_grads(gn, xhat, inv, gam)
        gx += _unbroadcast(g, xhat.shape)  # the residual's
        return (gx, ggamma, gbeta, *pairs, *grads[len(ws):], gwo, gbo)

    data = x.data + _linear(a, wo.data, bo.data)
    params = [t for pair in proj for t in pair]
    return _result(data, (x, gamma, beta, *params, *given, wo, bo), backward)


def prenorm_mlp(x: Tensor, norm, fc1, fc2, eps: float = 1e-5) -> Tensor:
    """``x + fc2(gelu(fc1(layer_norm(x))))`` as one node; ``norm`` is
    (gamma, beta) and ``fc1`` and ``fc2`` (w, b) pairs. The node keeps
    layer norm's ``xhat`` and ``inv``, fc1's output and GELU's tanh term;
    its backward recomputes the normalized input and GELU's output."""
    x = as_tensor(x)
    (gamma, beta), (w1, b1), (w2, b2) = norm, fc1, fc2
    _check_norm(x.data.shape, gamma, beta, eps)
    _check_linear(x.data.shape, w1, b1)
    xhat, inv = _normalize(x.data, eps)
    gam, bet = gamma.data, beta.data
    h = _linear(_scale_shift(xhat, gam, bet), w1.data, b1.data)
    _check_linear(h.shape, w2, b2)
    t = _gelu_tanh(h)

    def backward(g):
        gu, gw2, gb2 = _linear_grads(g, _gelu(h, t), w2.data, h.shape)
        gh = _gelu_grad(gu, h, t)
        del gu
        gn, gw1, gb1 = _linear_grads(gh, _scale_shift(xhat, gam, bet), w1.data, xhat.shape)
        gx, ggamma, gbeta = _norm_grads(gn, xhat, inv, gam)
        gx += _unbroadcast(g, xhat.shape)  # the residual's
        return gx, ggamma, gbeta, gw1, gb1, gw2, gb2

    data = x.data + _linear(_gelu(h, t), w2.data, b2.data)
    return _result(data, (x, gamma, beta, w1, b1, w2, b2), backward)


# ---- reductions and losses ------------------------------------------


def total(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    a = as_tensor(a)
    shape = a.data.shape

    def backward(g):
        return (np.full(shape, float(g)),)

    return _result(np.asarray(np.add.reduce(a.data, axis=None)), (a,), backward)


def mean_rows(a: Tensor) -> Tensor:
    """Mean over the rows (axis -2), kept as a 1-row axis."""
    a = as_tensor(a)
    if a.data.ndim < 2:
        raise DimensionError("mean_rows expects a matrix")
    shape = a.data.shape

    def backward(g):
        return (np.broadcast_to(g / shape[-2], shape).copy(),)

    return _result(_mean(a.data, axis=-2), (a,), backward)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under row softmax."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2 or labels.shape != (logits.data.shape[0],):
        raise DimensionError(
            f"cross_entropy got logits {logits.data.shape} and labels {labels.shape}"
        )
    n = logits.data.shape[0]
    shifted = logits.data - np.maximum.reduce(logits.data, axis=1, keepdims=True)
    logz = np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    logp = shifted - logz
    data = np.asarray(-(np.add.reduce(logp[np.arange(n), labels]) / n))

    def backward(g):
        p = np.exp(logp)
        p[np.arange(n), labels] -= 1.0
        return (p * (float(g) / n),)

    return _result(data, (logits,), backward)
