"""Autodiff engine: op-level oracles and gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uaperceiver import tensor as T
from uaperceiver.errors import DimensionError, NumericError, UsageError

from conftest import global_fd_gradcheck


def leaf(data):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


# ---- matmul ----------------------------------------------------------


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(T.Tensor(np.eye(2)), T.Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_triple_loop_oracle():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    expected = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expected[i, j] += a[i, k] * b[k, j]
    out = T.matmul(T.Tensor(a), T.Tensor(b))
    np.testing.assert_array_equal(out.data, expected)
    np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_zero_annihilates():
    a = np.random.default_rng(0).normal(size=(3, 4))
    out = T.matmul(T.Tensor(a), T.Tensor(np.zeros((4, 2))))
    np.testing.assert_array_equal(out.data, np.zeros((3, 2)))


def test_matmul_shape_errors():
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))))


def test_matmul_gradient_oracle():
    rng = np.random.default_rng(1)
    a, b = leaf(rng.normal(size=(3, 4))), leaf(rng.normal(size=(4, 2)))
    w = rng.normal(size=(3, 2))
    loss = T.total(T.mul(T.matmul(a, b), T.Tensor(w)))
    grads = loss.backward()
    np.testing.assert_allclose(grads[a], w @ b.data.T, atol=1e-12)
    np.testing.assert_allclose(grads[b], a.data.T @ w, atol=1e-12)


@pytest.mark.parametrize("a_shape,b_shape", [
    ((2, 3, 4), (4, 5)),  # batched activations x shared weight
    ((3, 4), (2, 4, 5)),  # shared queries x batched keys
    ((2, 1, 3, 4), (3, 4, 2)),  # heads axis broadcast against a batch axis
], ids=["batch-weight", "shared-batch", "4d"])
def test_matmul_broadcast_gradient_fd(a_shape, b_shape):
    rng = np.random.default_rng(5)
    a, b = leaf(rng.normal(size=a_shape)), leaf(rng.normal(size=b_shape))
    w = T.Tensor(rng.normal(size=(a.data @ b.data).shape))

    def loss():
        return T.total(T.mul(T.matmul(a, b), w))

    assert global_fd_gradcheck(loss, [a, b], h=1e-6) < 1e-8


# ---- softmax ---------------------------------------------------------


def test_softmax_uniform():
    out = T.softmax(T.Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-15)


def test_softmax_high_precision_oracle():
    # independent oracle from math.exp on each entry
    x = [1.0, 2.0, 3.0]
    exps = [math.exp(v) for v in x]
    z = sum(exps)
    expected = np.array([e / z for e in exps])
    out = T.softmax(T.Tensor(x))
    np.testing.assert_allclose(out.data, expected, atol=1e-15)
    np.testing.assert_allclose(
        out.data, [0.090031, 0.244728, 0.665241], atol=5e-7
    )


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    out = T.softmax(T.Tensor(rng.normal(size=(50, 7), scale=10)))
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(50), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=8),
    st.floats(-100, 100),
)
def test_softmax_shift_invariance(xs, shift):
    base = T.softmax(T.Tensor(xs)).data
    shifted = T.softmax(T.Tensor([x + shift for x in xs])).data
    np.testing.assert_allclose(base, shifted, atol=1e-12)


def test_softmax_overflow_safe():
    out = T.softmax(T.Tensor([1000.0, 1000.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)


# ---- gelu ------------------------------------------------------------


def test_gelu_reference_values():
    # tanh-approximation formula evaluated directly
    for v in (-3.0, -1.0, 0.0, 0.5, 2.0):
        inner = math.sqrt(2.0 / math.pi) * (v + 0.044715 * v ** 3)
        expected = 0.5 * v * (1.0 + math.tanh(inner))
        out = T.gelu(T.Tensor([v]))
        np.testing.assert_allclose(out.data, [expected], atol=1e-15)


def test_gelu_matches_power_formula():
    """The cube as a product agrees with ``v ** 3`` within a few ulps of v."""
    v = np.linspace(-12.0, 12.0, 24001)
    c = math.sqrt(2.0 / math.pi)
    expected = 0.5 * v * (1.0 + np.tanh(c * (v + 0.044715 * v ** 3)))
    out = T.gelu(T.Tensor(v)).data
    assert np.all(np.abs(out - expected) <= 4 * np.spacing(np.abs(v)))


def test_gelu_gradient_fd():
    x = leaf(np.linspace(-3, 3, 13))
    err = global_fd_gradcheck(lambda: T.total(T.gelu(x)), [x], h=1e-6)
    assert err < 1e-8


# ---- layer_norm ------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    out = T.layer_norm(
        T.Tensor([4.0, 4.0, 4.0]), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3))
    )
    np.testing.assert_allclose(out.data, np.zeros(3), atol=1e-12)


def test_layer_norm_unit_variance_pair():
    # [1, -1] has mean 0 and variance exactly 1; with a vanishing eps the
    # output reproduces the input
    out = T.layer_norm(
        T.Tensor([1.0, -1.0]), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)),
        eps=1e-12,
    )
    np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-9)


def test_layer_norm_direct_formula_oracle():
    x = np.array([1.0, 2.0, 3.0])
    mu, var = x.mean(), x.var()
    expected = (x - mu) / math.sqrt(var + 1e-5)
    out = T.layer_norm(
        T.Tensor(x), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), eps=1e-5
    )
    np.testing.assert_allclose(out.data, expected, atol=1e-15)
    np.testing.assert_allclose(out.data, [-1.22474, 0.0, 1.22474], atol=1e-4)


def test_layer_norm_requires_positive_eps():
    args = (T.Tensor([1.0, 2.0]), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)))
    with pytest.raises(UsageError):
        T.layer_norm(*args, eps=0.0)


def test_layer_norm_shape_error():
    with pytest.raises(DimensionError):
        T.layer_norm(
            T.Tensor([[1.0, 2.0, 3.0]]), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))
        )


def test_layer_norm_gradient_fd():
    rng = np.random.default_rng(3)
    x = leaf(rng.normal(size=(4, 6)))
    gamma = leaf(rng.normal(size=6))
    beta = leaf(rng.normal(size=6))
    w = T.Tensor(rng.normal(size=(4, 6)))

    def loss():
        return T.total(T.mul(T.layer_norm(x, gamma, beta), w))

    assert global_fd_gradcheck(loss, [x, gamma, beta], h=1e-6) < 1e-7


# ---- backward mechanics ----------------------------------------------


def test_backward_square_at_three():
    x = leaf([3.0])
    grads = T.total(T.mul(x, x)).backward()
    np.testing.assert_allclose(grads[x], [6.0], atol=1e-15)


def test_backward_constant_loss_zero_grads():
    x = leaf([1.0, 2.0])
    # loss does not depend on x
    loss = T.total(T.Tensor([5.0]))
    assert x not in loss.backward()


def test_backward_requires_scalar():
    x = leaf([[1.0, 2.0]])
    with pytest.raises(UsageError):
        T.add(x, x).backward()


def test_backward_of_a_rebuilt_loss_returns_equal_gradients():
    # tensors hold no gradient state, so nothing accumulates across graphs
    x = leaf([2.0])
    first = T.total(T.mul(x, x)).backward()
    loss = T.total(T.mul(x, x))
    second = loss.backward()
    np.testing.assert_allclose(first[x], [4.0], atol=1e-15)
    np.testing.assert_array_equal(second[x], first[x])
    assert x.data.tolist() == [2.0] and loss.data == 4.0


def test_backward_twice_is_a_usage_error():
    x = leaf([2.0])
    loss = T.total(T.mul(x, x))
    loss.backward()
    with pytest.raises(UsageError, match="already ran"):
        loss.backward()


def test_a_new_graph_reaching_a_consumed_node_is_a_usage_error():
    """A consumed interior node is neither a constant nor a fresh path:
    a new loss built on it fails when its backward reaches it."""
    x = leaf([1.0, 2.0])
    hidden = T.mul(x, x)
    T.total(hidden).backward()
    other = leaf([3.0, 4.0])
    for loss in (T.total(hidden), T.total(T.add(T.mul(hidden, other), other))):
        with pytest.raises(UsageError, match="already ran"):
            loss.backward()
    # the leaves are never consumed: a rebuilt graph backpropagates
    grads = T.total(T.add(T.mul(T.mul(x, x), other), other)).backward()
    np.testing.assert_array_equal(grads[x], [6.0, 16.0])
    np.testing.assert_array_equal(grads[other], [2.0, 5.0])


def test_backward_two_layer_net_fd():
    rng = np.random.default_rng(4)
    w1 = leaf(rng.normal(size=(5, 8), scale=0.5))
    b1 = leaf(rng.normal(size=8, scale=0.1))
    w2 = leaf(rng.normal(size=(8, 3), scale=0.5))
    b2 = leaf(rng.normal(size=3, scale=0.1))
    x = T.Tensor(rng.normal(size=(4, 5)))
    labels = [0, 2, 1, 1]

    def loss():
        h = T.gelu(T.add(T.matmul(x, w1), b1))
        return T.cross_entropy(T.add(T.matmul(h, w2), b2), labels)

    assert global_fd_gradcheck(loss, [w1, b1, w2, b2], h=1e-5) < 1e-4


def test_diamond_graph_gradient():
    # y = x used twice: d/dx (x*x + x*x) = 4x
    x = leaf([1.5])
    y = T.mul(x, x)
    grads = T.total(T.add(y, y)).backward()
    np.testing.assert_allclose(grads[x], [6.0], atol=1e-12)


# ---- cross_entropy ---------------------------------------------------


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(6, 4), scale=3)
    labels = rng.integers(0, 4, size=6)
    out = T.cross_entropy(T.Tensor(logits), labels)
    s = T.softmax(T.Tensor(logits)).data
    expected = -np.log(s[np.arange(6), labels]).mean()
    np.testing.assert_allclose(float(out.data), expected, atol=1e-12)


def test_cross_entropy_gradient_closed_form():
    rng = np.random.default_rng(6)
    logits = leaf(rng.normal(size=(5, 3)))
    labels = rng.integers(0, 3, size=5)
    grads = T.cross_entropy(logits, labels).backward()
    p = T.softmax(T.Tensor(logits.data)).data
    p[np.arange(5), labels] -= 1.0
    np.testing.assert_allclose(grads[logits], p / 5, atol=1e-12)


def test_cross_entropy_shape_error():
    with pytest.raises(DimensionError):
        T.cross_entropy(T.Tensor([[1.0, 2.0]]), [0, 1])


# ---- misc ops and error contracts ------------------------------------


def test_non_finite_input_rejected():
    with pytest.raises(NumericError):
        T.Tensor([1.0, float("nan")])
    with pytest.raises(NumericError):
        T.Tensor([float("inf")])


def test_op_producing_non_finite_rejected():
    big = T.Tensor([[1e308]])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        T.add(big, big)


def test_transpose_reshape_mean_rows():
    x = leaf([[1.0, 2.0], [3.0, 4.0]])
    assert T.transpose(x).data.tolist() == [[1.0, 3.0], [2.0, 4.0]]
    assert T.reshape(x, (4, 1)).data.tolist() == [[1.0], [2.0], [3.0], [4.0]]
    np.testing.assert_array_equal(T.mean_rows(x).data, [[2.0, 3.0]])
    grads = T.total(T.mean_rows(x)).backward()
    np.testing.assert_allclose(grads[x], np.full((2, 2), 0.5), atol=1e-15)
    # shape ops return views of their input; backward must not write into it
    y = T.reshape(T.transpose(x), (4,))
    grads = T.total(T.mul(y, T.Tensor([1.0, 2.0, 3.0, 4.0]))).backward()
    assert x.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    np.testing.assert_allclose(grads[x], [[1.0, 3.0], [2.0, 4.0]], atol=1e-15)


def test_transpose_axes_gradient_fd():
    rng = np.random.default_rng(8)
    x = leaf(rng.normal(size=(2, 3, 4)))
    w = T.Tensor(rng.normal(size=(4, 2, 3)))
    out = T.transpose(x, (2, 0, 1))
    np.testing.assert_array_equal(out.data, x.data.transpose(2, 0, 1))
    assert T.transpose(x).shape == (2, 4, 3)  # default: swap the last two

    def loss():
        return T.total(T.mul(T.transpose(x, (2, 0, 1)), w))

    assert global_fd_gradcheck(loss, [x], h=1e-6) < 1e-8


def test_mean_rows_batched_gradient_fd():
    rng = np.random.default_rng(9)
    x = leaf(rng.normal(size=(3, 4, 2)))
    w = T.Tensor(rng.normal(size=(3, 1, 2)))
    out = T.mean_rows(x)
    assert out.shape == (3, 1, 2)
    for i in range(3):
        np.testing.assert_array_equal(out.data[i], T.mean_rows(x.data[i]).data)

    def loss():
        return T.total(T.mul(T.mean_rows(x), w))

    assert global_fd_gradcheck(loss, [x], h=1e-6) < 1e-8


def test_broadcast_bias_gradient():
    x = T.Tensor(np.ones((4, 3)))
    b = leaf(np.zeros(3))
    grads = T.total(T.add(x, b)).backward()
    np.testing.assert_array_equal(grads[b], [4.0, 4.0, 4.0])


# ---- fused ops and in-place kernels ------------------------------------


def composed_attention(q, k, v, heads):
    """Reference: multi-head attention from reshape/transpose/matmul, a
    scale by 1/sqrt(dh) and softmax, one node each."""
    d = q.shape[-1]
    dh = d // heads

    def swap_rows_and_heads(x):
        n = len(x.shape)
        return T.transpose(x, (*range(n - 3), n - 2, n - 3, n - 1))

    qh, kh, vh = (swap_rows_and_heads(T.reshape(x, (*x.shape[:-1], heads, dh)))
                  for x in (q, k, v))
    scores = T.mul(T.matmul(qh, T.transpose(kh)), T.Tensor(1.0 / math.sqrt(dh)))
    out = swap_rows_and_heads(T.matmul(T.softmax(scores), vh))
    return T.reshape(out, (*out.shape[:-2], d))


ATTENTION_SHAPES = {
    # name: (q shape, k/v shape, heads)
    "batched-1-head": ((2, 3, 4), (2, 5, 4), 1),
    "batched-4-heads": ((2, 3, 8), (2, 5, 8), 4),
    "unbatched-q": ((3, 8), (2, 5, 8), 4),
    "batch-of-one": ((1, 3, 4), (1, 6, 4), 2),
}


@pytest.mark.parametrize("name", sorted(ATTENTION_SHAPES))
def test_attention_gradient_fd(name):
    q_shape, kv_shape, heads = ATTENTION_SHAPES[name]
    rng = np.random.default_rng(20)
    q, k, v = leaf(rng.normal(size=q_shape)), *(leaf(rng.normal(size=kv_shape))
                                                for _ in range(2))
    w = T.Tensor(rng.normal(size=(kv_shape[0], q_shape[-2], q_shape[-1])))

    def loss():
        return T.total(T.mul(T.attention(q, k, v, heads), w))

    assert global_fd_gradcheck(loss, [q, k, v], h=1e-6) < 1e-8


@pytest.mark.parametrize("name", sorted(ATTENTION_SHAPES))
def test_attention_matches_composed_reference(name):
    q_shape, kv_shape, heads = ATTENTION_SHAPES[name]
    rng = np.random.default_rng(21)
    q, k, v = (leaf(rng.normal(size=s, scale=3.0)) for s in (q_shape, kv_shape, kv_shape))
    w = T.Tensor(rng.normal(size=(kv_shape[0], q_shape[-2], q_shape[-1])))
    fused = T.attention(q, k, v, heads)
    reference = composed_attention(q, k, v, heads)
    np.testing.assert_array_equal(fused.data, reference.data)
    got = T.total(T.mul(fused, w)).backward()
    want = T.total(T.mul(reference, w)).backward()
    largest = max(np.abs(want[t]).max() for t in (q, k, v))
    for t in (q, k, v):
        np.testing.assert_allclose(got[t], want[t], rtol=0, atol=1e-12 * largest)


def test_attention_overflowing_scores_raise():
    q = T.Tensor(np.full((2, 4), 1e200))
    k = T.Tensor(np.full((3, 4), 1e200))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError):
            T.attention(q, k, k, 2)
        with pytest.raises(NumericError):
            T.attention(q, T.Tensor(-k.data), k, 2)


def test_attention_shape_errors():
    q, k = T.Tensor(np.ones((2, 4))), T.Tensor(np.ones((3, 4)))
    with pytest.raises(DimensionError):
        T.attention(q, k, k, 3)  # 4 features do not split into 3 heads
    with pytest.raises(DimensionError):
        T.attention(q, T.Tensor(np.ones((3, 2))), T.Tensor(np.ones((3, 2))), 2)
    with pytest.raises(DimensionError):
        T.attention(q, k, T.Tensor(np.ones((2, 4))), 2)


def test_linear_gradient_fd():
    rng = np.random.default_rng(22)
    x = leaf(rng.normal(size=(2, 3, 4)))
    w = leaf(rng.normal(size=(4, 5)))
    b = leaf(rng.normal(size=5))  # broadcast over the batch and row axes
    m = T.Tensor(rng.normal(size=(2, 3, 5)))
    out = T.linear(x, w, b)
    np.testing.assert_array_equal(out.data, T.add(T.matmul(x, w), b).data)

    def loss():
        return T.total(T.mul(T.linear(x, w, b), m))

    assert global_fd_gradcheck(loss, [x, w, b], h=1e-6) < 1e-8


def test_constant_inputs_get_no_gradient_product():
    """A linear or matmul node skips the product that would give an input
    needing no gradient its gradient; the other gradients are unchanged."""
    rng = np.random.default_rng(25)
    x = T.Tensor(rng.normal(size=(2, 3, 4)))  # constant features
    w, b = leaf(rng.normal(size=(4, 5))), leaf(rng.normal(size=5))
    g = rng.normal(size=(2, 3, 5))
    node = T.linear(x, w, b)._node
    gx, gw, gb = node.backward(g)
    assert node.parents[0] is None and gx is None  # x, a constant, has no entry
    assert node.parents[1] is w and node.parents[2] is b
    np.testing.assert_array_equal(gw, (np.swapaxes(x.data, -1, -2) @ g).sum(axis=0))
    np.testing.assert_array_equal(gb, g.sum(axis=0).sum(axis=0))
    a, c = T.Tensor(rng.normal(size=(3, 4))), leaf(rng.normal(size=(4, 5)))
    ga, gc = T.matmul(a, c)._node.backward(g[0])
    assert ga is None
    np.testing.assert_array_equal(gc, a.data.T @ g[0])
    ga, gc = T.matmul(c, T.Tensor(rng.normal(size=(5, 2))))._node.backward(
        rng.normal(size=(4, 2)))
    assert ga is not None and gc is None
    grads = T.total(T.mul(T.linear(x, w, b), T.Tensor(g))).backward()
    assert set(grads) == {w, b}
    np.testing.assert_array_equal(grads[w], gw)


def test_linear_shape_errors():
    x, w = T.Tensor(np.ones((3, 4))), T.Tensor(np.ones((4, 5)))
    with pytest.raises(DimensionError):
        T.linear(x, T.Tensor(np.ones((5, 4))), T.Tensor(np.ones(4)))
    with pytest.raises(DimensionError):
        T.linear(x, w, T.Tensor(np.ones(4)))
    with pytest.raises(DimensionError):
        T.linear(T.Tensor(np.ones(4)), w, T.Tensor(np.ones(5)))


def reference_softmax(x, g):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    dot = (g * s).sum(axis=-1, keepdims=True)
    return s, s * (g - dot)


def reference_gelu(v, g):
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(c * (v + a * (v * v * v)))
    du = c * (1.0 + 3.0 * a * (v * v))
    local = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t ** 2) * du
    return 0.5 * v * (1.0 + t), g * local


def reference_layer_norm(x, g, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    gxhat = g * gamma
    mean_g = gxhat.mean(axis=-1, keepdims=True)
    mean_gx = (gxhat * xhat).mean(axis=-1, keepdims=True)
    gx = inv * (gxhat - mean_g - xhat * mean_gx)
    axes = tuple(range(g.ndim - 1))
    return xhat * gamma + beta, gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


def test_kernels_bit_equal_to_reference_expressions():
    """Row lengths 32 and 256 are the model's: numpy's pairwise summation
    groups a reduction by its length."""
    rng = np.random.default_rng(23)
    for shape in ((7,), (4, 9), (2, 3, 16), (4, 256, 32), (8, 2, 8, 256)):
        x = rng.normal(size=shape, scale=4.0)
        g = rng.normal(size=shape)
        xs = leaf(x)
        out = T.softmax(xs)
        s, gx = reference_softmax(x, g)
        np.testing.assert_array_equal(out.data, s)
        np.testing.assert_array_equal(out._node.backward(g)[0], gx)
        out = T.gelu(xs)
        y, gx = reference_gelu(x, g)
        np.testing.assert_array_equal(out.data, y)
        np.testing.assert_array_equal(out._node.backward(g)[0], gx)
        gamma = rng.normal(size=shape[-1])
        beta = rng.normal(size=shape[-1])
        out = T.layer_norm(xs, leaf(gamma), leaf(beta))
        y, *grads = reference_layer_norm(x, g, gamma, beta)
        np.testing.assert_array_equal(out.data, y)
        for got, want in zip(out._node.backward(g), grads, strict=True):
            np.testing.assert_array_equal(got, want)
        if len(shape) > 1:
            out = T.mean_rows(xs)
            np.testing.assert_array_equal(out.data, x.mean(axis=-2, keepdims=True))
            g_row = g.mean(axis=-2, keepdims=True)
            np.testing.assert_array_equal(out._node.backward(g_row)[0],
                                          np.broadcast_to(g_row / shape[-2], shape))


def test_gelu_bit_equal_across_magnitudes():
    v = np.concatenate([np.linspace(-40.0, 40.0, 20001),
                        np.geomspace(1e-300, 1e3, 2000), -np.geomspace(1e-300, 1e3, 2000)])
    g = np.ones_like(v)
    y, gx = reference_gelu(v, g)
    out = T.gelu(T.Tensor(v, requires_grad=True))
    np.testing.assert_array_equal(out.data, y)
    np.testing.assert_array_equal(out._node.backward(g)[0], gx)


def test_ops_leave_inputs_and_received_gradients_unchanged():
    rng = np.random.default_rng(24)
    x = leaf(rng.normal(size=(2, 3, 4)))
    k = leaf(rng.normal(size=(2, 5, 4)))
    w, b = leaf(rng.normal(size=(4, 4))), leaf(rng.normal(size=4))
    gamma, beta = leaf(rng.normal(size=4)), leaf(rng.normal(size=4))
    nodes = [T.softmax(x), T.gelu(x), T.layer_norm(x, gamma, beta), T.linear(x, w, b),
             T.attention(x, k, k, 2)]
    before = [t.data.copy() for t in (x, k, w, b, gamma, beta)]
    for out in nodes:
        g = rng.normal(size=out.shape)
        kept = g.copy()
        out._node.backward(g)
        np.testing.assert_array_equal(g, kept)
    for t, old in zip((x, k, w, b, gamma, beta), before):
        np.testing.assert_array_equal(t.data, old)
