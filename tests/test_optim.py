"""AdamW closed-form oracles."""

import numpy as np
import pytest

from uaperceiver.errors import DimensionError, NumericError, RangeError
from uaperceiver.optim import AdamWSettings, AdamWState, adamw_step
from uaperceiver.params import ParamStore


def store_with(name, values):
    values = np.asarray(values, dtype=np.float64)
    return ParamStore({name: values.shape}, values, requires_grad=True)


@pytest.mark.parametrize("fields", [
    dict(beta1=-0.5), dict(beta1=1.0), dict(beta2=1.5), dict(eps=0.0),
    dict(weight_decay=-0.1), dict(beta1=float("nan")), dict(eps=float("inf")),
    dict(eps=float("nan")), dict(weight_decay=float("inf")),
    dict(weight_decay=float("nan")),
])
def test_settings_reject_out_of_range(fields):
    with pytest.raises(RangeError, match=next(iter(fields))):
        AdamWSettings(**fields)


def test_zero_grad_zero_decay_is_noop():
    s = store_with("p", [1.0, -2.0])
    state = AdamWState(s, AdamWSettings(weight_decay=0.0))
    adamw_step(s, np.zeros(2), state, lr=0.1)
    np.testing.assert_array_equal(s["p"].data, [1.0, -2.0])


def test_zero_grad_decay_only():
    s = store_with("p", [1.0, -2.0])
    state = AdamWState(s, AdamWSettings(weight_decay=0.5))
    adamw_step(s, np.zeros(2), state, lr=0.1)
    np.testing.assert_allclose(s["p"].data, np.array([1.0, -2.0]) * (1 - 0.1 * 0.5),
                               atol=1e-15)


def test_first_step_closed_form():
    # with m = (1-b1)g and v = (1-b2)g^2, bias correction makes the first
    # update exactly lr * g / (|g| + eps)
    g = np.array([0.3, -4.0, 1e-3])
    s = store_with("p", np.zeros(3))
    settings = AdamWSettings(weight_decay=0.0)
    state = AdamWState(s, settings)
    adamw_step(s, g.copy(), state, lr=0.01)
    expected = -0.01 * g / (np.abs(g) + settings.eps)
    np.testing.assert_allclose(s["p"].data, expected, atol=1e-15)
    # approximately -lr * sign(g)
    np.testing.assert_allclose(s["p"].data, -0.01 * np.sign(g), rtol=1e-4)


def test_non_finite_gradient_names_parameter():
    s = store_with("layer.w", [1.0])
    state = AdamWState(s)
    with pytest.raises(NumericError, match="layer.w"):
        adamw_step(s, np.array([np.nan]), state, lr=0.1)


def test_two_steps_match_reference_recurrence():
    rng = np.random.default_rng(0)
    p0 = rng.normal(size=4)
    grads = [rng.normal(size=4), rng.normal(size=4)]
    settings = AdamWSettings()
    s = store_with("p", p0)
    state = AdamWState(s, settings)
    for i, g in enumerate(grads):
        adamw_step(s, g.copy(), state, lr=0.05)
    # independent reference implementation of the same recurrence
    p = p0.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t, g in enumerate(grads, start=1):
        m = settings.beta1 * m + (1 - settings.beta1) * g
        v = settings.beta2 * v + (1 - settings.beta2) * g * g
        mhat = m / (1 - settings.beta1 ** t)
        vhat = v / (1 - settings.beta2 ** t)
        p = p - 0.05 * mhat / (np.sqrt(vhat) + settings.eps)
        p = p - 0.05 * settings.weight_decay * p
    np.testing.assert_allclose(s["p"].data, p, atol=1e-15)


def two_tensor_store():
    return ParamStore({"layer.w": (2, 2), "head.w": (3,)}, np.arange(7.0),
                      requires_grad=True)


def test_step_moves_the_named_views():
    s = two_tensor_store()
    head = s["head.w"].data
    state = AdamWState(s, AdamWSettings(weight_decay=0.0))
    adamw_step(s, np.ones(7), state, lr=0.1)
    # the view seen before the step now reads the stepped vector
    np.testing.assert_array_equal(head, s.vector[4:])
    np.testing.assert_allclose(head, np.arange(4.0, 7.0) - 0.1, atol=1e-8)
    assert np.shares_memory(s["head.w"].data, s.vector)


def test_non_finite_gradient_in_second_tensor_names_it():
    s = two_tensor_store()
    g = np.zeros(7)
    g[5] = np.nan
    with pytest.raises(NumericError, match="'head.w'"):
        adamw_step(s, g, AdamWState(s), lr=0.1)


@pytest.mark.parametrize("size", [6, 8])
def test_gradient_vector_of_wrong_length(size):
    s = two_tensor_store()
    with pytest.raises(DimensionError, match="gradient vector"):
        adamw_step(s, np.zeros(size), AdamWState(s), lr=0.1)
    np.testing.assert_array_equal(s.vector, np.arange(7.0))
