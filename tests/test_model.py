"""Perceiver model: positional encoding, attention oracles, parameter
accounting, and forward-pass invariants."""

import hashlib
import math

import numpy as np
import pytest

import uaperceiver as ua
from uaperceiver import model
from uaperceiver import tensor as T
from uaperceiver.errors import ConfigError, DimensionError, NumericError, RangeError
from uaperceiver.model import (
    FORWARD_CHUNK,
    LN_EPS,
    batch_loss,
    param_shapes,
    score_counter,
)

from uaperceiver.strategies import chunk_gradients

from conftest import global_fd_gradcheck


# ---- numpy reference pieces ------------------------------------------


def np_layer_norm(x, gamma, beta, eps=LN_EPS):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def np_softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def np_attention(q, k, v, heads):
    """Naive per-head loop oracle for scaled dot-product attention."""
    d = q.shape[1]
    dh = d // heads
    out = np.zeros((q.shape[0], d))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        for i in range(q.shape[0]):
            scores = np.array([qh[i] @ kh[j] for j in range(k.shape[0])])
            weights = np_softmax(scores / math.sqrt(dh))
            out[i, sl] = sum(weights[j] * vh[j] for j in range(k.shape[0]))
    return out


def np_cross_attention(latent, bytes_mat, params, group, heads):
    def proj(x, prefix):
        return x @ params[f"{prefix}.w"].data + params[f"{prefix}.b"].data

    q_in = np_layer_norm(latent, params[f"{group}.ln_q.gamma"].data,
                         params[f"{group}.ln_q.beta"].data)
    kv_in = np_layer_norm(bytes_mat, params[f"{group}.ln_kv.gamma"].data,
                          params[f"{group}.ln_kv.beta"].data)
    attended = np_attention(proj(q_in, f"{group}.q"), proj(kv_in, f"{group}.k"),
                            proj(kv_in, f"{group}.v"), heads)
    return latent + proj(attended, f"{group}.out")


def np_latent_block(latent, params, group, layer, heads):
    p = f"{group}.layer{layer}"

    def proj(x, prefix):
        return x @ params[f"{prefix}.w"].data + params[f"{prefix}.b"].data

    normed = np_layer_norm(latent, params[f"{p}.attn.ln.gamma"].data,
                           params[f"{p}.attn.ln.beta"].data)
    attended = np_attention(proj(normed, f"{p}.attn.q"),
                            proj(normed, f"{p}.attn.k"),
                            proj(normed, f"{p}.attn.v"), heads)
    latent = latent + proj(attended, f"{p}.attn.out")
    normed = np_layer_norm(latent, params[f"{p}.mlp.ln.gamma"].data,
                           params[f"{p}.mlp.ln.beta"].data)
    hidden = proj(normed, f"{p}.mlp.fc1")
    c = math.sqrt(2.0 / math.pi)
    hidden = 0.5 * hidden * (1 + np.tanh(c * (hidden + 0.044715 * hidden ** 3)))
    return latent + proj(hidden, f"{p}.mlp.fc2")


# ---- fourier encoding ------------------------------------------------


def test_fourier_zero_position():
    out = ua.fourier_encode([0.0, 0.0], num_bands=3, max_frequency=8.0)
    # per-axis layout: 3 sines, 3 cosines, raw coordinate
    per_axis = out.reshape(1, 2, 7)
    np.testing.assert_array_equal(per_axis[0, :, :3], np.zeros((2, 3)))
    np.testing.assert_array_equal(per_axis[0, :, 3:6], np.ones((2, 3)))
    np.testing.assert_array_equal(per_axis[0, :, 6], np.zeros(2))


def test_fourier_single_band_endpoint():
    # one axis, one band, max_frequency 2 puts f_1 = 1; at p = 1 the
    # features are [sin(pi), cos(pi), 1]
    out = ua.fourier_encode([1.0], num_bands=1, max_frequency=2.0)
    np.testing.assert_allclose(out[0], [math.sin(math.pi), -1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(out[0], [0.0, -1.0, 1.0], atol=1e-12)


def test_fourier_width_law():
    for d, k in [(1, 1), (2, 4), (3, 2)]:
        out = ua.fourier_encode(np.zeros((5, d)), num_bands=k, max_frequency=16.0)
        assert out.shape == (5, d * (2 * k + 1))


def test_fourier_rejects_out_of_range():
    with pytest.raises(RangeError):
        ua.fourier_encode([1.5], num_bands=2, max_frequency=4.0)


def test_fourier_direct_formula():
    p = np.array([[0.3, -0.7]])
    bands, mu = 4, 12.0
    out = ua.fourier_encode(p, bands, mu)
    freqs = np.linspace(1.0, mu / 2.0, bands)
    expected = []
    for axis in range(2):
        ang = math.pi * p[0, axis] * freqs
        expected.extend(np.sin(ang))
        expected.extend(np.cos(ang))
        expected.append(p[0, axis])
    np.testing.assert_allclose(out[0], expected, atol=1e-15)


# ---- byte array ------------------------------------------------------


def test_byte_array_shape(tiny_config):
    params = ua.init_params(tiny_config, 0)
    image = np.zeros((4, 4, 1))
    out = ua.build_byte_array(image, tiny_config, params)
    assert out.data.shape == (tiny_config.num_bytes, tiny_config.byte_dim)


def test_byte_array_resolution_mismatch(tiny_config):
    params = ua.init_params(tiny_config, 0)
    with pytest.raises(DimensionError):
        ua.build_byte_array(np.zeros((5, 4, 1)), tiny_config, params)


def test_byte_array_locality(tiny_config):
    """Changing one pixel changes exactly one byte row."""
    params = ua.init_params(tiny_config, 0)
    rng = np.random.default_rng(0)
    image = rng.random((4, 4, 1))
    other = image.copy()
    other[2, 1, 0] += 0.25  # pixel index 2*4 + 1 = 9
    a = ua.build_byte_array(image, tiny_config, params).data
    b = ua.build_byte_array(other, tiny_config, params).data
    differs = np.any(a != b, axis=1)
    assert differs[9]
    assert differs.sum() == 1


def test_byte_array_composition_oracle(tiny_config):
    """Each row equals concat(pixel, fourier features) @ W + b."""
    params = ua.init_params(tiny_config, 0)
    rng = np.random.default_rng(1)
    image = rng.random((4, 4, 1))
    out = ua.build_byte_array(image, tiny_config, params).data
    ys = np.linspace(-1, 1, 4)
    xs = np.linspace(-1, 1, 4)
    w = params["input.byte_proj.w"].data
    b = params["input.byte_proj.b"].data
    for i in range(4):
        for j in range(4):
            pos = ua.fourier_encode(
                [ys[i], xs[j]], tiny_config.num_bands, tiny_config.frequency_cap
            )[0]
            feats = np.concatenate([image[i, j], pos])
            np.testing.assert_allclose(out[i * 4 + j], feats @ w + b, atol=1e-12)


def test_learnable_positions_used():
    config = ua.PerceiverConfig(
        height=4, width=4, channels=2, num_classes=2, latent_count=2,
        latent_dim=4, byte_dim=4, num_bands=1, depth_repeats=1,
        tower_layers=1, heads=1, pos_encoding="learnable",
    )
    assert config.byte_feature_width == 2
    params = ua.init_params(config, 0)
    assert "input.pos_table" in params
    image = np.random.default_rng(2).random((4, 4, 2))
    out = ua.build_byte_array(image, config, params).data
    pixels = image.reshape(16, 2)
    expected = (pixels + params["input.pos_table"].data) @ params[
        "input.byte_proj.w"
    ].data + params["input.byte_proj.b"].data
    np.testing.assert_allclose(out, expected, atol=1e-12)


# ---- attention oracles -----------------------------------------------


def random_cross_instance(n, m, heads, seed):
    config = ua.PerceiverConfig(
        height=1, width=m, channels=1, num_classes=2, latent_count=n,
        latent_dim=4 * heads, byte_dim=6, num_bands=1, depth_repeats=1,
        tower_layers=1, heads=heads,
    )
    params = ua.init_params(config, seed)
    rng = np.random.default_rng(seed + 100)
    latent = rng.normal(size=(n, config.latent_dim))
    bytes_mat = rng.normal(size=(m, config.byte_dim))
    return config, params, latent, bytes_mat


@pytest.mark.parametrize("n,m,heads", [(2, 3, 1), (4, 6, 2), (3, 5, 2), (1, 2, 1)])
def test_cross_attention_loop_oracle(n, m, heads):
    config, params, latent, bytes_mat = random_cross_instance(n, m, heads, n + m)
    out = ua.cross_attention(
        T.Tensor(latent), T.Tensor(bytes_mat), params, config, "cross_shared"
    ).data
    expected = np_cross_attention(latent, bytes_mat, params, "cross_shared", heads)
    np.testing.assert_allclose(out, expected, atol=1e-9)


def test_cross_attention_byte_permutation_invariance():
    """Attention treats byte rows as a set: permuting them (with their
    positional features already baked in) leaves the output unchanged."""
    config, params, latent, bytes_mat = random_cross_instance(3, 6, 2, 9)
    base = ua.cross_attention(
        T.Tensor(latent), T.Tensor(bytes_mat), params, config, "cross_shared"
    ).data
    perm = np.random.default_rng(0).permutation(6)
    shuffled = ua.cross_attention(
        T.Tensor(latent), T.Tensor(bytes_mat[perm]), params, config, "cross_shared"
    ).data
    np.testing.assert_allclose(base, shuffled, atol=1e-9)


def test_latent_block_zero_out_projections_is_identity(tiny_config):
    params = ua.init_params(tiny_config, 0)
    params["tower_shared.layer0.attn.out.w"].data[:] = 0.0
    params["tower_shared.layer0.mlp.fc2.w"].data[:] = 0.0
    latent = np.random.default_rng(1).normal(size=(4, 8))
    out = ua.latent_block(T.Tensor(latent), params, tiny_config, "tower_shared", 0)
    np.testing.assert_allclose(out.data, latent, atol=1e-12)


@pytest.mark.parametrize("heads", [1, 2])
def test_latent_block_loop_oracle(heads):
    config = ua.PerceiverConfig(
        height=2, width=2, channels=1, num_classes=2, latent_count=4,
        latent_dim=4 * heads, num_bands=1, depth_repeats=1, tower_layers=1,
        heads=heads,
    )
    params = ua.init_params(config, 11)
    latent = np.random.default_rng(12).normal(size=(4, config.latent_dim))
    out = ua.latent_block(T.Tensor(latent), params, config, "tower_shared", 0).data
    expected = np_latent_block(latent, params, "tower_shared", 0, heads)
    np.testing.assert_allclose(out, expected, atol=1e-9)


def test_score_entry_counts(tiny_config):
    params = ua.init_params(tiny_config, 0)
    n, m, heads = (tiny_config.latent_count, tiny_config.num_bytes,
                   tiny_config.heads)
    r, layers = tiny_config.depth_repeats, tiny_config.tower_layers
    for images, b in ((np.zeros((4, 4, 1)), 1), (np.zeros((5, 4, 4, 1)), 5)):
        score_counter.reset()
        ua.perceiver_forward(tiny_config, params, images)
        assert score_counter.cross == b * r * heads * n * m
        assert score_counter.latent == b * r * layers * heads * n * n
    score_counter.reset()


# ---- full forward ----------------------------------------------------


def test_forward_shape_and_determinism(tiny_config):
    params = ua.init_params(tiny_config, 3)
    image = np.random.default_rng(4).random((4, 4, 1))
    a = ua.perceiver_forward(tiny_config, params, image).data
    b = ua.perceiver_forward(tiny_config, params, image).data
    assert a.shape == (1, tiny_config.num_classes)
    np.testing.assert_array_equal(a, b)


def test_forward_shared_weights_composition(tiny_config):
    """R=2 with sharing equals manual cross/tower composition reusing the
    same parameter tensors."""
    params = ua.init_params(tiny_config, 5)
    image = np.random.default_rng(6).random((4, 4, 1))
    out = ua.perceiver_forward(tiny_config, params, image).data

    bytes_mat = ua.build_byte_array(image, tiny_config, params)
    latent = params["latent.init"]
    for _ in range(2):
        latent = ua.cross_attention(latent, bytes_mat, params, tiny_config,
                                    "cross_shared")
        latent = ua.latent_block(latent, params, tiny_config, "tower_shared", 0)
    pooled = T.mean_rows(latent)
    expected = T.add(T.matmul(pooled, params["head.w"]), params["head.b"]).data
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("shared, expected", [(True, 1), (False, 3)],
                         ids=["shared", "unshared"])
def test_byte_side_norm_once_per_cross_group(monkeypatch, tiny_config, shared, expected):
    """One forward at R = 3 normalizes the byte array once per distinct
    cross-attend group: a shared group reuses its K/V in later repeats."""
    import dataclasses

    config = dataclasses.replace(tiny_config, depth_repeats=3,
                                 share_cross_weights=shared)
    params = ua.init_params(config, 3)
    kv_gammas = [t for name, t in params.items() if name.endswith(".ln_kv.gamma")]
    layer_norm = T.layer_norm
    calls = []

    def counting(x, gamma, beta, eps):
        calls.append(any(gamma is g for g in kv_gammas))
        return layer_norm(x, gamma, beta, eps)

    monkeypatch.setattr(T, "layer_norm", counting)
    ua.perceiver_forward(config, params, np.zeros((2, 4, 4, 1)))
    assert sum(calls) == expected


def test_forward_params_config_mismatch(tiny_config):
    import dataclasses

    other = dataclasses.replace(tiny_config, share_cross_weights=False)
    params = ua.init_params(tiny_config, 0)
    with pytest.raises(ConfigError):
        ua.perceiver_forward(other, params, np.zeros((4, 4, 1)))


def test_forward_logits_batches(tiny_config):
    """Rows do not depend on the batch or the chunking: every row of a
    multi-chunk call bit-equals the image's own 1-image forward."""
    import dataclasses

    n = 2 * FORWARD_CHUNK + 3
    images = np.random.default_rng(8).random((n, 4, 4, 1))
    for pos_encoding in ("fourier", "learnable"):
        for shared in (True, False):
            config = dataclasses.replace(tiny_config, pos_encoding=pos_encoding,
                                         share_tower_weights=shared,
                                         share_cross_weights=shared)
            params = ua.init_params(config, 7)
            batch = ua.forward_logits(config, params, images)
            assert batch.shape == (n, config.num_classes)
            for i in range(n):
                single = ua.forward_logits(config, params, images[i])
                np.testing.assert_array_equal(batch[i], single[0])


def test_batch_loss_is_mean_of_image_losses(tiny_config):
    params = ua.init_params(tiny_config, 14)
    images = np.random.default_rng(15).random((5, 4, 4, 1))
    labels = [0, 2, 1, 1, 0]
    loss = float(batch_loss(tiny_config, params, images, labels).data)
    singles = [float(batch_loss(tiny_config, params, [img], [y]).data)
               for img, y in zip(images, labels)]
    assert abs(loss - np.mean(singles)) < 1e-12


def test_batch_loss_gradient_fd():
    config = ua.PerceiverConfig(
        height=2, width=2, channels=1, num_classes=3, latent_count=3,
        latent_dim=4, byte_dim=4, num_bands=1, depth_repeats=1,
        tower_layers=1, heads=2,
    )
    params = ua.init_params(config, 16)
    for _, t in params.items():
        t.data *= 5.0  # healthy gradient magnitudes for the FD comparison
    images = np.random.default_rng(17).random((2, 2, 2, 1))
    leaves = [t for _, t in params.items()]
    err = global_fd_gradcheck(
        lambda: batch_loss(config, params, images, [1, 2]), leaves, h=1e-6
    )
    assert err < 1e-6


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
def test_batch_loss_gradient_fd_repeats(shared):
    """R = 2: a shared cross-attend's byte-side K/V feed both repeats, so
    their gradient is the sum over the repeats that read them."""
    config = ua.PerceiverConfig(
        height=2, width=2, channels=1, num_classes=3, latent_count=3,
        latent_dim=4, byte_dim=4, num_bands=1, depth_repeats=2,
        tower_layers=1, heads=2, share_cross_weights=shared,
    )
    params = ua.init_params(config, 18)
    for _, t in params.items():
        t.data *= 5.0
    images = np.random.default_rng(19).random((2, 2, 2, 1))
    leaves = [t for _, t in params.items()]
    err = global_fd_gradcheck(
        lambda: batch_loss(config, params, images, [0, 2]), leaves, h=1e-6
    )
    assert err < 1e-6


def test_gradients_reach_all_parameters(tiny_config):
    """Every parameter receives gradient, except attention key biases
    whose gradient is analytically zero (softmax is invariant to a
    per-key constant shift)."""
    params = ua.init_params(tiny_config, 9)
    rng = np.random.default_rng(10)
    images = rng.random((2, 4, 4, 1))
    grads = batch_loss(tiny_config, params, images, [0, 2]).backward()
    for name, t in params.items():
        if name.endswith(("attn.k.b", "cross_shared.k.b")):
            assert np.abs(grads[t]).max() < 1e-12, name
        else:
            assert np.abs(grads[t]).max() > 0.0, name


# ---- init and parameter count ----------------------------------------


def test_init_seed_determinism(tiny_config):
    a = ua.init_params(tiny_config, 42)
    b = ua.init_params(tiny_config, 42)
    assert a.allclose(b)
    c = ua.init_params(tiny_config, 43)
    assert not a.allclose(c)


def test_init_weight_std():
    config = ua.PerceiverConfig(latent_count=16, latent_dim=128, byte_dim=128)
    params = ua.init_params(config, 0)
    samples = np.concatenate([
        t.data.ravel() for name, t in params.items()
        if name.endswith(".w") or name == "latent.init"
    ])
    assert samples.size >= 100_000
    assert abs(samples.std() - 0.02) < 0.002
    assert np.abs(samples).max() <= 2.0 * 0.02 / 0.8796256610342398 + 1e-12


def test_init_biases_and_norms():
    config = ua.PerceiverConfig()
    params = ua.init_params(config, 1)
    for name, t in params.items():
        if name.endswith((".b", ".beta")):
            np.testing.assert_array_equal(t.data, np.zeros_like(t.data))
        if name.endswith(".gamma"):
            np.testing.assert_array_equal(t.data, np.ones_like(t.data))


CRITERION7 = ua.PerceiverConfig(latent_count=8, latent_dim=32, byte_dim=32,
                                num_bands=4, depth_repeats=1, tower_layers=1,
                                heads=2)
LEARNABLE_UNSHARED_R3 = ua.PerceiverConfig(
    pos_encoding="learnable", share_tower_weights=False,
    share_cross_weights=False, depth_repeats=3,
)


def store_sha256(store) -> str:
    """sha256 over every tensor's name, shape and little-endian bytes, in
    store order."""
    digest = hashlib.sha256()
    for name, t in store.items():
        digest.update(name.encode() + repr(t.shape).encode()
                      + t.data.astype("<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("config, expected", [
    (CRITERION7, "e5dba32a762d283deb2b60b4505bca5b2a2ee23f9f8b6b2f0893471b4849cd92"),
    (ua.PerceiverConfig(),
     "2294395b5143c26054037a39527ebc8629ed171444770094ded5632d89fb86b0"),
    (LEARNABLE_UNSHARED_R3,
     "0d8f0bce695f9323c50895940a77b22873dab5ff94344df051455b3ff2e8bc43"),
], ids=["criterion7", "default", "learnable-unshared-r3"])
def test_init_params_pinned(config, expected):
    """Names, order, shapes and every random draw of a seed-0 store."""
    assert store_sha256(ua.init_params(config, 0)) == expected


@pytest.mark.parametrize("config", [CRITERION7, ua.PerceiverConfig(),
                                    LEARNABLE_UNSHARED_R3],
                         ids=["criterion7", "default", "learnable-unshared-r3"])
def test_param_shapes_is_the_init_layout(config):
    assert param_shapes(config) == ua.init_params(config, 0).shapes()
    assert list(param_shapes(config)) == ua.init_params(config, 0).names()


def test_param_count_draws_no_random_numbers(monkeypatch):
    from uaperceiver import model

    def forbidden(*args, **kwargs):
        raise AssertionError("param_count initialized parameters")

    monkeypatch.setattr(model, "_trunc_normal", forbidden)
    total, parts = ua.param_count(CRITERION7)
    assert total == sum(math.prod(s) for s in param_shapes(CRITERION7).values())


def test_param_count_invariant_in_depth_when_shared():
    import dataclasses

    base = ua.PerceiverConfig()
    counts = {
        r: ua.param_count(dataclasses.replace(base, depth_repeats=r))[0]
        for r in (1, 2, 4, 8)
    }
    assert len(set(counts.values())) == 1


def test_param_count_unshared_enumeration():
    import dataclasses

    base = ua.PerceiverConfig(depth_repeats=1)
    r = 3
    shared_total, shared_parts = ua.param_count(base)
    unshared = dataclasses.replace(
        base, depth_repeats=r, share_tower_weights=False,
        share_cross_weights=False,
    )
    unshared_total, _ = ua.param_count(unshared)
    per_repeat = shared_parts["cross_shared"] + shared_parts["tower_shared"]
    fixed = shared_total - per_repeat
    assert unshared_total == fixed + r * per_repeat


def test_param_count_matches_store(tiny_config):
    total, parts = ua.param_count(tiny_config)
    assert total == ua.init_params(tiny_config, 0).num_scalars()
    assert sum(parts.values()) == total


def test_config_validation():
    with pytest.raises(ConfigError):
        ua.PerceiverConfig(latent_dim=10, heads=4)
    with pytest.raises(ConfigError):
        ua.PerceiverConfig(pos_encoding="sinusoid")
    with pytest.raises(ConfigError):
        ua.PerceiverConfig(depth_repeats=0)
    for name, value in (("heads", 0), ("byte_dim", 0), ("channels", 0),
                        ("num_bands", 0), ("num_classes", 1)):
        with pytest.raises(ConfigError, match=f"{name} must be >="):
            ua.PerceiverConfig(**{name: value})
    for value in (math.nan, -5.0, math.inf):
        with pytest.raises(ConfigError, match="max_frequency"):
            ua.PerceiverConfig(max_frequency=value)
    assert ua.PerceiverConfig(max_frequency=0.0).frequency_cap == 16.0


# ---- one graph node per pre-norm sub-block ---------------------------------


def primitive_cross_attention(latent, bytes_mat, params, config, group, kv_cache=None):
    """``model.cross_attention`` as it was before its query side was one
    node: layer norm, the q projection, attention, the out-projection and
    the residual sum, each a node of its own."""
    kv_cache = {} if kv_cache is None else kv_cache
    if group not in kv_cache:
        kv_cache[group] = model._key_value(bytes_mat, params, group)
    k, v = kv_cache[group]
    q_in = T.layer_norm(latent, params[f"{group}.ln_q.gamma"],
                        params[f"{group}.ln_q.beta"], LN_EPS)
    q = T.linear(q_in, params[f"{group}.q.w"], params[f"{group}.q.b"])
    attended = T.attention(q, k, v, config.heads)
    return T.add(latent, T.linear(attended, params[f"{group}.out.w"],
                                  params[f"{group}.out.b"]))


def primitive_latent_block(latent, params, config, group, layer):
    """``model.latent_block`` as it was before each sub-block was one node:
    twelve nodes, from layer norm to the MLP's residual sum."""
    p = f"{group}.layer{layer}"

    def linear(x, name):
        return T.linear(x, params[f"{p}.{name}.w"], params[f"{p}.{name}.b"])

    normed = T.layer_norm(latent, params[f"{p}.attn.ln.gamma"],
                          params[f"{p}.attn.ln.beta"], LN_EPS)
    q, k, v = (linear(normed, f"attn.{n}") for n in "qkv")
    attended = T.attention(q, k, v, config.heads)
    latent = T.add(latent, linear(attended, "attn.out"))
    normed = T.layer_norm(latent, params[f"{p}.mlp.ln.gamma"],
                          params[f"{p}.mlp.ln.beta"], LN_EPS)
    hidden = T.gelu(linear(normed, "mlp.fc1"))
    return T.add(latent, linear(hidden, "mlp.fc2"))


def use_primitive_blocks(monkeypatch):
    """Build every forward from the primitive-op blocks above."""
    monkeypatch.setattr(model, "cross_attention", primitive_cross_attention)
    monkeypatch.setattr(model, "latent_block", primitive_latent_block)


FIVE_CONFIGS = {
    "criterion7": CRITERION7,
    "default": ua.RunConfig().model_config(),
    "shared-r3": ua.PerceiverConfig(depth_repeats=3),
    "learnable-unshared-r3": LEARNABLE_UNSHARED_R3,
    "32x32x3": ua.PerceiverConfig(height=32, width=32, channels=3, num_classes=10),
}


def chunk_data(config, images):
    return ua.synth_dataset(3, images, resolution=config.height,
                            num_classes=config.num_classes, channels=config.channels)


@pytest.mark.parametrize("images", [1, FORWARD_CHUNK])
@pytest.mark.parametrize("name", FIVE_CONFIGS)
def test_sub_block_nodes_bit_equal_the_primitive_ops(name, images, monkeypatch):
    config = FIVE_CONFIGS[name]
    data = chunk_data(config, images)
    params = ua.init_params(config, 4)

    def loss_and_gradient():
        [(loss, grad)] = chunk_gradients(config, params, data.images, data.labels,
                                         range(1))
        return loss, grad

    loss, grad = loss_and_gradient()
    use_primitive_blocks(monkeypatch)
    expected_loss, expected = loss_and_gradient()
    assert loss == expected_loss
    np.testing.assert_array_equal(grad, expected)


def interior_nodes(loss) -> int:
    return sum(type(e) is not T.Tensor for e in T._toposort(T._entry(loss)))


@pytest.mark.parametrize("config, images, fused, primitive", [
    (CRITERION7, 4, 11, 25), (ua.PerceiverConfig(), FORWARD_CHUNK, 18, 66),
], ids=["criterion7", "default"])
def test_a_sub_block_is_one_graph_node(config, images, fused, primitive, monkeypatch):
    """A tower layer is two nodes and a cross-attend's query side one; the
    byte side (byte projection, ln_kv, K and V) and the head are as before."""
    data = chunk_data(config, images)
    params = ua.init_params(config, 4)
    assert interior_nodes(batch_loss(config, params, data.images, data.labels)) == fused
    use_primitive_blocks(monkeypatch)
    assert interior_nodes(batch_loss(config, params, data.images, data.labels)) == primitive


def overflowing(monkeypatch, kernel, applies):
    """Make ``tensor.<kernel>`` return +inf in its (first) array wherever
    ``applies(*args)`` holds."""
    original = getattr(T, kernel)

    def forced(*args):
        out = original(*args)
        if not applies(*args):
            return out
        if isinstance(out, tuple):
            return (np.full_like(out[0], np.inf), *out[1:])
        return np.full_like(out, np.inf)

    monkeypatch.setattr(T, kernel, forced)


def param_is(params, name):
    """Whether a kernel's array argument is parameter ``name``'s array."""
    return lambda *args: any(a is params[name].data for a in args)


def numeric_errors(config, params, data, monkeypatch) -> list[str]:
    """The NumericError messages of a loss built from sub-block nodes, then
    from primitive-op blocks."""
    messages = []
    for primitive in (False, True):
        if primitive:
            use_primitive_blocks(monkeypatch)
        with pytest.raises(NumericError) as raised:
            batch_loss(config, params, data.images, data.labels)
        messages.append(str(raised.value))
    return messages


@pytest.mark.parametrize("stage, kernel, applies", [
    ("cross ln_q output", "_scale_shift", lambda p: param_is(p, "cross_shared.ln_q.gamma")),
    ("cross q", "_linear", lambda p: param_is(p, "cross_shared.q.w")),
    ("cross attention output", "_attend", lambda p: lambda q, k, v, h: k.shape[-2] > 8),
    ("cross out-projection", "_linear", lambda p: param_is(p, "cross_shared.out.w")),
    ("tower ln output", "_scale_shift",
     lambda p: param_is(p, "tower_shared.layer0.attn.ln.gamma")),
    ("tower v", "_linear", lambda p: param_is(p, "tower_shared.layer0.attn.v.w")),
    ("tower attention output", "_attend", lambda p: lambda q, k, v, h: k.shape[-2] == 8),
    ("tower out-projection", "_linear", lambda p: param_is(p, "tower_shared.layer0.attn.out.w")),
    ("mlp ln output", "_scale_shift", lambda p: param_is(p, "tower_shared.layer0.mlp.ln.gamma")),
    ("fc1", "_linear", lambda p: param_is(p, "tower_shared.layer0.mlp.fc1.w")),
    ("gelu", "_gelu", lambda p: lambda v, t: True),
    ("fc2", "_linear", lambda p: param_is(p, "tower_shared.layer0.mlp.fc2.w")),
])
def test_an_overflow_in_a_sub_block_raises_the_primitive_ops_message(
        stage, kernel, applies, monkeypatch):
    """Wherever a sub-block's arithmetic overflows, its one node raises the
    NumericError that the first primitive op to see the overflow raised."""
    config = CRITERION7  # latent_count 8, 256 bytes
    data = chunk_data(config, 2)
    params = ua.init_params(config, 4)
    overflowing(monkeypatch, kernel, applies(params))
    assert numeric_errors(config, params, data, monkeypatch) == [
        "operation produced non-finite values"] * 2


@pytest.mark.parametrize("group", ["cross_shared", "tower_shared.layer0.attn"])
def test_overflowing_attention_scores_raise_the_primitive_ops_message(group,
                                                                      monkeypatch):
    config = CRITERION7
    data = chunk_data(config, 2)
    params = ua.init_params(config, 4)
    params[f"{group}.q.b"].data[...] = 1e200
    params[f"{group}.k.b"].data[...] = 1e200
    assert numeric_errors(config, params, data, monkeypatch) == [
        "attention produced non-finite scores"] * 2
