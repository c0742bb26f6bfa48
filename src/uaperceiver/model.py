"""The Perceiver classifier.

A learned N x D latent array repeatedly cross-attends to an M x C byte
array built from the input image (pixel channels plus positional
features), with a GPT-2-style self-attention tower run on the latents
between cross-attends. Blocks use the pre-norm residual arrangement and
no causal mask: the latents form a set, not a sequence.

Weight sharing ties the cross-attend and/or tower parameters across
depth repetitions, giving the network an RNN-like functional form and a
parameter count independent of depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError, RangeError, UsageError
from .params import ParamStore
from .rng import generator

LN_EPS = 1e-5

# images per graph: forward_logits runs one forward per chunk, a
# training step one forward + backward per chunk of its batch
# (strategies.chunk_gradients), and MC dropout one byte side per chunk
# of test images (strategies._mc_probabilities). A training chunk peaks
# at its forward graph (only what backward reads) plus one node's backward
# arrays: 17.8 MiB traced for the default model at 16x16, 55.6 at 32x32x3.
# Larger chunks raise peak memory in proportion, and a training graph of
# more images runs slower once it outgrows the cache.
FORWARD_CHUNK = 8

# std of a unit normal truncated at +/-2; draws are rescaled by this so
# the post-truncation sample std matches the requested value
_TRUNC_STD = 0.8796256610342398


class ScoreCounter:
    """Counts attention score-matrix entries, split by attention kind."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.cross = 0
        self.latent = 0


score_counter = ScoreCounter()


@dataclass(frozen=True)
class PerceiverConfig:
    height: int = 16
    width: int = 16
    channels: int = 3
    num_classes: int = 3
    latent_count: int = 32
    latent_dim: int = 64
    byte_dim: int = 64
    num_bands: int = 8
    max_frequency: float = 0.0  # 0 means: use max(height, width)
    depth_repeats: int = 2
    tower_layers: int = 2
    heads: int = 4
    pos_encoding: str = "fourier"
    share_tower_weights: bool = True
    share_cross_weights: bool = True

    def __post_init__(self):
        self._at_least(1, "height", "width", "channels", "latent_count", "latent_dim",
                       "byte_dim", "num_bands", "depth_repeats", "tower_layers", "heads")
        self._at_least(2, "num_classes")
        if self.latent_dim % self.heads != 0:
            raise ConfigError(
                f"latent_dim {self.latent_dim} not divisible by heads {self.heads}"
            )
        if self.pos_encoding not in ("fourier", "learnable"):
            raise ConfigError(f"unknown pos_encoding {self.pos_encoding!r}")
        if not 0 <= self.max_frequency < math.inf:
            raise ConfigError(
                f"max_frequency must be finite and >= 0, got {self.max_frequency}"
            )

    def _at_least(self, low: int, *names: str) -> None:
        """ConfigError for the first of the named fields below ``low``."""
        for name in names:
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")

    @property
    def num_bytes(self) -> int:
        """M = H*W; complexity accounting is in terms of this."""
        return self.height * self.width

    @property
    def frequency_cap(self) -> float:
        return self.max_frequency if self.max_frequency > 0 else float(
            max(self.height, self.width)
        )

    @property
    def byte_feature_width(self) -> int:
        if self.pos_encoding == "fourier":
            return self.channels + 2 * (2 * self.num_bands + 1)
        return self.channels


# ---- positional encoding --------------------------------------------


def fourier_encode(positions, num_bands: int, max_frequency: float) -> np.ndarray:
    """Fourier positional features for coordinates in [-1, 1].

    Per axis the features are sin(pi*f_k*p) and cos(pi*f_k*p) for
    frequencies f_1..f_K linearly spaced from 1 to max_frequency/2 (the
    Nyquist rate of the target resolution), followed by the raw
    coordinate; axes are concatenated. Output width is d*(2*K+1).
    """
    if max_frequency <= 0:
        raise UsageError(f"max_frequency must be > 0, got {max_frequency}")
    if num_bands < 1:
        raise UsageError(f"num_bands must be >= 1, got {num_bands}")
    p = np.asarray(positions, dtype=np.float64)
    if p.ndim == 1:
        p = p[None, :]
    if np.abs(p).max(initial=0.0) > 1.0 + 1e-12:
        raise RangeError("coordinates must lie in [-1, 1]")
    freqs = np.linspace(1.0, max_frequency / 2.0, num_bands)
    ang = math.pi * p[..., None] * freqs  # (..., d, K)
    per_axis = np.concatenate([np.sin(ang), np.cos(ang), p[..., None]], axis=-1)
    out = per_axis.reshape(*p.shape[:-1], p.shape[-1] * (2 * num_bands + 1))
    return out


@lru_cache(maxsize=32)
def _image_position_features(
    height: int, width: int, num_bands: int, max_frequency: float
) -> np.ndarray:
    ys = np.linspace(-1.0, 1.0, height) if height > 1 else np.zeros(1)
    xs = np.linspace(-1.0, 1.0, width) if width > 1 else np.zeros(1)
    grid = np.stack(np.meshgrid(ys, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    return fourier_encode(grid, num_bands, max_frequency)


# ---- parameter construction -----------------------------------------


def _trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    out = rng.standard_normal(size=shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(size=int(bad.sum()))
        bad = np.abs(out) > 2.0
    return out * (std / _TRUNC_STD)


def _cross_group(config: PerceiverConfig, r: int) -> str:
    return "cross_shared" if config.share_cross_weights else f"cross_rep{r}"


def _tower_group(config: PerceiverConfig, r: int) -> str:
    return "tower_shared" if config.share_tower_weights else f"tower_rep{r}"


def param_shapes(config: PerceiverConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter tensor, in initialization order:
    the one description of the parameter layout. Shared blocks appear
    once."""
    shapes: dict[str, tuple[int, ...]] = {}
    d, c = config.latent_dim, config.byte_dim

    def linear(prefix, din, dout):
        shapes[prefix + ".w"] = (din, dout)
        shapes[prefix + ".b"] = (dout,)

    def norm(prefix, dim):
        shapes[prefix + ".gamma"] = (dim,)
        shapes[prefix + ".beta"] = (dim,)

    if config.pos_encoding == "learnable":
        shapes["input.pos_table"] = (config.num_bytes, config.channels)
    linear("input.byte_proj", config.byte_feature_width, c)
    shapes["latent.init"] = (config.latent_count, d)
    repeats = range(config.depth_repeats)
    for g in dict.fromkeys(_cross_group(config, r) for r in repeats):
        norm(f"{g}.ln_q", d)
        norm(f"{g}.ln_kv", c)
        linear(f"{g}.q", d, d)
        linear(f"{g}.k", c, d)
        linear(f"{g}.v", c, d)
        linear(f"{g}.out", d, d)
    for g in dict.fromkeys(_tower_group(config, r) for r in repeats):
        for l in range(config.tower_layers):
            norm(f"{g}.layer{l}.attn.ln", d)
            linear(f"{g}.layer{l}.attn.q", d, d)
            linear(f"{g}.layer{l}.attn.k", d, d)
            linear(f"{g}.layer{l}.attn.v", d, d)
            linear(f"{g}.layer{l}.attn.out", d, d)
            norm(f"{g}.layer{l}.mlp.ln", d)
            linear(f"{g}.layer{l}.mlp.fc1", d, 4 * d)
            linear(f"{g}.layer{l}.mlp.fc2", 4 * d, d)
    linear("head", d, config.num_classes)
    return shapes


def init_params(config: PerceiverConfig, seed: int) -> ParamStore:
    """Seeded parameter store: truncated-normal weights (std 0.02) and
    learned latent array and position table, zero biases/betas, unit
    layer-norm gammas."""
    rng = generator(seed, 0)
    store = ParamStore(param_shapes(config), np.zeros(param_count(config)[0]),
                       requires_grad=True)
    for name, t in store.items():  # .b and .beta stay zero
        if name.endswith(".w") or name in ("latent.init", "input.pos_table"):
            t.data[...] = _trunc_normal(rng, t.shape)
        elif name.endswith(".gamma"):
            t.data[...] = 1.0
    return store


def param_count(config: PerceiverConfig) -> tuple[int, dict[str, int]]:
    """Exact scalar parameter count and a per-group breakdown.

    Shared blocks are counted once; groups are the first dotted name
    component (input, latent, cross_*, tower_*, head).
    """
    breakdown: dict[str, int] = {}
    for name, shape in param_shapes(config).items():
        group = name.split(".", 1)[0]
        breakdown[group] = breakdown.get(group, 0) + math.prod(shape)
    return sum(breakdown.values()), breakdown


# ---- forward passes --------------------------------------------------


def build_byte_array(images, config: PerceiverConfig, params: ParamStore):
    """Flatten ... x H x W x channels images into ... x M x byte_dim byte
    arrays; any leading axes are batch axes.

    Fourier mode concatenates each pixel's channel values with its
    positional features; learnable mode adds a trained per-position
    embedding to the channel values. Either way a learned linear
    projection maps the features to byte_dim.
    """
    images = np.asarray(images, dtype=np.float64)
    expected = (config.height, config.width, config.channels)
    if images.shape[-3:] != expected:
        raise DimensionError(f"image shape {images.shape}, config expects {expected}")
    lead = images.shape[:-3]
    pixels = images.reshape(*lead, config.num_bytes, config.channels)
    if config.pos_encoding == "fourier":
        pos = _image_position_features(
            config.height, config.width, config.num_bands, config.frequency_cap
        )
        pos = np.broadcast_to(pos, (*lead, *pos.shape))
        feats = T.Tensor(np.concatenate([pixels, pos], axis=-1))
    else:
        feats = T.add(T.Tensor(pixels), params["input.pos_table"])
    return _linear(feats, params, "input.byte_proj")


def _pair(params: ParamStore, prefix: str, names=("w", "b")):
    return params[f"{prefix}.{names[0]}"], params[f"{prefix}.{names[1]}"]


def _norm(params: ParamStore, prefix: str):
    return _pair(params, prefix, ("gamma", "beta"))


def _linear(x, params: ParamStore, prefix: str):
    return T.linear(x, *_pair(params, prefix))


def _count_scores(out, heads: int, keys: int, kind: str) -> None:
    """Count an attention's score-matrix entries (heads x N x keys per
    image) by kind; ``out`` is its sub-block's result."""
    entries = out.size // out.shape[-1] * heads * keys
    if kind == "cross":
        score_counter.cross += entries
    else:
        score_counter.latent += entries


def cross_attention(latent, bytes_mat, params: ParamStore, config: PerceiverConfig,
                    group: str, kv_cache: dict | None = None):
    """Latents query the byte array: Q from latents, K/V from bytes.

    Pre-norm; residual back onto the latents. The score matrix has
    heads * N * M entries. ``kv_cache`` maps a group to its byte-side
    (K, V) (``byte_kv``); a group missing from it is computed from
    ``bytes_mat`` and stored, so a group shared across repeats computes
    them once. The query side is one ``tensor.prenorm_attention`` node.
    """
    kv_cache = {} if kv_cache is None else kv_cache
    if group not in kv_cache:
        kv_cache[group] = _key_value(bytes_mat, params, group)
    k, v = kv_cache[group]
    out = T.prenorm_attention(latent, _norm(params, f"{group}.ln_q"),
                              [_pair(params, f"{group}.q")], _pair(params, f"{group}.out"),
                              config.heads, (k, v), LN_EPS)
    _count_scores(out, config.heads, k.shape[-2], "cross")
    return out


def _key_value(bytes_mat, params: ParamStore, group: str):
    """A cross group's K and V over a byte array: pre-norm, then the two
    projections."""
    kv_in = T.layer_norm(bytes_mat, params[f"{group}.ln_kv.gamma"],
                         params[f"{group}.ln_kv.beta"], LN_EPS)
    return _linear(kv_in, params, f"{group}.k"), _linear(kv_in, params, f"{group}.v")


def latent_block(latent, params: ParamStore, config: PerceiverConfig, group: str,
                 layer: int):
    """One tower layer: pre-norm self-attention, then pre-norm 4x GELU MLP,
    one ``tensor.prenorm_attention`` and one ``tensor.prenorm_mlp`` node."""
    p = f"{group}.layer{layer}"
    latent = T.prenorm_attention(latent, _norm(params, f"{p}.attn.ln"),
                                 [_pair(params, f"{p}.attn.{n}") for n in "qkv"],
                                 _pair(params, f"{p}.attn.out"), config.heads, eps=LN_EPS)
    _count_scores(latent, config.heads, latent.shape[-2], "latent")
    return T.prenorm_mlp(latent, _norm(params, f"{p}.mlp.ln"), _pair(params, f"{p}.mlp.fc1"),
                         _pair(params, f"{p}.mlp.fc2"), LN_EPS)


def _matching_store(forward):
    """Report a parameter the store lacks as a ConfigError; run the
    forward under ``T.quiet_overflow``."""

    @wraps(forward)
    def checked(config: PerceiverConfig, params: ParamStore, *args):
        try:
            with T.quiet_overflow():
                return forward(config, params, *args)
        except KeyError as exc:
            raise ConfigError(f"parameter store does not match config: missing {exc}")

    return checked


@_matching_store
def byte_kv(config: PerceiverConfig, params: ParamStore, images) -> dict:
    """The byte side of a forward: each cross group's (K, V), both
    B x M x D, for a B x H x W x C stack of images.

    Every step (byte features, projection, ln_kv, K, V) works pixel row
    by pixel row, so a row of K or V depends only on its own pixel."""
    bytes_mat = build_byte_array(images, config, params)
    groups = dict.fromkeys(_cross_group(config, r) for r in range(config.depth_repeats))
    return {g: _key_value(bytes_mat, params, g) for g in groups}


@_matching_store
def latent_logits(config: PerceiverConfig, params: ParamStore, kv: dict):
    """The latent side of a forward: B x K logits from each cross group's
    B x M x D K and V (``byte_kv``)."""
    latent = params["latent.init"]
    for r in range(config.depth_repeats):
        latent = cross_attention(latent, None, params, config, _cross_group(config, r), kv)
        tg = _tower_group(config, r)
        for l in range(config.tower_layers):
            latent = latent_block(latent, params, config, tg, l)
    # B x 1 x D: each image's head product is a 1-row product of its
    # own, so a logit row does not depend on the rest of the batch
    pooled = T.mean_rows(latent)
    logits = _linear(pooled, params, "head")
    return T.reshape(logits, (-1, config.num_classes))


def perceiver_forward(config: PerceiverConfig, params: ParamStore, images):
    """B x H x W x C images, or one H x W x C image -> B x K logits (a
    tensor participating in the graph)."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        images = images[None]
    return latent_logits(config, params, byte_kv(config, params, images))


def forward_logits(config: PerceiverConfig, params: ParamStore, images) -> np.ndarray:
    """Batched inference: n x K logits as a plain array (no grad), one
    forward per FORWARD_CHUNK images."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        images = images[None]
    out = np.empty((len(images), config.num_classes))
    for i in range(0, len(images), FORWARD_CHUNK):
        chunk = images[i : i + FORWARD_CHUNK]
        out[i : i + FORWARD_CHUNK] = perceiver_forward(config, params, chunk).data
    return out


def batch_loss(config: PerceiverConfig, params: ParamStore, images, labels):
    """Mean cross-entropy over a batch, as a scalar graph node."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise UsageError("batch_loss called with an empty batch")
    with T.quiet_overflow():
        return T.cross_entropy(perceiver_forward(config, params, images), labels)
