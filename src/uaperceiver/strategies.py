"""Uncertainty-aware training and prediction strategies.

Each procedure returns a ``Predictor`` that maps a batch of images to
per-class probability rows summing to 1:

* deep ensemble -- independently seeded trainings, temperature-scaled
  per member, uniformly averaged;
* SWA -- running mean of weight iterates captured along one trajectory;
* snapshot -- members captured at the minima of cosine restart cycles
  within a single run;
* fast -- members collected along a cyclic-LR trajectory started from
  an already-trained solution;
* MC dropout -- stochastic input-pixel zeroing at train and test time,
  averaged over repeated forwards.

Member seeds derive from (base_seed, index) so every member is
bit-reproducible in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, count

import numpy as np

from .data import ChannelStats, Dataset, calibration_rows, iter_batches
from .errors import DimensionError, NumericError, RangeError, UsageError
from .metrics import softmax_rows, temperature_scale
from .model import (FORWARD_CHUNK, PerceiverConfig, batch_loss, byte_kv,
                    forward_logits, init_params, latent_logits)
from .optim import AdamWSettings, AdamWState, adamw_step
from .parallel import parallel_map
from .params import ParamStore, swa_update
from .rng import derive_seed, derive_seeds, first_uniforms, generator
from .schedules import LRSchedule, capture_steps, lr_at
from .tensor import view_leaf


@dataclass
class TrainRunLog:
    """Per-step (step, lr, loss) triples plus capture events."""

    steps: list[tuple[int, float, float]] = field(default_factory=list)
    captures: list[tuple[int, int]] = field(default_factory=list)  # (step, member)


@dataclass
class Predictor:
    """Anything that turns images into probability rows: the uniform
    average of its members' probability rows."""

    kind: str  # report label (single, deep_ensemble, ..., mc_dropout) only
    config: PerceiverConfig
    members: list[ParamStore]
    temperatures: list[float] | None = None
    mc_delta: float = 0.0
    mc_samples: int = 0  # > 0: each member averages this many masked forwards
    mc_seed: int = 0
    stats: ChannelStats | None = None  # the input standardization, if any

    def __post_init__(self):
        if not self.members:
            raise UsageError("a predictor needs at least one member")
        if self.temperatures is not None and not (
                len(self.temperatures) == len(self.members)
                and all(0.0 < t < np.inf for t in self.temperatures)):
            raise UsageError("temperatures must be one finite value > 0 per member")
        if self.mc_delta and self.mc_samples < 1:
            raise UsageError("MC dropout (mc_delta > 0) needs mc_samples >= 1")
        if self.mc_samples and self.temperatures is not None:
            raise UsageError("MC dropout members take no temperatures")
        if self.stats is not None and not (
                all(np.shape(v) == (self.config.channels,) and np.isfinite(v).all()
                    for v in (self.stats.mean, self.stats.std))
                and np.all(np.greater(self.stats.std, 0.0))):
            raise UsageError(f"stats must be finite ({self.config.channels},) "
                             "arrays with std > 0")

    @property
    def ensemble_size(self) -> int:
        return len(self.members)

    def member_probabilities(self, images) -> list[np.ndarray]:
        """One n x K block of probability rows per member, in member order.

        Raw images are standardized with ``stats`` first, if the predictor
        has them (bit-equal to ``data.standardize``), then split into one
        contiguous slice per worker (``parallel_map`` of
        ``_slice_probabilities``), each run through every member; a worker
        is sent its own slice only. A row does not depend on the slice it
        is in: forwards are batch-invariant and MC image i draws its masks
        from ``derive_seed(mc_seed, i)`` by its index in ``images``. An MC
        member runs the byte side once per FORWARD_CHUNK images, plus one
        zero image, and the latent side in passes of ``_latent_pass_rows``
        masked samples (``_mc_probabilities``), bit-equal to forwarding
        every masked copy."""
        images = np.asarray(images, dtype=np.float64)
        if images.ndim == 3:
            images = images[None]
        if self.stats is not None:  # in place on a copy, as data.standardize
            images = images - self.stats.mean
            images /= self.stats.std
        blocks = parallel_map(_slice_probabilities, (self,), _Rows(images))
        return [np.concatenate(parts) for parts in zip(*blocks)]

    def probabilities(self, images) -> np.ndarray:
        """n x K probability rows, averaged over members."""
        return ensemble_average(self.member_probabilities(images))


def ensemble_average(member_probs) -> np.ndarray:
    """Uniform mixture of member probability rows (arithmetic mean)."""
    stacked = np.stack([np.asarray(p, dtype=np.float64) for p in member_probs])
    if stacked.ndim != 3:
        raise UsageError("ensemble_average expects M lists of n x K rows")
    return stacked.mean(axis=0)


@dataclass(frozen=True)
class _Rows:
    """Images and the index of the first one in the whole batch. A slice
    keeps both and views the same memory, so pickling it sends only its
    own images."""

    images: np.ndarray
    start: int = 0

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, span: slice) -> "_Rows":
        return _Rows(self.images[span], self.start + span.indices(len(self))[0])


def _slice_probabilities(predictor: Predictor, rows: _Rows) -> list[np.ndarray]:
    """Each member's probability rows for the images of ``rows``."""
    member_probs = []
    for j, store in enumerate(predictor.members):
        if predictor.mc_samples:
            seeds = [derive_seed(predictor.mc_seed, rows.start + row)
                     for row in range(len(rows))]
            probs = _mc_probabilities(predictor.config, store, rows.images,
                                      predictor.mc_delta, predictor.mc_samples, seeds)
        else:
            logits = forward_logits(predictor.config, store, rows.images)
            if predictor.temperatures is not None:
                logits = logits / predictor.temperatures[j]
            probs = softmax_rows(logits)
        member_probs.append(probs)
    return member_probs


# ---- shared training loop -------------------------------------------


@dataclass(frozen=True)
class TrainSettings:
    batch_size: int = 4
    adamw: AdamWSettings = AdamWSettings()
    mc_delta: float = 0.0  # input-pixel dropout during training


def train_model(
    config: PerceiverConfig,
    params: ParamStore,
    dataset: Dataset,
    schedule: LRSchedule,
    seed: int,
    settings: TrainSettings = TrainSettings(),
    on_step=None,
    rows=None,
) -> TrainRunLog:
    """Run AdamW for schedule.total_steps, mutating ``params`` in place.

    Trains on ``rows`` of ``dataset`` (row indices; all rows by default),
    which stays the only copy of the data: data order reshuffles every
    epoch from seeds derived off ``seed``, and each step gathers its own
    batch (``iter_batches``). A batch is one graph per FORWARD_CHUNK
    images (``chunk_gradients``), spread over the worker processes
    (``parallel_map``)."""
    if rows is not None and len(rows) == 0:
        raise UsageError("no rows to train on")
    log = TrainRunLog()
    state = AdamWState(params, settings.adamw)
    mask_rng = generator(seed, 0xD0) if settings.mc_delta > 0 else None
    batches = chain.from_iterable(
        iter_batches(dataset, settings.batch_size, derive_seed(seed, epoch), rows)
        for epoch in count())
    for t, (images, labels) in zip(range(1, schedule.total_steps + 1), batches):
        if mask_rng is not None:
            images = mc_dropout_mask(images, settings.mc_delta, mask_rng)
        parts = chain(*parallel_map(chunk_gradients, (config, params, images, labels),
                                    range(-(-len(labels) // FORWARD_CHUNK))))
        loss_value, grad_vector = _sum_parts(parts)
        if not np.isfinite(loss_value):
            raise NumericError(f"non-finite loss at step {t}")
        lr = lr_at(schedule, t)
        adamw_step(params, grad_vector, state, lr)
        log.steps.append((t, lr, loss_value))
        if on_step is not None:
            on_step(t, params, log)
    return log


def chunk_gradients(config: PerceiverConfig, params: ParamStore, images, labels,
                    chunks) -> list[tuple[float, np.ndarray]]:
    """(loss, gradient vector laid out like ``params.vector``) of each
    FORWARD_CHUNK-image chunk of a batch named in ``chunks``, both
    weighted by the chunk's share of the batch, so the batch's mean loss
    and its gradient are the sums of the parts. A chunk that is the
    whole batch is one graph, unweighted. Every parameter of a model's
    store reaches its loss, so each has a gradient. One chunk's graph is
    freed before the next chunk's is built."""
    parts = []
    for c in chunks:
        rows = slice(c * FORWARD_CHUNK, (c + 1) * FORWARD_CHUNK)
        loss = batch_loss(config, params, images[rows], labels[rows])
        loss_value = float(loss.data)
        found = loss.backward()
        grad_vector = np.concatenate([found[p].ravel() for _, p in params.items()])
        del loss, found
        weight = len(labels[rows]) / len(labels)
        if weight != 1.0:
            loss_value *= weight
            grad_vector *= weight
        parts.append((loss_value, grad_vector))
    return parts


def _sum_parts(parts) -> tuple[float, np.ndarray]:
    """Loss and gradient vector summed over weighted chunk parts, in order."""
    parts = iter(parts)
    loss_value, grad_vector = next(parts)
    for loss, more in parts:
        loss_value += loss
        grad_vector += more
    return loss_value, grad_vector


def train_member(
    config: PerceiverConfig,
    dataset: Dataset,
    schedule: LRSchedule,
    member_seed: int,
    settings: TrainSettings = TrainSettings(),
    fit_temperature: bool = True,
) -> tuple[ParamStore, float, TrainRunLog]:
    """One independent training: seeded init, seeded shuffling, then an
    optional temperature fit on a 10% held-out calibration split.

    The split is a pair of row-index arrays into ``dataset``
    (``calibration_rows``): training reads its rows from ``dataset``
    itself, and only the calibration rows are copied, for the fit."""
    if len(dataset) == 0:
        raise UsageError("empty dataset")
    params = init_params(config, derive_seed(member_seed, 1))
    temperature = 1.0
    train_rows, calib_rows = (calibration_rows(len(dataset), member_seed)
                              if fit_temperature else (None, None))
    log = train_model(config, params, dataset, schedule,
                      derive_seed(member_seed, 2), settings, rows=train_rows)
    frozen = params.detached()
    if calib_rows is not None:
        logits = forward_logits(config, frozen, dataset.images[calib_rows])
        temperature, _ = temperature_scale(logits, dataset.labels[calib_rows])
    return frozen, temperature, log


# ---- strategies -----------------------------------------------------


def deep_ensemble_train(
    config: PerceiverConfig,
    ensemble_size: int,
    base_seed: int,
    dataset: Dataset,
    schedule: LRSchedule,
    settings: TrainSettings = TrainSettings(),
) -> tuple[Predictor, list[TrainRunLog]]:
    """Independently seeded members, each temperature-scaled before the
    uniform probability average. Members train in worker processes
    (``parallel_map``); each is the same in any of them. Each worker is
    sent its own copy of ``dataset``, the only copy its members train on
    (``train_member``)."""
    if ensemble_size < 1:
        raise UsageError(f"ensemble_size must be >= 1, got {ensemble_size}")
    shares = parallel_map(_train_members,
                          (config, dataset, schedule, base_seed, settings),
                          range(ensemble_size))
    members, temps, logs = (list(column) for column in zip(*chain(*shares)))
    return Predictor("deep_ensemble", config, members, temperatures=temps), logs


def _train_members(config: PerceiverConfig, dataset: Dataset, schedule: LRSchedule,
                   base_seed: int, settings: TrainSettings,
                   span: range) -> list[tuple[ParamStore, float, TrainRunLog]]:
    """``train_member`` of each deep-ensemble member index in ``span``."""
    return [train_member(config, dataset, schedule, derive_seed(base_seed, m), settings)
            for m in span]


def swa_train(
    config: PerceiverConfig,
    pretrained: ParamStore,
    dataset: Dataset,
    schedule: LRSchedule,
    seed: int,
    settings: TrainSettings = TrainSettings(),
) -> tuple[Predictor, TrainRunLog]:
    """Continue from a trained solution, folding the weights into a
    running average at the end of every LR cycle."""
    if schedule.kind != "swa_linear":
        raise UsageError(f"swa_train needs a swa_linear schedule, got {schedule.kind}")
    targets = set(capture_steps(schedule))  # LRSchedule makes at least one
    params = pretrained.copy(requires_grad=True)
    averaged: list[ParamStore] = []  # the running average, from the first capture

    def on_step(t, current, log):
        if t in targets:
            n = len(log.captures)  # captures folded in so far
            snapshot = current.detached()
            averaged[:] = [swa_update(averaged[0], n, snapshot) if n else snapshot]
            log.captures.append((t, n))

    log = train_model(config, params, dataset, schedule, seed, settings, on_step)
    return Predictor("swa", config, averaged), log


def _train_capturing(config, params, dataset, schedule, seed, settings,
                     members: list[ParamStore]) -> TrainRunLog:
    """``train_model`` that appends a frozen copy of the weights to
    ``members`` at the last step of every schedule cycle."""
    targets = set(capture_steps(schedule))

    def on_step(t, current, log):
        if t in targets:
            members.append(current.detached())
            log.captures.append((t, len(members) - 1))

    return train_model(config, params, dataset, schedule, seed, settings, on_step)


def snapshot_train(
    config: PerceiverConfig,
    seed: int,
    dataset: Dataset,
    schedule: LRSchedule,
    settings: TrainSettings = TrainSettings(),
    average_last: int | None = None,
) -> tuple[Predictor, TrainRunLog]:
    """Single run from a fresh init; weights are captured at the last
    step of each schedule cycle (the per-cycle LR minimum of cosine
    restarts). Only the last ``average_last`` captures (all, by default)
    become members, whose softmax outputs prediction averages."""
    params = init_params(config, derive_seed(seed, 1))
    members: list[ParamStore] = []
    log = _train_capturing(config, params, dataset, schedule,
                           derive_seed(seed, 2), settings, members)
    if average_last:
        members = members[-average_last:]
    return Predictor("snapshot", config, members), log


def fast_train(
    config: PerceiverConfig,
    pretrained: ParamStore,
    dataset: Dataset,
    schedule: LRSchedule,
    seed: int,
    settings: TrainSettings = TrainSettings(),
) -> tuple[Predictor, TrainRunLog]:
    """Cyclic-LR collection started from a trained solution, capturing at
    the end of every schedule cycle; the starting weights participate as
    member 0."""
    params = pretrained.copy(requires_grad=True)
    members: list[ParamStore] = [pretrained.detached()]
    log = _train_capturing(config, params, dataset, schedule, seed, settings,
                           members)
    return Predictor("fast", config, members), log


# ---- MC dropout -----------------------------------------------------


def mc_dropout_mask(image: np.ndarray, delta: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Zero each pixel (all channels) independently with probability
    delta; survivors are not rescaled. Leading axes of ``image`` are
    batch axes: one (B, H, W) draw is B consecutive (H, W) draws."""
    image = np.asarray(image, dtype=np.float64)
    if delta == 0.0:
        return image.copy()
    return image * _kept_pixels(rng.random(size=image.shape[:-1]), delta)[..., None]


def _kept_pixels(uniforms: np.ndarray, delta: float, out=None) -> np.ndarray:
    """Which pixels a mask keeps, from one uniform draw per pixel: each
    kept with probability 1 - delta."""
    if not (0.0 <= delta <= 1.0):
        raise RangeError(f"delta must lie in [0, 1], got {delta}")
    return np.greater_equal(uniforms, delta, out=out)


def mc_predict(config: PerceiverConfig, params: ParamStore, image,
               delta: float, num_samples: int, seed: int) -> np.ndarray:
    """Mean softmax over ``num_samples`` freshly masked forwards, sample
    i masked as ``mc_dropout_mask`` masks with ``generator(seed, i)``:
    the one-image case of ``_mc_probabilities``, so the byte side runs
    once, on the image and the zero image, and no Generator is built."""
    if num_samples < 1:
        raise UsageError(f"num_samples must be >= 1, got {num_samples}")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise DimensionError(f"mc_predict takes one H x W x C image, got {image.shape}")
    return _mc_probabilities(config, params, image[None], delta, num_samples, [seed])[0]


def _latent_pass_rows(config: PerceiverConfig) -> int:
    """Masked samples per MC latent pass: as many as keep a pass's cross
    score array near 1 MiB (2**17 entries), and at least FORWARD_CHUNK.
    Fewer, larger passes pay less per-op overhead on small models; on
    larger ones the score array outgrows the cache first."""
    scores_per_row = config.heads * config.latent_count * config.num_bytes
    return max(FORWARD_CHUNK, 2**17 // scores_per_row)


def _mc_probabilities(config: PerceiverConfig, params: ParamStore, images,
                      delta: float, num_samples: int, seeds) -> np.ndarray:
    """Each image's mean softmax over ``num_samples`` masked forwards,
    image j's sample i masked as ``mc_dropout_mask`` masks with
    ``generator(seeds[j], i)``, whose first draws ``rng.first_uniforms``
    replicates with no Generator per sample.

    A dropped pixel is a zero pixel, and the byte side works pixel row
    by pixel row (``byte_kv``), so each sample's K/V row at a pixel is
    either its image's row or the all-zero image's row. Each group of
    FORWARD_CHUNK images therefore runs the byte side once, on its
    images and one zero image, and the latent side on K/V rows gathered
    from those, in passes of ``_latent_pass_rows`` samples taken in
    (image, sample) order across image boundaries. The rows, and so the
    logits, bit-equal those of forwards of the masked images."""
    if delta == 0.0:
        # every sample is the unmasked forward; return it bit-exactly
        # rather than averaging identical values
        return softmax_rows(forward_logits(config, params, images))
    n, m = num_samples, config.num_bytes
    pass_rows = _latent_pass_rows(config)
    probs = np.empty((len(images), config.num_classes))
    for start in range(0, len(images), FORWARD_CHUNK):
        group = images[start : start + FORWARD_CHUNK]
        g = len(group)
        # both arrays are sized before any draw, so numpy refuses a
        # num_samples too large to hold at once
        sample_seeds = derive_seeds(seeds[start : start + g], n).ravel()
        kept = np.empty((g * n, m), dtype=bool)
        # a stream's H x W draw fills its M pixels in row-major order
        for row, uniforms in zip(kept, first_uniforms(sample_seeds, m)):
            _kept_pixels(uniforms, delta, out=row)
        kv = byte_kv(config, params, np.concatenate([group, np.zeros_like(group[:1])]))
        # with K and V seen as (g + 1)M rows (the images, then zeros),
        # image j's samples take row jM + p at a kept pixel p and gM + p
        # at a dropped one
        owner = np.repeat(np.arange(g) * m, n)[:, None]
        rows = np.where(kept, owner, g * m) + np.arange(m)
        flat = {grp: [t.data.reshape((g + 1) * m, -1) for t in pair]
                for grp, pair in kv.items()}
        logits = np.empty((g * n, config.num_classes))
        for i in range(0, g * n, pass_rows):
            picked = rows[i : i + pass_rows]
            # gathered inline, so one pass's K/V is freed before the next
            logits[i : i + pass_rows] = latent_logits(config, params, {
                grp: [view_leaf(a.take(picked, axis=0), False) for a in pair]
                for grp, pair in flat.items()}).data
        # axis-1 sums add each image's rows in sample order
        probs[start : start + g] = softmax_rows(logits).reshape(g, n, -1).sum(axis=1) / n
    return probs
