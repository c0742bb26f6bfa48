"""Dataset ingestion and desk-scale synthetic data.

CIFAR-10/100 are read straight from the canonical binary layout
(label byte(s) followed by 3072 pixel bytes as R, G, B planes in
row-major 32 x 32 order). The synthetic dataset substitutes for CIFAR
when a full training run is out of budget: each class is an oriented
Gaussian blob at a class-specific position plus seeded pixel noise.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError, UsageError
from .rng import derive_seed, generator, shuffled_indices

CIFAR_SHAPE = (32, 32, 3)  # height, width, channels
CIFAR_CLASSES = {"cifar10": 10, "cifar100": 100}
CIFAR_PIXEL_BYTES = 3072  # 3 planes of 32*32


@dataclass(frozen=True)
class Dataset:
    images: np.ndarray  # n x H x W x channels, floats
    labels: np.ndarray  # n ints in [0, num_classes)
    num_classes: int
    name: str
    split: str = "train"

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0] or self.images.shape[0] < 1:
            raise DimensionError("images/labels cardinality mismatch or empty dataset")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise UsageError("labels out of range")

    def __len__(self) -> int:
        return self.images.shape[0]


def load_cifar(path, variant: str) -> Dataset:
    """Parse a CIFAR binary batch file (bit-deterministic)."""
    if variant not in CIFAR_CLASSES:
        raise UsageError(f"unknown CIFAR variant {variant!r}")
    num_classes = CIFAR_CLASSES[variant]
    label_bytes = 1 if variant == "cifar10" else 2  # cifar100: coarse, fine
    raw = Path(path).read_bytes()
    record = label_bytes + CIFAR_PIXEL_BYTES
    if len(raw) == 0 or len(raw) % record != 0:
        raise FormatError(
            f"{path}: size {len(raw)} is not a positive multiple of the "
            f"{record}-byte {variant} record"
        )
    n = len(raw) // record
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(n, record)
    labels = arr[:, label_bytes - 1].astype(np.int64)  # fine label for cifar100
    if labels.max() >= num_classes:
        raise FormatError(
            f"{path}: label byte {int(labels.max())} >= {num_classes}"
        )
    planes = arr[:, label_bytes:].reshape(n, 3, 32, 32)
    images = planes.transpose(0, 2, 3, 1).astype(np.float64)
    images /= 255.0
    return Dataset(images, labels, num_classes, name=variant, split="train")


# ---- synthetic desk-scale data --------------------------------------


def _class_pattern(k: int, num_classes: int, resolution: int, channels: int
                   ) -> np.ndarray:
    """Oriented Gaussian blob with class-specific position and angle."""
    coords = (np.arange(resolution) + 0.5) / resolution
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    phase = 2.0 * math.pi * k / num_classes
    cy = 0.5 + 0.28 * math.sin(phase)
    cx = 0.5 + 0.28 * math.cos(phase)
    angle = math.pi * k / num_classes
    ca, sa = math.cos(angle), math.sin(angle)
    u = (xx - cx) * ca + (yy - cy) * sa
    v = -(xx - cx) * sa + (yy - cy) * ca
    blob = np.exp(-0.5 * ((u / 0.22) ** 2 + (v / 0.09) ** 2))
    chans = np.empty((resolution, resolution, channels))
    for c in range(channels):
        w = 0.35 + 0.65 * abs(math.cos(math.pi * (k + c) / num_classes + 0.3))
        chans[..., c] = 0.08 + 0.84 * w * blob
    return chans


def synth_dataset(seed: int, n: int, resolution: int = 16, num_classes: int = 3,
                  channels: int = 3, noise: float = 0.02, contrast: float = 1.0,
                  split: str = "train") -> Dataset:
    """Fully seeded synthetic classification set; values stay in [0, 1].

    ``contrast`` scales the class patterns toward mid-gray; together
    with ``noise`` it sets how ambiguous the task is (contrast 1 with
    the default noise is near-separable).
    """
    if num_classes < 2:
        raise UsageError(f"num_classes must be >= 2, got {num_classes}")
    if resolution < 4:
        raise UsageError(f"resolution must be >= 4, got {resolution}")
    rng = generator(seed, 0)
    labels = rng.integers(0, num_classes, size=n)
    patterns = np.stack(
        [_class_pattern(k, num_classes, resolution, channels)
         for k in range(num_classes)]
    )
    patterns = 0.5 + contrast * (patterns - 0.5)
    images = patterns[labels]
    images += rng.normal(0.0, noise, size=(n, resolution, resolution, channels))
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images, labels.astype(np.int64), num_classes,
                   name=f"synth{resolution}x{resolution}k{num_classes}", split=split)


# ---- batching and normalization -------------------------------------


@dataclass(frozen=True)
class ChannelStats:
    mean: np.ndarray  # per channel
    std: np.ndarray


def channel_stats(dataset: Dataset) -> ChannelStats:
    """Per-channel standardization statistics (train split only)."""
    axes = (0, 1, 2)
    mean = dataset.images.mean(axis=axes)
    std = dataset.images.std(axis=axes)
    std = np.where(std == 0.0, 1.0, std)
    return ChannelStats(mean, std)


def standardize(dataset: Dataset, stats: ChannelStats) -> Dataset:
    images = dataset.images - stats.mean
    images /= stats.std
    return replace(dataset, images=images)


def iter_batches(dataset: Dataset, batch_size: int, seed: int, rows=None
                 ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Seeded Fisher-Yates shuffle of ``rows`` (row indices into
    ``dataset``; all rows by default) into (images, labels) batches; the
    last short batch is kept. The shuffle is drawn at the call, and each
    batch is gathered only when the iteration reaches it, so no more
    than one batch's copy of the data exists at a time."""
    if batch_size < 1:
        raise UsageError(f"batch_size must be >= 1, got {batch_size}")
    if rows is None:
        order = shuffled_indices(len(dataset), seed)
    else:
        order = np.asarray(rows)[shuffled_indices(len(rows), seed)]
    return ((dataset.images[picked], dataset.labels[picked])
            for picked in (order[i : i + batch_size]
                           for i in range(0, len(order), batch_size)))


def make_batches(dataset: Dataset, batch_size: int, seed: int
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every batch of ``iter_batches`` over all of ``dataset``, gathered
    at once."""
    return list(iter_batches(dataset, batch_size, seed))


def calibration_rows(n: int, seed: int, fraction: float = 0.1
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(training rows, calibration rows) of an n-row dataset: the last
    fraction of a seeded shuffle is held out for calibration."""
    n_cal = max(1, int(math.ceil(fraction * n)))
    if n_cal >= n:
        raise UsageError("calibration split would consume the whole dataset")
    order = shuffled_indices(n, derive_seed(seed, 0x5EED))
    return order[: n - n_cal], order[n - n_cal :]
