"""Data ingestion, synthetic generation, batching, and permutation."""

import dataclasses

import numpy as np
import pytest

import uaperceiver as ua
from uaperceiver.data import (
    _class_pattern,
    apply_permutation,
    calibration_rows,
    channel_stats,
    iter_batches,
    spatial_permutation,
    standardize,
)
from uaperceiver.errors import DimensionError, FormatError, UsageError
from uaperceiver.rng import generator, shuffled_indices


# ---- CIFAR fixtures --------------------------------------------------


def cifar10_record(label, fill):
    return bytes([label]) + bytes([fill]) * 3072


def cifar100_record(coarse, fine, fill):
    return bytes([coarse, fine]) + bytes([fill]) * 3072


def test_cifar10_two_record_fixture(tmp_path):
    # record 0: label 3, all pixels 0; record 1: label 9, all pixels 255
    path = tmp_path / "batch.bin"
    path.write_bytes(cifar10_record(3, 0) + cifar10_record(9, 255))
    ds = ua.load_cifar(path, "cifar10")
    assert len(ds) == 2
    assert ds.images.shape == (2, 32, 32, 3)
    assert ds.labels.tolist() == [3, 9]
    np.testing.assert_array_equal(ds.images[0], np.zeros((32, 32, 3)))
    np.testing.assert_array_equal(ds.images[1], np.ones((32, 32, 3)))


def test_cifar10_plane_layout(tmp_path):
    # R plane 255, G plane 0, B plane 128 distinguishes channel order
    payload = bytes([1]) + bytes([255]) * 1024 + bytes([0]) * 1024 + bytes([128]) * 1024
    path = tmp_path / "batch.bin"
    path.write_bytes(payload)
    ds = ua.load_cifar(path, "cifar10")
    np.testing.assert_allclose(ds.images[0, 0, 0], [1.0, 0.0, 128 / 255], atol=1e-15)


def test_cifar100_fine_label(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(cifar100_record(7, 42, 10) + cifar100_record(0, 99, 20))
    ds = ua.load_cifar(path, "cifar100")
    assert ds.labels.tolist() == [42, 99]  # the fine byte, not the coarse one
    np.testing.assert_allclose(ds.images[0], np.full((32, 32, 3), 10 / 255),
                               atol=1e-15)


def test_cifar_equals_its_out_of_place_expression(tmp_path):
    raw = np.random.default_rng(3).integers(0, 256, size=(5, 3073), dtype=np.uint8)
    raw[:, 0] %= 10
    path = tmp_path / "batch.bin"
    path.write_bytes(raw.tobytes())
    planes = raw[:, 1:].reshape(5, 3, 32, 32)
    expected = planes.transpose(0, 2, 3, 1).astype(np.float64) / 255.0
    np.testing.assert_array_equal(ua.load_cifar(path, "cifar10").images, expected)


def test_cifar_truncated_file(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(cifar10_record(1, 0)[:-5])
    with pytest.raises(FormatError):
        ua.load_cifar(path, "cifar10")


def test_cifar_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(FormatError):
        ua.load_cifar(path, "cifar10")


def test_cifar_label_out_of_range(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(cifar10_record(10, 0))
    with pytest.raises(FormatError):
        ua.load_cifar(path, "cifar10")


def test_cifar_unknown_variant(tmp_path):
    with pytest.raises(UsageError):
        ua.load_cifar(tmp_path / "x", "cifar20")


# ---- synthetic data --------------------------------------------------


def test_synth_deterministic():
    a = ua.synth_dataset(5, 40)
    b = ua.synth_dataset(5, 40)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = ua.synth_dataset(6, 40)
    assert not np.array_equal(a.images, c.images)


def test_synth_equals_its_out_of_place_expression():
    ds = ua.synth_dataset(5, 40, resolution=8, noise=0.3, contrast=0.7)
    rng = generator(5, 0)
    labels = rng.integers(0, 3, size=40)
    patterns = np.stack([_class_pattern(k, 3, 8, 3) for k in range(3)])
    patterns = 0.5 + 0.7 * (patterns - 0.5)
    expected = np.clip(patterns[labels] + rng.normal(0.0, 0.3, size=(40, 8, 8, 3)), 0.0, 1.0)
    np.testing.assert_array_equal(ds.labels, labels)
    np.testing.assert_array_equal(ds.images, expected)


def test_synth_value_and_label_ranges():
    ds = ua.synth_dataset(0, 100, num_classes=4)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert ds.labels.min() >= 0 and ds.labels.max() < 4


def test_synth_classes_are_separable():
    """Mean L2 distance between images of different classes exceeds 5x
    the mean distance within a class, at the default noise level."""
    ds = ua.synth_dataset(1, 1000)
    flat = ds.images.reshape(len(ds), -1)
    rng = np.random.default_rng(0)
    intra, inter = [], []
    for _ in range(2000):
        i, j = rng.integers(0, len(ds), size=2)
        if i == j:
            continue
        dist = np.linalg.norm(flat[i] - flat[j])
        (intra if ds.labels[i] == ds.labels[j] else inter).append(dist)
    assert np.mean(inter) > 5.0 * np.mean(intra)


def test_synth_separability_direct():
    # a sharper statement of the same property: images are closer to
    # their own class mean than to any other class mean
    ds = ua.synth_dataset(2, 300)
    means = np.stack([ds.images[ds.labels == k].mean(axis=0) for k in range(3)])
    flat = ds.images.reshape(len(ds), -1)
    dists = np.stack([
        np.linalg.norm(flat - means[k].ravel()[None], axis=1) for k in range(3)
    ])
    assert (dists.argmin(axis=0) == ds.labels).mean() > 0.99


def test_synth_contrast_flattens_patterns():
    sharp = ua.synth_dataset(3, 200, noise=0.0, contrast=1.0)
    flat = ua.synth_dataset(3, 200, noise=0.0, contrast=0.1)
    assert flat.images.std() < sharp.images.std()


def test_synth_validation():
    with pytest.raises(UsageError):
        ua.synth_dataset(0, 10, num_classes=1)
    with pytest.raises(UsageError):
        ua.synth_dataset(0, 10, resolution=2)


# ---- batching and normalization -------------------------------------


def test_batches_deterministic_order(tiny_dataset):
    a = ua.make_batches(tiny_dataset, 4, seed=9)
    b = ua.make_batches(tiny_dataset, 4, seed=9)
    for (xa, ya), (xb, yb) in zip(a, b):
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)


def test_batches_cover_dataset_once(tiny_dataset):
    batches = ua.make_batches(tiny_dataset, 5, seed=0)
    seen = np.concatenate([y for _, y in batches])
    assert len(seen) == len(tiny_dataset)
    # the shuffle is a bijection: label multiset is preserved
    assert sorted(seen) == sorted(tiny_dataset.labels)
    # short last batch kept: 24 = 4*5 + 4
    assert [len(y) for _, y in batches] == [5, 5, 5, 5, 4]


def test_batches_match_fisher_yates(tiny_dataset):
    batches = ua.make_batches(tiny_dataset, 4, seed=31)
    order = shuffled_indices(len(tiny_dataset), 31)
    flat = np.concatenate([x for x, _ in batches])
    np.testing.assert_array_equal(flat, tiny_dataset.images[order])


def test_batches_of_rows_equal_batches_of_their_copy(tiny_dataset):
    rows = shuffled_indices(len(tiny_dataset), 9)[:17]
    copy = dataclasses.replace(tiny_dataset, images=tiny_dataset.images[rows],
                               labels=tiny_dataset.labels[rows])
    copied = ua.make_batches(copy, 5, 11)
    gathered = list(iter_batches(tiny_dataset, 5, 11, rows))
    assert [len(labels) for _, labels in gathered] == [5, 5, 5, 2]
    for (images, labels), (want_images, want_labels) in zip(gathered, copied, strict=True):
        np.testing.assert_array_equal(images, want_images)
        np.testing.assert_array_equal(labels, want_labels)


def test_batch_size_validation(tiny_dataset):
    with pytest.raises(UsageError):
        ua.make_batches(tiny_dataset, 0, seed=0)


def test_standardized_train_stats():
    ds = ua.synth_dataset(4, 500)
    normalized = standardize(ds, channel_stats(ds))
    mean = normalized.images.mean(axis=(0, 1, 2))
    std = normalized.images.std(axis=(0, 1, 2))
    np.testing.assert_allclose(mean, np.zeros(3), atol=1e-6)
    np.testing.assert_allclose(std, np.ones(3), atol=1e-6)


def test_test_split_uses_train_stats():
    train = ua.synth_dataset(5, 400)
    test = ua.synth_dataset(6, 100, split="test")
    stats = channel_stats(train)
    normalized = standardize(test, stats)
    expected = (test.images - stats.mean) / stats.std
    np.testing.assert_array_equal(normalized.images, expected)


def test_calibration_rows_sizes():
    train, calib = calibration_rows(100, 0)
    assert len(train) == 90 and len(calib) == 10
    # disjoint and exhaustive
    assert sorted(np.concatenate([train, calib])) == list(range(100))


def test_calibration_rows_rejects_tiny():
    with pytest.raises(UsageError):
        calibration_rows(1, 0)


# ---- pixel permutation ----------------------------------------------


def test_identity_permutation_is_noop(tiny_dataset):
    out = apply_permutation(tiny_dataset, np.arange(16))
    np.testing.assert_array_equal(out.images, tiny_dataset.images)


def test_permutation_inverse_restores(tiny_dataset):
    perm = spatial_permutation(16, seed=3)
    inverse = np.argsort(perm)
    out = apply_permutation(apply_permutation(tiny_dataset, perm), inverse)
    np.testing.assert_array_equal(out.images, tiny_dataset.images)


def test_permutation_preserves_pixel_multiset(tiny_dataset):
    out = ua.permute_pixels(tiny_dataset, seed=4)
    a = np.sort(tiny_dataset.images.reshape(len(tiny_dataset), -1), axis=1)
    b = np.sort(out.images.reshape(len(out), -1), axis=1)
    np.testing.assert_array_equal(a, b)


def test_permutation_length_check(tiny_dataset):
    with pytest.raises(DimensionError):
        apply_permutation(tiny_dataset, np.arange(15))


# ---- Dataset container ----------------------------------------------


def test_dataset_validation():
    with pytest.raises(DimensionError):
        ua.Dataset(np.zeros((2, 4, 4, 1)), np.zeros(3, dtype=int), 2, "x")
    with pytest.raises(UsageError):
        ua.Dataset(np.zeros((2, 4, 4, 1)), np.array([0, 5]), 2, "x")

