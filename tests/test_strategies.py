"""Training strategies: member independence, weight averaging, capture
placement and MC dropout."""

import dataclasses
import math
import weakref

import numpy as np
import pytest

import uaperceiver as ua
from uaperceiver import model, strategies
from uaperceiver import tensor as T
from uaperceiver.data import calibration_rows, channel_stats, make_batches, standardize
from uaperceiver.errors import DimensionError, RangeError, UsageError
from uaperceiver.model import (FORWARD_CHUNK, batch_loss, forward_logits, init_params,
                               score_counter)
from uaperceiver.metrics import softmax_rows, temperature_scale
from uaperceiver.optim import AdamWState, adamw_step
from uaperceiver.rng import derive_seed, generator
from uaperceiver.schedules import lr_at
from uaperceiver.strategies import chunk_gradients, train_model

from conftest import traced_peak
from test_model import CRITERION7, LEARNABLE_UNSHARED_R3

FAST = ua.TrainSettings(batch_size=4)


def constant(steps, lr=1e-3):
    return ua.LRSchedule("constant", lr, lr, steps, 1)


# ---- deep ensembles --------------------------------------------------


def test_deep_m1_equals_single_training(tiny_config, tiny_dataset):
    predictor, _ = ua.deep_ensemble_train(
        tiny_config, 1, 123, tiny_dataset, constant(4), FAST
    )
    assert predictor.kind == "deep_ensemble"
    store, temp, _ = ua.train_member(
        tiny_config, tiny_dataset, constant(4), derive_seed(123, 0), FAST
    )
    assert predictor.members[0].allclose(store)
    assert predictor.temperatures[0] == temp


def test_deep_member_isolation_oracle(tiny_config, tiny_dataset):
    """Member m trained alone with the derived seed bit-equals ensemble
    member m."""
    predictor, _ = ua.deep_ensemble_train(
        tiny_config, 3, 7, tiny_dataset, constant(3), FAST
    )
    for m in (0, 2):
        store, _, _ = ua.train_member(
            tiny_config, tiny_dataset, constant(3), derive_seed(7, m), FAST
        )
        assert predictor.members[m].allclose(store)


def test_deep_members_differ(tiny_config, tiny_dataset):
    predictor, _ = ua.deep_ensemble_train(
        tiny_config, 2, 7, tiny_dataset, constant(3), FAST
    )
    assert not predictor.members[0].allclose(predictor.members[1])


def test_deep_rejects_empty(tiny_config, tiny_dataset):
    with pytest.raises(UsageError):
        ua.deep_ensemble_train(tiny_config, 0, 0, tiny_dataset, constant(2), FAST)


def test_predictor_rows_sum_to_one(tiny_config, tiny_dataset):
    predictor, _ = ua.deep_ensemble_train(
        tiny_config, 2, 5, tiny_dataset, constant(3), FAST
    )
    probs = predictor.probabilities(tiny_dataset.images[:6])
    assert probs.shape == (6, 3)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)


# ---- ensemble averaging ----------------------------------------------


def test_ensemble_average_identity():
    p = np.array([[0.2, 0.8]])
    np.testing.assert_array_equal(ua.ensemble_average([p]), p)


def test_ensemble_average_two_onehots():
    out = ua.ensemble_average([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
    np.testing.assert_array_equal(out, [[0.5, 0.5]])


def test_ensemble_average_loop_oracle():
    rng = np.random.default_rng(0)
    members = [softmax_rows(rng.normal(size=(5, 4))) for _ in range(3)]
    out = ua.ensemble_average(members)
    for i in range(5):
        for k in range(4):
            expected = sum(m[i, k] for m in members) / 3
            assert abs(out[i, k] - expected) < 1e-15


def test_ensemble_average_ragged_rejected():
    with pytest.raises(Exception):
        ua.ensemble_average([np.ones((2, 3)) / 3, np.ones((3, 3)) / 3])


# ---- SWA -------------------------------------------------------------


def test_swa_update_identical_store_unchanged(tiny_config):
    from uaperceiver.params import swa_update

    w = init_params(tiny_config, 0).detached()
    out = swa_update(w, 3, w)
    assert out.allclose(w, atol=1e-15)


def test_swa_update_scalar_sequence():
    from uaperceiver.params import ParamStore, swa_update

    def scalar_store(v):
        return ParamStore({"x": (1,)}, [v])

    avg = scalar_store(1.0)
    avg = swa_update(avg, 1, scalar_store(2.0))
    avg = swa_update(avg, 2, scalar_store(3.0))
    np.testing.assert_allclose(avg["x"].data, [2.0], atol=1e-15)


def test_swa_single_capture_equals_final_iterate(tiny_config, tiny_dataset):
    pre = init_params(tiny_config, 1).detached()
    schedule = ua.LRSchedule("swa_linear", 1e-3, 2e-4, 4, 4)  # c = n: one capture
    predictor, log = ua.swa_train(tiny_config, pre, tiny_dataset, schedule, 9, FAST)
    assert log.captures == [(4, 0)]
    # replay the same trajectory and compare the final weights
    params = pre.copy(requires_grad=True)
    train_model(tiny_config, params, tiny_dataset, schedule, 9, FAST)
    assert predictor.members[0].allclose(params.detached())


def test_swa_mean_replay_oracle(tiny_config, tiny_dataset):
    pre = init_params(tiny_config, 2).detached()
    schedule = ua.LRSchedule("swa_linear", 1e-3, 2e-4, 6, 2)  # captures at 2,4,6
    predictor, log = ua.swa_train(tiny_config, pre, tiny_dataset, schedule, 3, FAST)
    assert [t for t, _ in log.captures] == [2, 4, 6]
    captured = []
    params = pre.copy(requires_grad=True)
    train_model(
        tiny_config, params, tiny_dataset, schedule, 3, FAST,
        on_step=lambda t, p, _log: captured.append(p.detached()) if t % 2 == 0
        else None,
    )
    mean = captured[0].map(lambda a: a / len(captured))
    for extra in captured[1:]:
        mean = mean.map2(extra, lambda a, b: a + b / len(captured))
    assert predictor.members[0].allclose(mean, atol=1e-12)


def test_swa_rejects_cycle_longer_than_budget():
    # a cycle longer than the step budget would produce zero captures;
    # the schedule itself refuses to be built
    with pytest.raises(UsageError):
        ua.LRSchedule("swa_linear", 1e-3, 2e-4, 4, 5)


def test_swa_requires_swa_schedule(tiny_config, tiny_dataset):
    pre = init_params(tiny_config, 0).detached()
    with pytest.raises(UsageError):
        ua.swa_train(tiny_config, pre, tiny_dataset, constant(4), 0, FAST)


# ---- snapshot --------------------------------------------------------


def test_snapshot_capture_count_and_steps(tiny_config, tiny_dataset):
    schedule = ua.LRSchedule("snapshot_cosine", 1e-3, 0.0, 8, 4)
    predictor, log = ua.snapshot_train(tiny_config, 4, tiny_dataset, schedule, FAST)
    assert len(predictor.members) == 4
    assert [t for t, _ in log.captures] == [2, 4, 6, 8]


def test_snapshot_lr_at_captures_is_cycle_minimum(tiny_config, tiny_dataset):
    schedule = ua.LRSchedule("snapshot_cosine", 1e-3, 0.0, 8, 2)
    _, log = ua.snapshot_train(tiny_config, 4, tiny_dataset, schedule, FAST)
    c = schedule.cycle_length
    lrs = {t: lr for t, lr, _ in log.steps}
    for t, _ in log.captures:
        assert lrs[t] == min(lrs[u] for u in range(t - c + 1, t + 1))


def test_snapshot_average_last(tiny_config, tiny_dataset):
    """average_last=m keeps exactly the last m captures of the full run."""
    schedule = ua.LRSchedule("snapshot_cosine", 1e-3, 0.0, 8, 4)
    runs = [
        ua.snapshot_train(tiny_config, 4, tiny_dataset, schedule, FAST,
                          average_last=last)[0]
        for last in (2, None)
    ]
    last_two, every = runs
    assert last_two.ensemble_size == 2 and every.ensemble_size == 4
    for kept, full in zip(last_two.members, every.members[-2:]):
        assert kept.names() == full.names()
        for name, t in kept.items():
            assert np.array_equal(t.data, full[name].data)


# ---- fast ------------------------------------------------------------


def test_fast_member_count(tiny_config, tiny_dataset):
    pre = init_params(tiny_config, 5).detached()
    schedule = ua.LRSchedule("fast_cyclic", 1e-3, 1e-4, 6, 3)
    predictor, log = ua.fast_train(tiny_config, pre, tiny_dataset, schedule, 6, FAST)
    assert len(predictor.members) == 4  # starting weights + one per cycle
    assert predictor.members[0].allclose(pre)
    assert [t for t, _ in log.captures] == [2, 4, 6]


def test_fast_zero_lr_members_all_equal_start(tiny_config, tiny_dataset):
    pre = init_params(tiny_config, 6).detached()
    schedule = ua.LRSchedule("fast_cyclic", 0.0, 0.0, 4, 2)
    predictor, _ = ua.fast_train(tiny_config, pre, tiny_dataset, schedule, 6, FAST)
    for member in predictor.members:
        assert member.allclose(pre)


def test_fast_lr_trace_matches_closed_form(tiny_config, tiny_dataset):
    pre = init_params(tiny_config, 7).detached()
    schedule = ua.LRSchedule("fast_cyclic", 5e-6, 5e-7, 20, 4)
    _, log = ua.fast_train(tiny_config, pre, tiny_dataset, schedule, 8, FAST)
    for t, lr, _ in log.steps:
        assert lr == ua.lr_at(schedule, t)


# ---- MC dropout ------------------------------------------------------


def test_mask_delta_zero_identity():
    image = np.random.default_rng(0).random((4, 4, 3))
    out = ua.mc_dropout_mask(image, 0.0, generator(0, 0))
    np.testing.assert_array_equal(out, image)


def test_mask_delta_one_zeroes_everything():
    image = np.random.default_rng(0).random((4, 4, 3)) + 0.1
    out = ua.mc_dropout_mask(image, 1.0, generator(0, 0))
    np.testing.assert_array_equal(out, np.zeros_like(image))


def test_mask_zeroes_whole_pixels():
    image = np.ones((8, 8, 3))
    out = ua.mc_dropout_mask(image, 0.5, generator(1, 0))
    per_pixel = out.reshape(64, 3)
    for row in per_pixel:
        assert np.all(row == 0.0) or np.all(row == 1.0)


def test_mask_binomial_fraction():
    image = np.ones((100, 100, 1))
    out = ua.mc_dropout_mask(image, 0.3, generator(2, 0))
    zeroed = float((out == 0).mean())
    sigma = np.sqrt(0.3 * 0.7 / 10_000)
    assert abs(zeroed - 0.3) < 3 * sigma


def test_mask_batch_equals_per_image_masks():
    images = np.random.default_rng(3).random((5, 4, 6, 2)) + 0.1
    batched_rng, per_image_rng = generator(4, 0), generator(4, 0)
    batched = ua.mc_dropout_mask(images, 0.4, batched_rng)
    per_image = np.stack([ua.mc_dropout_mask(img, 0.4, per_image_rng)
                          for img in images])
    np.testing.assert_array_equal(batched, per_image)
    assert batched_rng.bit_generator.state == per_image_rng.bit_generator.state


def test_mask_rejects_bad_delta():
    with pytest.raises(RangeError):
        ua.mc_dropout_mask(np.ones((2, 2, 1)), 1.5, generator(0, 0))


@pytest.mark.parametrize("delta", [1.5, -0.1])
def test_mc_predict_rejects_delta_outside_the_unit_interval(tiny_config, delta):
    params = init_params(tiny_config, 8).detached()
    with pytest.raises(RangeError, match="delta must lie in"):
        ua.mc_predict(tiny_config, params, np.ones((4, 4, 1)), delta, 5, 77)


def test_mc_predict_delta_zero_equals_forward(tiny_config):
    params = init_params(tiny_config, 8).detached()
    image = np.random.default_rng(9).random((4, 4, 1))
    probs = ua.mc_predict(tiny_config, params, image, 0.0, 5, 77)
    direct = softmax_rows(forward_logits(tiny_config, params, image))[0]
    np.testing.assert_array_equal(probs, direct)


def test_mc_predict_replay_oracle(tiny_config):
    params = init_params(tiny_config, 10).detached()
    image = np.random.default_rng(11).random((4, 4, 1))
    n, seed, delta = 6, 55, 0.25
    probs = ua.mc_predict(tiny_config, params, image, delta, n, seed)
    acc = np.zeros(3)
    for i in range(n):
        masked = ua.mc_dropout_mask(image, delta, generator(seed, i))
        acc += softmax_rows(forward_logits(tiny_config, params, masked))[0]
    np.testing.assert_array_equal(probs, acc / n)


# 6 x 10 images check the (H, W) order of each mask draw
NON_SQUARE = ua.PerceiverConfig(height=6, width=10, latent_count=4, latent_dim=16,
                                byte_dim=16, num_bands=2, depth_repeats=1,
                                tower_layers=1, heads=2)
MC_ORACLE_CONFIGS = pytest.mark.parametrize(
    "config", [CRITERION7, LEARNABLE_UNSHARED_R3, NON_SQUARE],
    ids=["criterion7", "learnable-unshared-r3", "non-square-6x10"])


@pytest.mark.parametrize("n, delta", [(n, delta) for n in (1, 8, 13) for delta in (0.25, 1.0)]
                         + [(30, 0.1)])
@MC_ORACLE_CONFIGS
def test_mc_predict_replay_oracle_standardized(config, n, delta):
    """Bit-equal to the explicitly masked forwards for both position
    encodings, unshared cross weights, one chunk, a full chunk and a
    short last chunk, on standardized images: a dropped negative pixel
    is -0.0 in the masked image. Cross score entries count every
    sample's forward. n = 30 at delta = 0.1 is the bench's mc-eval
    setting: three full chunks and a short one."""
    image = standardized_images(config, 4)[0]
    assert (image < 0).any()
    params = init_params(config, 10).detached()
    seed = 55
    before = score_counter.cross
    probs = ua.mc_predict(config, params, image, delta, n, seed)
    assert score_counter.cross - before == (
        n * config.depth_repeats * config.heads * config.latent_count
        * config.num_bytes)
    acc = np.zeros(3)
    signed_zero = False
    for i in range(n):
        masked = ua.mc_dropout_mask(image, delta, generator(seed, i))
        signed_zero |= bool(np.any((masked == 0) & np.signbit(masked)))
        acc += softmax_rows(forward_logits(config, params, masked))[0]
    assert signed_zero
    np.testing.assert_array_equal(probs, acc / n)


def standardized_images(config, count):
    """``count`` standardized synthetic images of the config's shape: square
    ones of the larger side, cropped to H x W."""
    ds = ua.synth_dataset(3, count, resolution=max(config.height, config.width),
                          num_classes=3, channels=config.channels)
    return standardize(ds, channel_stats(ds)).images[:, :config.height, :config.width]


@pytest.mark.parametrize("delta", [0.25, 1.0])
@pytest.mark.parametrize("n", [1, 13, 30])
@MC_ORACLE_CONFIGS
def test_mc_predictor_replay_oracle_across_groups(config, n, delta):
    """An MC predictor's rows over three groups of test images (two full,
    one short) bit-equal the explicitly masked forwards, image i's sample
    s masked with ``generator(derive_seed(mc_seed, i), s)``: latent passes
    that cross image and group boundaries change no row. Cross score
    entries count every sample's forward."""
    images = standardized_images(config, 2 * FORWARD_CHUNK + 3)
    assert (images < 0).any()
    params = init_params(config, 10).detached()
    mc_seed = 55
    predictor = ua.Predictor("mc_dropout", config, [params], mc_delta=delta,
                             mc_samples=n, mc_seed=mc_seed)
    before = score_counter.cross
    [probs] = predictor.member_probabilities(images)
    assert score_counter.cross - before == (
        len(images) * n * config.depth_repeats * config.heads * config.latent_count
        * config.num_bytes)
    masked = np.stack([ua.mc_dropout_mask(image, delta, generator(derive_seed(mc_seed, i), s))
                       for i, image in enumerate(images) for s in range(n)])
    assert np.any((masked == 0) & np.signbit(masked))
    # forward_logits rows do not depend on their batch, so one batched
    # call replays every masked forward
    replay = softmax_rows(forward_logits(config, params, masked)).reshape(len(images), n, -1)
    acc = np.zeros_like(probs)
    for s in range(n):
        acc += replay[:, s]
    np.testing.assert_array_equal(probs, acc / n)


def test_mc_rows_do_not_depend_on_the_slice():
    """Every contiguous slice of the test images, as a worker is sent,
    gives the rows of the whole call: a group starts at the slice, but an
    image's masks come from its index in the whole batch."""
    images = standardized_images(CRITERION7, 2 * FORWARD_CHUNK + 3)
    predictor = ua.Predictor("mc_dropout", CRITERION7, [init_params(CRITERION7, 10).detached()],
                             mc_delta=0.25, mc_samples=3, mc_seed=55)
    rows = strategies._Rows(images)
    [whole] = strategies._slice_probabilities(predictor, rows)
    for a in range(len(images)):
        for b in range(a + 1, len(images) + 1):
            [part] = strategies._slice_probabilities(predictor, rows[a:b])
            np.testing.assert_array_equal(part, whole[a:b])


@pytest.mark.parametrize("config, pass_rows", [
    (CRITERION7, 32),
    (ua.PerceiverConfig(), 8),
    (ua.PerceiverConfig(height=32, width=32), 8),
], ids=["criterion7", "default-16", "default-32"])
def test_mc_memory_is_bounded_by_the_group(monkeypatch, config, pass_rows):
    """An MC slice of three groups runs the byte side once per group of
    FORWARD_CHUNK images plus the zero image, and no latent pass holds
    more than ``_latent_pass_rows`` samples, whatever the slice length."""
    byte_side, passes = [], []
    build, latent = model.build_byte_array, strategies.latent_logits

    def counting_build(images, *args):
        byte_side.append(len(images))
        return build(images, *args)

    def counting_latent(config, params, kv):
        passes.append(len(next(iter(kv.values()))[0].data))
        return latent(config, params, kv)

    monkeypatch.setattr(model, "build_byte_array", counting_build)
    monkeypatch.setattr(strategies, "latent_logits", counting_latent)
    n_images, n = 3 * FORWARD_CHUNK - 1, 3
    images = np.random.default_rng(4).random((n_images, config.height, config.width,
                                              config.channels))
    predictor = ua.Predictor("mc_dropout", config, [init_params(config, 2).detached()],
                             mc_delta=0.2, mc_samples=n)
    strategies._slice_probabilities(predictor, strategies._Rows(images))
    assert strategies._latent_pass_rows(config) == pass_rows
    assert len(byte_side) == -(-n_images // FORWARD_CHUNK)
    assert max(byte_side) <= FORWARD_CHUNK + 1
    assert max(passes) <= pass_rows
    assert sum(passes) == n_images * n


@pytest.mark.parametrize("n", [1, 13, 30])
def test_mc_predict_runs_the_byte_side_on_two_images(monkeypatch, n):
    """The byte side runs once per test image, on the image and the zero
    image, whatever the sample count."""
    received = []
    original = model.build_byte_array

    def counting(images, *args):
        received.append(np.asarray(images).shape[:-3])
        return original(images, *args)

    monkeypatch.setattr(model, "build_byte_array", counting)
    image = np.random.default_rng(4).random((16, 16, 3))
    ua.mc_predict(CRITERION7, init_params(CRITERION7, 2).detached(), image, 0.2,
                  n, 9)
    assert received == [(2,)]


@pytest.mark.parametrize("delta", [0.0, 0.2])
def test_mc_predict_takes_one_image(tiny_config, delta):
    params = init_params(tiny_config, 3).detached()
    with pytest.raises(DimensionError, match="one H x W x C image"):
        ua.mc_predict(tiny_config, params, np.zeros((2, 4, 4, 1)), delta, 3, 0)


def test_mc_predictor_probabilities(tiny_config, tiny_dataset):
    params = init_params(tiny_config, 12).detached()
    predictor = ua.Predictor(
        "mc_dropout", tiny_config, [params], mc_delta=0.2, mc_samples=4,
        mc_seed=13,
    )
    probs = predictor.probabilities(tiny_dataset.images[:3])
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(3), atol=1e-12)
    again = predictor.probabilities(tiny_dataset.images[:3])
    np.testing.assert_array_equal(probs, again)


def test_mc_predictor_averages_its_members(tiny_config, tiny_dataset):
    """Each MC member contributes its own mean over masked forwards."""
    stores = [init_params(tiny_config, seed).detached() for seed in (14, 15)]
    images = tiny_dataset.images[:3]

    def mc(members):
        return ua.Predictor("mc_dropout", tiny_config, members, mc_delta=0.2,
                            mc_samples=4, mc_seed=13).probabilities(images)

    expected = ua.ensemble_average([mc([store]) for store in stores])
    np.testing.assert_array_equal(mc(stores), expected)


@pytest.mark.parametrize("kind,extra", [
    ("single", {"temperatures": [1.5]}),
    ("mc_dropout", {"mc_delta": 0.2, "mc_samples": 4}),
])
def test_probabilities_of_no_images_are_no_rows(tiny_config, kind, extra):
    predictor = ua.Predictor(kind, tiny_config, [init_params(tiny_config, 17).detached()],
                             **extra)
    probs = predictor.probabilities(np.zeros((0, 4, 4, 1)))
    assert probs.shape == (0, tiny_config.num_classes)


def test_mc_predictor_rejects_bad_combinations(tiny_config):
    params = init_params(tiny_config, 16).detached()
    with pytest.raises(UsageError):
        ua.Predictor("mc_dropout", tiny_config, [params], mc_delta=0.2)
    with pytest.raises(UsageError):
        ua.Predictor("mc_dropout", tiny_config, [params], temperatures=[1.0],
                     mc_delta=0.2, mc_samples=2)


# ---- shared training loop -------------------------------------------


def test_train_is_deterministic(tiny_config, tiny_dataset):
    runs = []
    for _ in range(2):
        params = init_params(tiny_config, 20)
        train_model(tiny_config, params, tiny_dataset, constant(3), 21, FAST)
        runs.append(params.detached())
    assert runs[0].allclose(runs[1])


def test_train_logs_lr_and_loss(tiny_config, tiny_dataset):
    params = init_params(tiny_config, 22)
    log = train_model(tiny_config, params, tiny_dataset, constant(5, 2e-3), 23, FAST)
    assert [t for t, _, _ in log.steps] == [1, 2, 3, 4, 5]
    assert all(lr == 2e-3 for _, lr, _ in log.steps)
    assert all(np.isfinite(loss) for _, _, loss in log.steps)


def test_train_member_temperature_positive(tiny_config, tiny_dataset):
    _, temp, _ = ua.train_member(
        tiny_config, tiny_dataset, constant(3), 30, FAST, fit_temperature=True
    )
    assert temp > 0.0
    _, temp_off, _ = ua.train_member(
        tiny_config, tiny_dataset, constant(3), 30, FAST, fit_temperature=False
    )
    assert temp_off == 1.0


# ---- chunked batch gradients ------------------------------------------


def one_graph(config, params, images, labels):
    """(loss, gradient vector) of the batch as a single graph."""
    loss = batch_loss(config, params, images, labels)
    found = loss.backward()
    return float(loss.data), np.concatenate([found[p].ravel()
                                             for _, p in params.items()])


@pytest.mark.parametrize("config", [CRITERION7, ua.PerceiverConfig(),
                                    LEARNABLE_UNSHARED_R3],
                         ids=["criterion7", "default", "learnable-unshared-r3"])
def test_chunked_gradients_sum_to_the_batch_gradient(config):
    data = ua.synth_dataset(3, 29)  # three full chunks and a ragged one
    params = init_params(config, 4)
    parts = chunk_gradients(config, params, data.images, data.labels,
                            range(-(-29 // FORWARD_CHUNK)))
    assert len(parts) == 4
    loss, grad = one_graph(config, params, data.images, data.labels)
    # summed in chunk order, as train_model does
    assert sum(part[0] for part in parts) == pytest.approx(loss, rel=1e-12, abs=0)
    # one bound over the whole gradient: a k.b gradient is rounding noise
    # around an exact zero, so a per-tensor relative bound cannot hold there
    summed = sum(part[1] for part in parts)
    assert np.abs(summed - grad).max() <= 1e-12 * np.abs(grad).max()


@pytest.mark.parametrize("batch", [1, 5, FORWARD_CHUNK])
def test_a_batch_of_one_chunk_is_one_graph_bit_for_bit(tiny_config, tiny_dataset, batch):
    params = init_params(tiny_config, 5)
    images, labels = tiny_dataset.images[:batch], tiny_dataset.labels[:batch]
    [(loss, grad)] = chunk_gradients(tiny_config, params, images, labels, range(1))
    expected_loss, expected = one_graph(tiny_config, params, images, labels)
    assert loss == expected_loss
    np.testing.assert_array_equal(grad, expected)


def test_chunk_gradients_holds_one_chunk_graph_at_a_time():
    """Two chunks peak near one: chunk 0's graph is freed before chunk 1's
    is built."""
    config = ua.PerceiverConfig()
    data = ua.synth_dataset(3, 2 * FORWARD_CHUNK)
    params = init_params(config, 4)

    def chunks(n):
        return lambda: chunk_gradients(config, params, data.images, data.labels, range(n))

    chunks(1)()  # first-call set-up is not counted against one chunk
    one, two = traced_peak(chunks(1)), traced_peak(chunks(2))
    assert two < 1.15 * one, (one, two)


# ---- one-shot backward ----------------------------------------------


def kept_graph_backward(loss):
    """``Tensor.backward`` as it was before it freed the graph: the whole
    reverse topological order of graph entries is walked with every node
    kept."""
    root = T._entry(loss)
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        parents = () if isinstance(node, T.Tensor) else node.parents
        stack.extend((p, False) for p in parents if p is not None and id(p) not in seen)
    grads = {id(root): np.ones_like(loss.data)}
    leaf_grads = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, T.Tensor):  # a trainable leaf
            leaf_grads[node] = g.reshape(node.data.shape)
            continue
        for parent, contrib in zip(node.parents, node.backward(g)):
            if parent is not None:
                key = id(parent)
                grads[key] = grads[key] + contrib if key in grads else contrib
    return leaf_grads


def two_temporaries_attention(q, k, v, heads):
    """``tensor.attention`` as it was before its backward wrote dV in its
    merged layout and summed the softmax rows one slice at a time."""
    d = q.data.shape[-1]
    dh = d // heads
    c = 1.0 / math.sqrt(dh)

    def split(a):
        return np.swapaxes(a.reshape(*a.shape[:-1], heads, dh), -2, -3)

    def merge(a):
        a = np.swapaxes(a, -2, -3)
        return a.reshape(*a.shape[:-2], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    p = qh @ np.swapaxes(kh, -1, -2)
    p *= c
    T._softmax_(p)

    def backward(g):
        gh = split(g)
        dvh = np.swapaxes(p, -1, -2) @ gh
        ds = gh @ np.swapaxes(vh, -1, -2)
        ds -= np.add.reduce(ds * p, axis=-1, keepdims=True)
        ds *= p
        ds *= c
        dqh = ds @ kh
        dkh = np.swapaxes(np.swapaxes(qh, -1, -2) @ ds, -1, -2)
        return (merge(T._unbroadcast(dqh, qh.shape)), merge(T._unbroadcast(dkh, kh.shape)),
                merge(T._unbroadcast(dvh, vh.shape)))

    return T._result(merge(p @ vh), (q, k, v), backward)


@pytest.mark.parametrize("config, batch", [
    (CRITERION7, 4), (ua.RunConfig().model_config(), FORWARD_CHUNK),
    (LEARNABLE_UNSHARED_R3, FORWARD_CHUNK),
], ids=["criterion7", "default", "learnable-unshared-r3"])
def test_one_shot_backward_is_bit_identical_to_the_kept_graph(config, batch,
                                                              monkeypatch):
    data = ua.synth_dataset(3, batch)
    params = init_params(config, 4)
    [(loss, grad)] = chunk_gradients(config, params, data.images, data.labels, range(1))
    monkeypatch.setattr(T, "attention", two_temporaries_attention)
    kept = batch_loss(config, params, data.images, data.labels)
    found = kept_graph_backward(kept)
    assert loss == float(kept.data)
    np.testing.assert_array_equal(
        grad, np.concatenate([found[p].ravel() for _, p in params.items()]))


def test_the_forward_graph_frees_arrays_no_backward_reads(monkeypatch):
    """The byte projection feeding ln_kv and every residual sum are read
    by no backward (layer_norm keeps its normalized input, add and
    mean_rows only shapes), so each is freed while the loss built on it
    is alive."""
    config = ua.PerceiverConfig()
    data = ua.synth_dataset(3, 2)
    params = init_params(config, 4)
    layer_norm, add = T.layer_norm, T.add
    projections, sums = [], []

    def recording_layer_norm(x, gamma, beta, eps):
        if gamma is params["cross_shared.ln_kv.gamma"]:
            projections.append(weakref.ref(x.data))
        return layer_norm(x, gamma, beta, eps)

    def recording_add(a, b):
        out = add(a, b)
        sums.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(T, "layer_norm", recording_layer_norm)
    monkeypatch.setattr(T, "add", recording_add)
    loss = batch_loss(config, params, data.images, data.labels)
    # one shared ln_kv; per repeat a cross residual and two per tower layer
    assert len(projections) == 1 and len(sums) == config.depth_repeats * 5
    alive = [ref() is not None for ref in projections + sums]
    assert not any(alive), alive
    assert len(loss.backward()) == len(dict(params.items()))


@pytest.mark.parametrize("config, bound_mib", [
    (ua.PerceiverConfig(), 23.0),
    (ua.PerceiverConfig(height=32, width=32, channels=3, num_classes=10), 59.5),
], ids=["16x16", "32x32x3"])
def test_a_training_chunk_frees_its_graph_during_backward(config, bound_mib):
    """One default-model 8-image chunk peaks near its forward graph
    (20.3 MiB at 16x16, 46.1 MiB at 32x32x3), which holds only what its
    backward reads: a backward that kept every forward array until it
    returned peaked at 31.95 and 82.0 MiB, and one that freed them as it
    went, over a graph whose nodes kept their own outputs, at 25.8 and
    63.1 MiB."""
    data = ua.synth_dataset(3, FORWARD_CHUNK, resolution=config.height,
                            num_classes=config.num_classes, channels=config.channels)
    params = init_params(config, 4)

    def chunk():
        return chunk_gradients(config, params, data.images, data.labels, range(1))

    chunk()  # first-call set-up is not counted against the chunk
    assert traced_peak(chunk) <= bound_mib * 2**20


# ---- one copy of the training data -----------------------------------


@pytest.mark.parametrize("train", [
    lambda data: ua.train_member(CRITERION7, data, constant(2), 5, FAST),
    lambda data: train_model(CRITERION7, init_params(CRITERION7, 6), data, constant(2),
                             7, ua.TrainSettings(batch_size=4, mc_delta=0.1)),
], ids=["train_member-temperature-fit", "train_model-mc-dropout"])
def test_training_holds_no_copy_of_the_training_data(train):
    """A training gathers one batch per step from the dataset it was
    given, and a temperature fit copies only the calibration rows."""
    data = ua.synth_dataset(3, 2000)
    assert traced_peak(lambda: train(data)) < 0.5 * data.images.nbytes


def copied_train_model(config, params, dataset, schedule, seed, settings):
    """``train_model`` as it was before batches were gathered per step:
    each epoch's batches copied at its start (``make_batches``), the
    chunks of a batch computed in-process and summed in chunk order."""
    state = AdamWState(params, settings.adamw)
    mask_rng = generator(seed, 0xD0) if settings.mc_delta > 0 else None
    batches, epoch = [], 0
    for t in range(1, schedule.total_steps + 1):
        if not batches:
            batches = make_batches(dataset, settings.batch_size, derive_seed(seed, epoch))
            epoch += 1
        images, labels = batches.pop(0)
        if mask_rng is not None:
            images = ua.mc_dropout_mask(images, settings.mc_delta, mask_rng)
        parts = chunk_gradients(config, params, images, labels,
                                range(-(-len(labels) // FORWARD_CHUNK)))
        grad_vector = parts[0][1]
        for _, more in parts[1:]:
            grad_vector += more
        adamw_step(params, grad_vector, state, lr_at(schedule, t))


def copied_train_member(config, dataset, schedule, member_seed, settings,
                        fit_temperature):
    """``train_member`` on copies: each side of the ``calibration_rows``
    split copied out of ``dataset``, training on the copied rows, and the
    fit on the copied calibration rows."""
    params = init_params(config, derive_seed(member_seed, 1))
    train_ds, calib = dataset, None
    if fit_temperature:
        train_rows, calib_rows = calibration_rows(len(dataset), member_seed)
        train_ds = dataclasses.replace(dataset, images=dataset.images[train_rows],
                                       labels=dataset.labels[train_rows])
        calib = (dataset.images[calib_rows], dataset.labels[calib_rows])
    copied_train_model(config, params, train_ds, schedule, derive_seed(member_seed, 2),
                       settings)
    frozen = params.detached()
    temperature = 1.0
    if calib is not None:
        temperature, _ = temperature_scale(forward_logits(config, frozen, calib[0]),
                                           calib[1])
    return frozen, temperature


@pytest.mark.parametrize("fit_temperature, batch_size, steps, mc_delta", [
    (True, 4, 14, 0.0),    # 21 training rows: a short last batch, 3 epochs
    (False, 5, 12, 0.0),   # 24 rows: a short last batch, 3 epochs
    (True, 10, 7, 0.0),    # two chunks a batch, in worker processes
    (True, 4, 12, 0.2),
    (False, 16, 4, 0.2),
])
def test_train_member_bit_equals_training_on_copies(tiny_config, tiny_dataset,
                                                    fit_temperature, batch_size,
                                                    steps, mc_delta):
    settings = ua.TrainSettings(batch_size=batch_size, mc_delta=mc_delta)
    store, temperature, log = ua.train_member(tiny_config, tiny_dataset, constant(steps),
                                              31, settings, fit_temperature)
    expected, expected_temperature = copied_train_member(
        tiny_config, tiny_dataset, constant(steps), 31, settings, fit_temperature)
    assert len(log.steps) == steps
    np.testing.assert_array_equal(store.vector, expected.vector)
    assert temperature == expected_temperature
    assert (temperature != 1.0) == fit_temperature
