"""Training strategies: member independence, weight averaging, capture
placement and MC dropout."""

import numpy as np
import pytest

import uaperceiver as ua
from uaperceiver import model
from uaperceiver.data import channel_stats, standardize
from uaperceiver.errors import DimensionError, RangeError, UsageError
from uaperceiver.model import (FORWARD_CHUNK, batch_loss, forward_logits, init_params,
                               score_counter)
from uaperceiver.metrics import softmax_rows
from uaperceiver.rng import derive_seed, generator
from uaperceiver.strategies import chunk_gradients, train_model

from test_model import CRITERION7, LEARNABLE_UNSHARED_R3

FAST = ua.TrainSettings(batch_size=4)


def constant(steps, lr=1e-3):
    return ua.LRSchedule("constant", lr, lr, steps, 1)


# ---- deep ensembles --------------------------------------------------


def test_deep_m1_equals_single_training(tiny_config, tiny_dataset):
    predictor, _ = ua.deep_ensemble_train(
        tiny_config, 1, 123, tiny_dataset, constant(4), FAST
    )
    assert predictor.kind == "single"
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


@pytest.mark.parametrize("n, delta", [(n, delta) for n in (1, 8, 13) for delta in (0.25, 1.0)]
                         + [(30, 0.1)])
@pytest.mark.parametrize("config", [CRITERION7, LEARNABLE_UNSHARED_R3],
                         ids=["criterion7", "learnable-unshared-r3"])
def test_mc_predict_replay_oracle_standardized(config, n, delta):
    """Bit-equal to the explicitly masked forwards for both position
    encodings, unshared cross weights, one chunk, a full chunk and a
    short last chunk, on standardized images: a dropped negative pixel
    is -0.0 in the masked image. Cross score entries count every
    sample's forward. n = 30 at delta = 0.1 is the bench's mc-eval
    setting: three full chunks and a short one."""
    ds = ua.synth_dataset(3, 4, resolution=config.height, num_classes=3,
                          channels=config.channels)
    image = standardize(ds, channel_stats(ds)).images[0]
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
