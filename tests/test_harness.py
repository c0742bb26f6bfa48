"""Run harness: config parsing, checkpoint format, end-to-end training,
evaluation, reports, and the command-line front end."""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uaperceiver as ua
from uaperceiver.cli import main
from uaperceiver.errors import (CompatibilityError, ConfigError, FormatError, UAPError,
                               UsageError)
from uaperceiver.harness import (
    CHECKPOINT_MAGIC,
    STRATEGIES,
    build_dataset,
    build_datasets,
    config_echo,
    evaluate_predictor,
    load_config,
    load_predictor,
    load_reports,
)
from uaperceiver.model import init_params
from uaperceiver.schedules import LRSchedule, lr_at

TINY = """
# desk-scale smoke configuration
height = 4
width = 4
channels = 1
num_classes = 3
latent_count = 2
latent_dim = 4
byte_dim = 4
num_bands = 1
depth_repeats = 1
tower_layers = 1
heads = 1
train_steps = 3
pretrain_steps = 2
ensemble_size = 2
swa_steps = 4
swa_cycle = 2
fast_cycles = 2
fast_steps_per_cycle = 2
snapshot_cycles = 3
mc_samples = 3
synth_train = 24
synth_test = 12
learning_rate = 1e-3
lr_low = 2e-4
fast_lr_low = 1e-4
"""


def tiny_run_config(out_dir, **overrides):
    overrides = {"out_dir": str(out_dir), **overrides}
    return ua.parse_config(TINY, {k: str(v) for k, v in overrides.items()})


# ---- config parsing --------------------------------------------------


def test_defaults_without_input():
    config = ua.parse_config("")
    assert config.strategy == "single"
    assert config.batch_size == 4
    assert config.learning_rate == 5e-6
    assert config.mc_samples == 30
    assert config.ensemble_size == 4


def test_parse_comments_and_overrides():
    config = ua.parse_config(
        "seed = 3  # inline comment\n\n# full-line comment\nstrategy = deep\n",
        {"seed": "9"},
    )
    assert config.seed == 9  # overrides win over file values
    assert config.strategy == "deep"


def test_parse_unknown_key():
    with pytest.raises(ConfigError, match="momentum"):
        ua.parse_config("momentum = 0.9\n")


def test_parse_bad_value():
    with pytest.raises(ConfigError, match="train_steps"):
        ua.parse_config("train_steps = many\n")
    with pytest.raises(ConfigError):
        ua.parse_config("normalize = perhaps\n")


def test_parse_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        ua.parse_config("strategy deep\n")


def test_parse_bool_spellings():
    for raw, expected in (("true", True), ("1", True), ("Yes", True),
                          ("false", False), ("0", False), ("no", False)):
        assert ua.parse_config(f"normalize = {raw}\n").normalize is expected


def test_bad_strategy_and_dataset():
    with pytest.raises(ConfigError):
        ua.parse_config("strategy = bootstrap\n")
    with pytest.raises(ConfigError):
        ua.parse_config("dataset = mnist\n")


# Field order is part of every checkpoint's bytes (the echo is embedded).
DEFAULT_ECHO = (
    "height = 16", "width = 16", "channels = 3", "num_classes = 3",
    "latent_count = 32", "latent_dim = 64", "byte_dim = 64", "num_bands = 8",
    "max_frequency = 0.0", "depth_repeats = 2", "tower_layers = 2",
    "heads = 4", "pos_encoding = fourier", "share_tower_weights = True",
    "share_cross_weights = True", "strategy = single", "ensemble_size = 4",
    "train_steps = 100", "pretrain_steps = 20", "snapshot_cycles = 5",
    "snapshot_last = 0", "swa_steps = 10", "swa_cycle = 5", "fast_cycles = 4",
    "fast_steps_per_cycle = 5", "mc_delta = 0.1", "mc_samples = 30",
    "learning_rate = 5e-06", "lr_low = 2e-06", "fast_lr_low = 5e-07",
    "beta1 = 0.9", "beta2 = 0.999", "adam_eps = 1e-08", "weight_decay = 0.01",
    "batch_size = 4", "dataset = synth", "data_path = ", "test_path = ",
    "synth_train = 2000", "synth_test = 500", "synth_noise = 0.02",
    "synth_contrast = 1.0", "normalize = True", "data_seed = 0", "seed = 0",
    "out_dir = runs/out",
)


def test_default_config_echo_golden():
    assert config_echo(ua.RunConfig()) == "\n".join(DEFAULT_ECHO) + "\n"


def test_model_config_is_the_model_prefix():
    config = ua.parse_config("latent_dim = 12\nheads = 3\nstrategy = deep\n")
    model = config.model_config()
    assert type(model) is ua.PerceiverConfig
    assert model == ua.PerceiverConfig(latent_dim=12, heads=3)


@pytest.mark.parametrize("text,match", [
    ("latent_dim = 10\nheads = 4\n", "divisible"),
    ("strategy = swa\nswa_steps = 4\nswa_cycle = 5\n", "swa"),
    ("strategy = snapshot\ntrain_steps = 3\nsnapshot_cycles = 4\n", "snapshot"),
    ("strategy = mc\nmc_samples = 0\n", "mc_samples"),
    ("heads = 0\n", "heads"),
    ("byte_dim = 0\n", "byte_dim"),
    ("channels = 0\n", "channels"),
    ("num_bands = 0\n", "num_bands"),
    ("num_classes = 1\n", "num_classes"),
    ("batch_size = 0\n", "batch_size"),
    ("train_steps = 0\n", "train_steps"),
    ("synth_train = 0\n", "synth_train"),
    ("synth_test = 0\n", "synth_test"),
    ("strategy = deep\nensemble_size = 0\n", "ensemble_size"),
    ("strategy = fast\nfast_cycles = 0\n", "fast_cycles"),
    ("strategy = swa\npretrain_steps = 0\n", "pretrain_steps"),
    ("strategy = mc\nmc_delta = 1.5\n", "mc_delta"),
    ("strategy = snapshot\nsnapshot_cycles = 3\nsnapshot_last = -1\n",
     "snapshot_last"),
    ("synth_noise = -1\n", "synth_noise"),
    ("beta2 = 1.5\n", "beta2"),
    ("beta1 = -0.5\n", "beta1"),
    ("beta1 = 1\n", "beta1"),
    ("adam_eps = 0\n", "eps"),
    ("weight_decay = -0.1\n", "weight_decay"),
    ("learning_rate = nan\n", "learning rates"),
    ("strategy = fast\nlearning_rate = 1e-4\nfast_lr_low = 1e-3\n",
     "strategy fast"),
    *[(f"strategy = {strategy}\nlearning_rate = -1e-3\n", "learning rates")
      for strategy in STRATEGIES],
    ("max_frequency = nan\n", "max_frequency"),
    ("max_frequency = -5\n", "max_frequency"),
    ("max_frequency = inf\n", "max_frequency"),
    ("width = 8\n", "synth"),
    ("height = 2\nwidth = 2\n", "synth"),
    ("dataset = cifar10\n", "cifar10"),
    ("dataset = cifar100\nheight = 32\nwidth = 32\nnum_classes = 10\n", "cifar100"),
    ("dataset = cifar10\nheight = 32\nwidth = 32\nchannels = 1\n"
     "num_classes = 10\n", "cifar10"),
], ids=["heads", "swa-cycle", "snapshot-cycles", "mc-samples", "heads-zero",
        "byte-dim", "channels", "num-bands", "num-classes", "batch-size",
        "train-steps", "synth-train", "synth-test", "ensemble-size",
        "fast-cycles", "pretrain-steps", "mc-delta", "snapshot-last",
        "synth-noise", "beta2", "beta1-negative", "beta1-one", "adam-eps",
        "weight-decay", "nan-lr", "fast-lr-low",
        *[f"negative-lr-{strategy}" for strategy in STRATEGIES],
        "max-frequency-nan", "max-frequency-negative", "max-frequency-inf",
        "synth-not-square", "synth-too-small", "cifar10-shape", "cifar100-classes",
        "cifar10-channels"])
def test_parse_rejects_inconsistent_config(text, match):
    with pytest.raises(ConfigError, match=match):
        ua.parse_config(text)


def test_strategy_constraints_only_for_configured_strategy():
    config = ua.parse_config("swa_steps = 4\nswa_cycle = 5\ntrain_steps = 1\n"
                             "snapshot_cycles = 4\nmc_samples = 0\n"
                             "ensemble_size = 0\nfast_cycles = 0\n"
                             "pretrain_steps = 0\nmc_delta = 1.5\n"
                             "snapshot_last = -1\nfast_lr_low = 1\n")
    assert config.strategy == "single"


def test_config_echo_reparses():
    config = ua.parse_config("strategy = swa\nseed = 11\nlearning_rate = 2e-4\n")
    assert ua.parse_config(config_echo(config)) == config


# ---- checkpoints -----------------------------------------------------


def test_checkpoint_roundtrip_bit_identical(tmp_path, tiny_config):
    store = init_params(tiny_config, 17)
    echo = "strategy = single\n"
    path = tmp_path / "model.ckpt"
    ua.save_checkpoint(path, store, echo)
    loaded, loaded_echo = ua.load_checkpoint(path)
    assert loaded_echo == echo
    assert loaded.names() == store.names()
    for name, t in store.items():
        assert t.data.shape == loaded[name].data.shape
        assert np.array_equal(t.data, loaded[name].data)
    # a second write of identical content is byte-identical
    other = tmp_path / "again.ckpt"
    ua.save_checkpoint(other, store, echo)
    assert path.read_bytes() == other.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        ua.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path, tiny_config):
    path = tmp_path / "model.ckpt"
    ua.save_checkpoint(path, init_params(tiny_config, 0), "x = 1\n")
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(FormatError):
        ua.load_checkpoint(path)


def test_checkpoint_truncated_payload(tmp_path, tiny_config):
    path = tmp_path / "model.ckpt"
    ua.save_checkpoint(path, init_params(tiny_config, 0), "x = 1\n")
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError, match="truncated payload"):
        ua.load_checkpoint(path)


def test_checkpoint_version_check(tmp_path):
    import struct

    path = tmp_path / "future.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 99))
    with pytest.raises(FormatError, match="version"):
        ua.load_checkpoint(path)


def _one_tensor_checkpoint(path, echo="x = 1\n"):
    """A checkpoint holding one 1 x 1 tensor; returns its header length
    (everything before the name's extents)."""
    store = ua.ParamStore()
    store.add("w", ua.Tensor(np.ones((1, 1))))
    ua.save_checkpoint(path, store, echo)
    return 4 + 4 + 8 + len(echo) + 4 + 4 + len("w") + 4


def test_checkpoint_non_utf8_text_is_format_error(tmp_path):
    path = tmp_path / "model.ckpt"
    header = _one_tensor_checkpoint(path)
    raw = bytearray(path.read_bytes())
    for pos in (16, header - 5):  # first echo byte, the tensor name
        corrupt = raw.copy()
        corrupt[pos] = 0xFF
        path.write_bytes(bytes(corrupt))
        with pytest.raises(FormatError, match="UTF-8"):
            ua.load_checkpoint(path)


def test_checkpoint_extents_product_beyond_int64(tmp_path):
    import struct

    path = tmp_path / "model.ckpt"
    header = _one_tensor_checkpoint(path)
    raw = bytearray(path.read_bytes())
    # 2**32 x 2**32 elements: np.prod wraps this to 0
    raw[header : header + 16] = struct.pack("<QQ", 2**32, 2**32)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="truncated payload"):
        ua.load_checkpoint(path)


def test_checkpoint_more_axes_than_numpy_supports(tmp_path):
    import struct

    path = tmp_path / "model.ckpt"
    echo = b"x = 1\n"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IQ", 1, len(echo)) + echo
                     + struct.pack("<II", 1, 1) + b"w" + struct.pack("<I", 65)
                     + struct.pack("<65Q", *[0] * 65) + struct.pack("<Q", 0))
    with pytest.raises(FormatError, match="bad shape"):
        ua.load_checkpoint(path)


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    """(bytes, header + manifest length, directory) of a small model's
    checkpoint."""
    path = tmp_path_factory.mktemp("ckpt") / "member.ckpt"
    config = ua.PerceiverConfig(height=2, width=2, channels=1, latent_count=2,
                                latent_dim=4, byte_dim=4, num_bands=1,
                                depth_repeats=1, tower_layers=1, heads=2)
    store = init_params(config, 0)
    ua.save_checkpoint(path, store, config_echo(ua.RunConfig()))
    raw = path.read_bytes()
    return raw, len(raw) - 8 * store.num_scalars(), path.parent


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_single_byte_corruption(valid_checkpoint, data):
    """Any one corrupted header or manifest byte either still loads or
    raises a package error, never a bare Python exception."""
    raw, header, directory = valid_checkpoint
    pos = data.draw(st.integers(0, header - 1), label="position")
    value = data.draw(st.integers(0, 255).filter(lambda v: v != raw[pos]),
                      label="byte")
    corrupt = bytearray(raw)
    corrupt[pos] = value
    path = directory / "corrupt.ckpt"
    path.write_bytes(bytes(corrupt))
    try:
        ua.load_checkpoint(path)
    except UAPError:
        pass


# ---- training runs ---------------------------------------------------


def test_same_config_twice_identical_checkpoints(tmp_path):
    # the config echo embeds out_dir, so byte-identical checkpoints
    # require the same configured destination; run, snapshot, rerun
    config = tiny_run_config(tmp_path / "run")
    a = ua.run_train(config)
    first = {f: (tmp_path / "run" / f).read_bytes() for f in a.member_files}
    b = ua.run_train(config)
    assert a.member_files == b.member_files
    for fname in b.member_files:
        assert (tmp_path / "run" / fname).read_bytes() == first[fname]


def test_deep_m4_writes_four_checkpoints(tmp_path):
    config = tiny_run_config(tmp_path, strategy="deep", ensemble_size=4,
                             train_steps=2)
    result = ua.run_train(config)
    assert result.member_files == [f"member_{i:03d}.ckpt" for i in range(4)]
    for fname in result.member_files:
        assert (tmp_path / fname).exists()
    manifest = json.loads((tmp_path / "predictor.json").read_text())
    assert manifest["kind"] == "deep_ensemble"
    assert len(manifest["temperatures"]) == 4


def test_logged_lr_trace_matches_schedule(tmp_path):
    config = tiny_run_config(tmp_path, strategy="snapshot", train_steps=6,
                             snapshot_cycles=3)
    result = ua.run_train(config)
    schedule = LRSchedule("snapshot_cosine", config.learning_rate, 0.0, 6, 3)
    log = result.logs[0]
    for t, lr, _ in log.steps:
        assert lr == lr_at(schedule, t)
    payload = json.loads((tmp_path / "run_log.json").read_text())
    assert [tuple(s) for s in payload[0]["steps"]] == log.steps


@pytest.mark.parametrize("strategy,expected_members", [
    ("single", 1),
    ("deep", 2),
    ("swa", 1),
    ("snapshot", 3),
    ("fast", 3),
    ("mc", 1),
])
def test_each_strategy_round_trips(tmp_path, strategy, expected_members):
    config = tiny_run_config(tmp_path, strategy=strategy,
                             train_steps=6 if strategy == "snapshot" else 3)
    result = ua.run_train(config)
    assert len(result.member_files) == expected_members
    report = ua.run_evaluate(tmp_path)
    assert 0.0 <= report.accuracy <= 1.0
    assert np.isfinite(report.nll) and np.isfinite(report.brier)
    assert 0.0 <= report.ece <= 1.0
    assert report.seed == config.seed


def test_loaded_predictor_matches_in_memory(tmp_path):
    config = tiny_run_config(tmp_path, strategy="deep")
    result = ua.run_train(config)
    predictor, loaded_config, stats = load_predictor(tmp_path)
    assert loaded_config == config
    test = build_dataset(config, "test")
    from uaperceiver.data import standardize

    probs_mem = result.predictor.probabilities(
        standardize(test, result.stats).images
    )
    probs_disk = predictor.probabilities(standardize(test, stats).images)
    np.testing.assert_array_equal(probs_mem, probs_disk)


def test_older_snapshot_manifest_loads_last_members(tmp_path):
    """A manifest listing every snapshot plus "snapshot_last" and "seed"
    evaluates as the predictor of the last snapshot_last members."""
    config = tiny_run_config(tmp_path, strategy="snapshot", train_steps=6)
    result = ua.run_train(config)
    assert len(result.member_files) == 3
    path = tmp_path / "predictor.json"
    manifest = json.loads(path.read_text())
    path.write_text(json.dumps({**manifest, "snapshot_last": 2, "seed": 0}))
    report = ua.run_evaluate(tmp_path)
    test = build_dataset(config, "test")
    last_two = ua.Predictor("snapshot", config.model_config(),
                            result.predictor.members[-2:])
    expected = evaluate_predictor(last_two, config, result.stats, test)
    assert report.ensemble_size == 2
    assert (report.accuracy, report.nll, report.ece, report.brier) == (
        expected.accuracy, expected.nll, expected.ece, expected.brier)


def test_snapshot_last_stores_only_kept_members(tmp_path):
    config = tiny_run_config(tmp_path, strategy="snapshot", train_steps=6,
                             snapshot_last=2)
    result = ua.run_train(config)
    assert result.member_files == ["member_000.ckpt", "member_001.ckpt"]
    assert ua.run_evaluate(tmp_path).ensemble_size == 2


def test_manifest_missing_key_is_format_error(tmp_path):
    ua.run_train(tiny_run_config(tmp_path))
    path = tmp_path / "predictor.json"
    manifest = json.loads(path.read_text())
    del manifest["mc_seed"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="mc_seed"):
        load_predictor(tmp_path)


def test_evaluate_report_equals_direct_metric_calls(tmp_path):
    config = tiny_run_config(tmp_path)
    result = ua.run_train(config)
    test = build_dataset(config, "test")
    report = evaluate_predictor(result.predictor, config, result.stats, test)
    from uaperceiver.data import standardize

    probs = result.predictor.probabilities(standardize(test, result.stats).images)
    batch = ua.EvalBatch(probs, test.labels)
    assert report.accuracy == ua.accuracy(batch)
    assert report.nll == ua.nll(batch)
    assert report.ece == ua.ece(batch)
    assert report.brier == ua.brier(batch)


def test_repeated_evaluation_is_deterministic(tmp_path):
    ua.run_train(tiny_run_config(tmp_path))
    a = ua.run_evaluate(tmp_path)
    b = ua.run_evaluate(tmp_path)
    assert (a.accuracy, a.nll, a.ece, a.brier) == (b.accuracy, b.nll, b.ece,
                                                   b.brier)


def test_sweep_ensemble_sizes(tmp_path):
    config = tiny_run_config(tmp_path, train_steps=2)
    reports = ua.sweep_ensemble(config, max_size=3)
    assert [r.ensemble_size for r in reports] == [1, 2, 3]
    assert all(r.variant in ("single", "deep_ensemble") for r in reports)
    with pytest.raises(ConfigError, match="ensemble_size"):
        ua.sweep_ensemble(config, max_size=0)


def test_sweep_rows_equal_prefix_predictors(tmp_path):
    """Row k scores exactly what a predictor of the first k members and
    their temperatures scores."""
    config = tiny_run_config(tmp_path, train_steps=2)
    reports = ua.sweep_ensemble(config, max_size=3)
    predictor, loaded, stats = load_predictor(tmp_path)
    test = build_dataset(loaded, "test")
    fields = ("variant", "ensemble_size", "accuracy", "nll", "ece", "brier",
              "temperatures")
    for size, report in enumerate(reports, 1):
        prefix = ua.Predictor(predictor.kind, predictor.config,
                              predictor.members[:size],
                              temperatures=predictor.temperatures[:size])
        expected = evaluate_predictor(prefix, loaded, stats, test)
        assert ([getattr(report, f) for f in fields]
                == [getattr(expected, f) for f in fields])


def test_sweep_evaluates_each_member_once(tmp_path, monkeypatch):
    from uaperceiver import parallel, strategies
    from uaperceiver.data import split_calibration

    rows = []
    forward = strategies.forward_logits

    def counting(config, params, images):
        logits = forward(config, params, images)
        rows.append(len(logits))
        return logits

    monkeypatch.setattr(strategies, "forward_logits", counting)
    config = tiny_run_config(tmp_path, train_steps=2)
    # the patch counts rows in this process only, so no worker may run them
    monkeypatch.setattr(parallel, "worker_count", lambda items: 1)
    ua.sweep_ensemble(config, max_size=3)
    train, test = build_datasets(config)
    calibration = len(split_calibration(train, 0)[1])
    assert sum(rows) == 3 * (calibration + len(test))


def test_each_verb_builds_only_the_split_it_uses(tmp_path, monkeypatch):
    """Training generates the train split, evaluation the test split, a
    sweep each split once; evaluation draws no initial weights."""
    from uaperceiver import harness, model

    built = []
    synth = harness.synth_dataset

    def recording(*args, split, **kwargs):
        built.append(split)
        return synth(*args, split=split, **kwargs)

    monkeypatch.setattr(harness, "synth_dataset", recording)
    config = tiny_run_config(tmp_path, strategy="deep")
    ua.run_train(config)
    assert built == ["train"]

    def forbidden(*args, **kwargs):
        raise AssertionError("evaluation initialized parameters")

    built.clear()
    with monkeypatch.context() as patch:
        patch.setattr(model, "_trunc_normal", forbidden)
        ua.run_evaluate(tmp_path)
    assert built == ["test"]
    built.clear()
    ua.sweep_ensemble(tiny_run_config(tmp_path / "sweep", train_steps=2), 2)
    assert built == ["train", "test"]
    with pytest.raises(UsageError, match="split"):
        build_dataset(config, "calibration")


CIFAR10_MODEL = "dataset = cifar10\nheight = 32\nwidth = 32\nnum_classes = 10\n"


def test_cifar_run_requires_paths():
    config = ua.parse_config(CIFAR10_MODEL)
    with pytest.raises(ConfigError):
        build_datasets(config)


def test_cifar_dimension_check(tmp_path):
    from test_data import cifar10_record

    path = tmp_path / "b.bin"
    path.write_bytes(cifar10_record(0, 0))
    paths = f"data_path = {path}\ntest_path = {path}\n"
    # model defaults are 16x16x3 with 3 classes: mismatch, found at parse time
    with pytest.raises(ConfigError):
        ua.parse_config("dataset = cifar10\n" + paths)
    train, test = build_datasets(ua.parse_config(CIFAR10_MODEL + paths))
    assert train.images.shape[1:] == test.images.shape[1:] == (32, 32, 3)
    assert train.num_classes == test.num_classes == 10


def test_cifar_evaluation_reads_only_the_test_file(tmp_path):
    from test_data import cifar10_record

    train_path, test_path = tmp_path / "train.bin", tmp_path / "test.bin"
    train_path.write_bytes(b"".join(cifar10_record(i % 10, 40 * i) for i in range(6)))
    test_path.write_bytes(cifar10_record(3, 200) + cifar10_record(7, 10))
    run_dir = tmp_path / "run"
    config = tiny_run_config(
        run_dir, dataset="cifar10", height=32, width=32, channels=3,
        num_classes=10, train_steps=1, data_path=train_path, test_path=test_path)
    ua.run_train(config)
    train_path.unlink()
    assert main(["evaluate", "--run-dir", str(run_dir)]) == 0


# ---- report emission -------------------------------------------------


def sample_report(**overrides):
    values = dict(
        variant="single", ensemble_size=1, seed=0, accuracy=0.75,
        nll=0.61234567890123456, ece=0.05, brier=0.125, temperatures=None,
        wall_clock_seconds=1.5, config={"seed": 0},
    )
    values.update(overrides)
    return ua.MetricsReport(**values)


def test_json_report_roundtrip(tmp_path):
    reports = [sample_report(), sample_report(seed=1, temperatures=[1.5, 0.9])]
    path = tmp_path / "out.json"
    ua.emit_report(reports, "json", path)
    parsed = [ua.MetricsReport(**entry) for entry in json.loads(path.read_text())]
    assert [r.to_dict() for r in parsed] == [r.to_dict() for r in reports]
    assert [r.to_dict() for r in load_reports(path)] == [r.to_dict() for r in reports]


def test_csv_report_single_row(tmp_path):
    path = tmp_path / "out.csv"
    ua.emit_report([sample_report()], "csv", path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("variant,ensemble_size,seed,accuracy")
    cells = lines[1].split(",")
    assert cells[0] == "single"
    # 17 significant digits survive a float round-trip
    assert float(cells[4]) == 0.61234567890123456


def test_csv_report_temperatures_joined(tmp_path):
    path = tmp_path / "out.csv"
    ua.emit_report([sample_report(temperatures=[1.25, 2.5])], "csv", path)
    row = path.read_text().strip().splitlines()[1]
    assert "1.25;2.5" in row


def test_emit_report_rejects_empty_and_unknown(tmp_path):
    with pytest.raises(ConfigError):
        ua.emit_report([], "json", tmp_path / "x.json")
    with pytest.raises(ConfigError):
        ua.emit_report([sample_report()], "yaml", tmp_path / "x.yaml")


# ---- CLI -------------------------------------------------------------


def write_tiny_config(tmp_path, **overrides):
    text = TINY + "".join(f"{k} = {v}\n" for k, v in overrides.items())
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_cli_train_then_evaluate(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out),
                 "--seed", "5"]) == 0
    assert (out / "predictor.json").exists()
    assert load_config(out / "config.txt").seed == 5

    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--run-dir", str(out), "--report",
                 str(report_path), "--format", "json"]) == 0
    entry = json.loads(report_path.read_text())[0]
    assert entry["seed"] == 5
    captured = capsys.readouterr()
    assert "accuracy=" in captured.out


def test_cli_set_overrides(tmp_path):
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out),
                 "--set", "strategy=deep", "--set", "ensemble_size=2"]) == 0
    manifest = json.loads((out / "predictor.json").read_text())
    assert manifest["kind"] == "deep_ensemble"
    assert len(manifest["members"]) == 2


def test_cli_sweep_and_report_conversion(tmp_path):
    cfg = write_tiny_config(tmp_path, train_steps=2)
    out = tmp_path / "sweep"
    series = tmp_path / "series.json"
    assert main(["sweep-ensemble", "--config", str(cfg), "--out-dir", str(out),
                 "--max-size", "2", "--report", str(series)]) == 0
    assert len(json.loads(series.read_text())) == 2

    csv_out = tmp_path / "merged.csv"
    assert main(["report", "--inputs", str(series), "--out", str(csv_out)]) == 0
    assert len(csv_out.read_text().strip().splitlines()) == 3


def test_cli_set_without_equals_is_config_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--set", "foo", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "config error: --set expects key=value, got 'foo'\n"
    assert not out.exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("strategy = bootstrap\n")
    assert main(["train", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_train_rejects_config_before_creating_out_dir(tmp_path, capsys):
    for i, extra in enumerate([
        b"strategy = swa\nswa_cycle = 5\n",
        b"width = 8\n",
        b"height = 2\nwidth = 2\n",
        b"dataset = cifar10\n",
        b"dataset = cifar100\nheight = 32\nwidth = 32\nnum_classes = 10\n",
        b"seed = 1\xff\xfe\n",
    ]):
        cfg = tmp_path / f"run{i}.cfg"
        cfg.write_bytes(TINY.encode() + extra)
        out = tmp_path / f"run{i}"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and err.count("\n") == 1, extra
        assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(strategy=st.sampled_from(STRATEGIES), data=st.data())
def test_fuzzed_config_file_parses_or_fails_cleanly(fuzz_dir, strategy, data):
    """Byte flips and line edits of a valid config file either parse or
    raise a package error, and ``train`` on one that fails exits 2
    without creating its out_dir."""
    raw = bytearray(config_echo(ua.RunConfig(strategy=strategy)).encode())
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        kind = data.draw(st.sampled_from(["flip", "delete", "duplicate", "value"]))
        if kind == "flip":
            pos = data.draw(st.integers(0, len(raw) - 1), label="position")
            raw[pos] = data.draw(st.integers(0, 255), label="byte")
            continue
        lines = bytes(raw).split(b"\n")
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        if kind == "value":  # another line's value under this line's key
            j = data.draw(st.integers(0, len(lines) - 1), label="source")
            lines[i] = lines[i].split(b"=")[0] + b"=" + lines[j].split(b"=")[-1]
        else:
            lines[i:i + 1] = [] if kind == "delete" else [lines[i]] * 2
        raw = bytearray(b"\n".join(lines))
    path = fuzz_dir / "fuzzed.cfg"
    path.write_bytes(bytes(raw))
    out = fuzz_dir / "run"
    try:
        assert isinstance(load_config(path, {"out_dir": str(out)}), ua.RunConfig)
    except UAPError:
        assert main(["train", "--config", str(path), "--out-dir", str(out)]) == 2
        assert not out.exists()


def resave_member(run_dir, edit):
    """Rewrite member 0 with ``edit`` applied to its name -> array dict."""
    path = run_dir / "member_000.ckpt"
    store, echo = ua.load_checkpoint(path)
    arrays = edit({name: t.data for name, t in store.items()})
    edited = ua.ParamStore()
    for name, data in arrays.items():
        edited.add(name, ua.Tensor(data))
    ua.save_checkpoint(path, edited, echo)


@pytest.mark.parametrize("edit, match", [
    (lambda a: {**a, "head.w": a["head.w"][:, :1]},
     r"'head.w' has shape \(4, 1\), expected \(4, 3\)"),
    (lambda a: {k: v for k, v in a.items() if k != "head.b"}, "'head.b' is missing"),
    (lambda a: {**a, "head.scale": np.ones(3)}, "'head.scale' is not expected"),
], ids=["reshaped", "missing", "extra"])
def test_load_predictor_checks_member_tensors(tmp_path, edit, match):
    ua.run_train(tiny_run_config(tmp_path))
    resave_member(tmp_path, edit)
    with pytest.raises(CompatibilityError, match="member_000.ckpt: tensor " + match):
        ua.run_evaluate(tmp_path)


def test_cli_evaluate_reshaped_tensor(tmp_path, capsys):
    ua.run_train(tiny_run_config(tmp_path))
    resave_member(tmp_path, lambda a: {**a, "head.w": a["head.w"][:, :1]})
    assert main(["evaluate", "--run-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("compatibility error:") and "head.w" in err


@pytest.fixture(scope="module")
def deep_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("deep")
    ua.run_train(tiny_run_config(run_dir, strategy="deep"))
    return run_dir


@pytest.mark.parametrize("category, values", [
    ("format", {"members": []}),
    ("format", {"members": [3]}),
    ("format", {"members": "member_000.ckpt"}),
    ("format", {"snapshot_last": "x"}),
    ("format", {"snapshot_last": -1}),
    ("format", {"stats_std": None}),
    ("format", {"stats_mean": [0.0, 0.0]}),
    ("format", {"stats_std": [0.0]}),
    ("format", {"mc_samples": "3"}),
    ("format", {"mc_delta": None}),
    ("format", {"temperatures": 2.0}),
    ("usage", {"temperatures": [-1.0, -1.0]}),
    ("usage", {"temperatures": [0.0, 1.0]}),
], ids=["members-empty", "members-int", "members-string", "snapshot-last-string",
        "snapshot-last-negative", "stats-std-null", "stats-mean-length",
        "stats-std-zero", "mc-samples-string", "mc-delta-null",
        "temperatures-scalar", "temperatures-negative", "temperatures-zero"])
def test_cli_evaluate_rejects_bad_manifest_values(deep_run, tmp_path, capsys,
                                                  category, values):
    run_dir = tmp_path / "run"
    shutil.copytree(deep_run, run_dir)
    path = run_dir / "predictor.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **values}))
    assert main(["evaluate", "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{category} error:") and err.count("\n") == 1
    assert next(iter(values)) in err
    if category == "format":
        assert "predictor.json" in err


def test_cli_evaluate_truncated_checkpoint(tmp_path, capsys):
    ua.run_train(tiny_run_config(tmp_path))
    path = tmp_path / "member_000.ckpt"
    path.write_bytes(path.read_bytes()[:-8])
    assert main(["evaluate", "--run-dir", str(tmp_path)]) == 2
    assert "format error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    "not json {",
    json.dumps({"variant": "single"}),
    json.dumps([{"variant": "single"}]),
    json.dumps([{**sample_report().to_dict(), "extra": 1}]),
], ids=["not-json", "not-a-list", "missing-keys", "extra-key"])
def test_cli_report_bad_input(tmp_path, capsys, content):
    source = tmp_path / "in.json"
    source.write_text(content)
    out = tmp_path / "out.csv"
    assert main(["report", "--inputs", str(source), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("format error:") and str(source) in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("temperatures", 5),
    ("accuracy", "abc"),
    ("ensemble_size", 1.5),
    ("nll", None),
    ("temperatures", [1, "x"]),
], ids=["temperatures-number", "accuracy-string", "ensemble-size-float", "nll-null",
        "temperatures-string-entry"])
def test_cli_report_badly_typed_value(tmp_path, capsys, key, value):
    source = tmp_path / "in.json"
    source.write_text(json.dumps([{**sample_report().to_dict(), key: value}]))
    out = tmp_path / "out.csv"
    assert main(["report", "--inputs", str(source), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("format error:") and str(source) in err and key in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_io_error_exit_code(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "missing.cfg")]) == 3
    assert "io error" in capsys.readouterr().err


def test_cli_evaluate_missing_run(tmp_path):
    assert main(["evaluate", "--run-dir", str(tmp_path / "nope")]) == 3


def torn_write_at(monkeypatch, crash_at: int) -> list:
    """Make the ``crash_at``-th Path.write_bytes write half its bytes and
    raise, as a process dying mid-write would; returns the paths written."""
    written = []
    write_bytes = Path.write_bytes

    def torn(path, data):
        written.append(path.name)
        if len(written) == crash_at + 1:
            write_bytes(path, data[: len(data) // 2])
            raise OSError("simulated crash")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", torn)
    return written


def without_wall_clock(report) -> dict:
    return {k: v for k, v in report.to_dict().items() if k != "wall_clock_seconds"}


def test_crash_during_run_train_never_leaves_a_torn_run(tmp_path, monkeypatch):
    full = ua.run_train(tiny_run_config(tmp_path / "full", strategy="deep"))
    expected = without_wall_clock(ua.run_evaluate(full.out_dir))
    names = sorted(p.name for p in full.out_dir.iterdir())
    assert names == ["config.txt", "member_000.ckpt", "member_001.ckpt",
                     "predictor.json", "run_log.json"]
    for crash_at in range(len(names)):
        out_dir = tmp_path / f"crash{crash_at}"
        # an earlier finished run of another seed shares the directory
        ua.run_train(tiny_run_config(out_dir, strategy="deep", seed=5))
        with monkeypatch.context() as patch:
            written = torn_write_at(patch, crash_at)
            with pytest.raises(OSError, match="simulated crash"):
                ua.run_train(tiny_run_config(out_dir, strategy="deep"))
        assert written[-1].endswith(".tmp")
        try:
            report = ua.run_evaluate(out_dir)
        except UAPError:
            continue
        assert without_wall_clock(report) == expected
    # predictor.json is the last file written, so no crash leaves a run
    # that evaluates, and none leaves the earlier run's manifest behind
    assert written[-1] == "predictor.json.tmp"
    with pytest.raises(FormatError, match="did not finish"):
        ua.run_evaluate(out_dir)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_crash_during_emit_report_keeps_the_earlier_report(tmp_path, monkeypatch, fmt):
    path = tmp_path / f"report.{fmt}"
    ua.emit_report([sample_report()], fmt, path)
    earlier = path.read_bytes()
    with monkeypatch.context() as patch:
        written = torn_write_at(patch, 0)
        with pytest.raises(OSError, match="simulated crash"):
            ua.emit_report([sample_report(seed=1)], fmt, path)
    assert written == [f"report.{fmt}.tmp"]
    assert path.read_bytes() == earlier
