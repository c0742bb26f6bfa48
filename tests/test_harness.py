"""Run harness: config parsing, checkpoint format, end-to-end training,
evaluation, reports, and the command-line front end."""

import csv
import dataclasses
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
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
    ("strategy = snapshot\ntrain_steps = 10\nsnapshot_cycles = 4\n",
     "snapshot_cycles 4 must divide train_steps 10"),
    ("strategy = snapshot\nsnapshot_cycles = 4\nsnapshot_last = 5\n",
     "be >= snapshot_last 5"),
    ("synth_noise = -1\n", "synth_noise"),
    ("synth_noise = inf\n", "synth_noise"),
    ("synth_contrast = nan\n", "synth_contrast"),
    ("synth_contrast = -inf\n", "synth_contrast"),
    ("beta2 = 1.5\n", "beta2"),
    ("beta1 = -0.5\n", "beta1"),
    ("beta1 = 1\n", "beta1"),
    ("adam_eps = 0\n", "eps"),
    ("weight_decay = -0.1\n", "weight_decay"),
    ("weight_decay = inf\n", "weight_decay"),
    ("adam_eps = inf\n", "eps"),
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
        "snapshot-partial-cycle", "snapshot-last-beyond-cycles",
        "synth-noise", "synth-noise-inf", "synth-contrast-nan", "synth-contrast-inf",
        "beta2", "beta1-negative", "beta1-one", "adam-eps", "weight-decay",
        "weight-decay-inf", "adam-eps-inf", "nan-lr", "fast-lr-low",
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


def test_checkpoint_trailing_bytes(tmp_path, tiny_config):
    """Bytes after the last payload (data appended, or two files
    concatenated) are a FormatError, not silently ignored."""
    path = tmp_path / "model.ckpt"
    ua.save_checkpoint(path, init_params(tiny_config, 0), "x = 1\n")
    path.write_bytes(path.read_bytes() + bytes(range(24)))
    with pytest.raises(FormatError, match="24 trailing bytes"):
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
    ua.save_checkpoint(path, ua.ParamStore({"w": (1, 1)}, [1.0]), echo)
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


def manifest_offsets(raw):
    """{name: position of its payload offset field} of a checkpoint."""
    import struct

    (echo_len,) = struct.unpack_from("<Q", raw, 8)
    pos = 16 + echo_len
    (count,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    found = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        name = raw[pos + 4:pos + 4 + name_len].decode()
        (ndim,) = struct.unpack_from("<I", raw, pos + 4 + name_len)
        pos += 4 + name_len + 4 + 8 * ndim
        found[name] = pos
        pos += 8
    return found


def swap_offsets(path, first, second):
    raw = bytearray(path.read_bytes())
    a, b = (manifest_offsets(raw)[name] for name in (first, second))
    raw[a:a + 8], raw[b:b + 8] = raw[b:b + 8], raw[a:a + 8]
    path.write_bytes(bytes(raw))


def test_checkpoint_offsets_must_be_back_to_back(tmp_path):
    path = tmp_path / "model.ckpt"
    ua.save_checkpoint(path, ua.ParamStore({"a": (2,), "b": (1,)}, [1.0, 2.0, 3.0]),
                       "x = 1\n")
    swap_offsets(path, "a", "b")
    with pytest.raises(FormatError, match="'a' has payload offset 16, expected 0"):
        ua.load_checkpoint(path)


def test_checkpoint_repeated_name_is_format_error(tmp_path):
    path = tmp_path / "model.ckpt"
    ua.save_checkpoint(path, ua.ParamStore({"a": (1,), "b": (1,)}, [1.0, 2.0]),
                       "x = 1\n")
    raw = bytearray(path.read_bytes())
    raw[manifest_offsets(raw)["b"] - 8 - 4 - 1] = ord("a")  # the name "b"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="'a' appears twice"):
        ua.load_checkpoint(path)


def test_cli_evaluate_swapped_offsets_exits_2(tmp_path, capsys):
    ua.run_train(tiny_run_config(tmp_path))
    member = tmp_path / "member_000.ckpt"
    store, _ = ua.load_checkpoint(member)
    swap_offsets(member, *store.names()[:2])
    assert main(["evaluate", "--run-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("format error:") and "payload offset" in err
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("strategy,expected_members,kind", [
    ("single", 1, "single"),
    ("deep", 2, "deep_ensemble"),
    ("deep", 1, "deep_ensemble"),
    ("swa", 1, "swa"),
    ("snapshot", 3, "snapshot"),
    ("fast", 3, "fast"),
    ("mc", 1, "mc_dropout"),
], ids=["single-1", "deep-2", "deep-1", "swa-1", "snapshot-3", "fast-3", "mc-1"])
def test_each_strategy_round_trips(tmp_path, strategy, expected_members, kind):
    # only deep reads ensemble_size
    config = tiny_run_config(tmp_path, strategy=strategy, ensemble_size=expected_members,
                             train_steps=6 if strategy == "snapshot" else 3)
    result = ua.run_train(config)
    assert len(result.member_files) == expected_members
    assert json.loads((tmp_path / "predictor.json").read_text())["kind"] == kind
    report = ua.run_evaluate(tmp_path)
    assert 0.0 <= report.accuracy <= 1.0
    assert np.isfinite(report.nll) and np.isfinite(report.brier)
    assert 0.0 <= report.ece <= 1.0
    assert report.seed == config.seed


def test_loaded_predictor_matches_in_memory(tmp_path):
    config = tiny_run_config(tmp_path, strategy="deep")
    result = ua.run_train(config)
    predictor, loaded_config = load_predictor(tmp_path)
    assert loaded_config == config
    test = build_dataset(config, "test")
    probs_mem = result.predictor.probabilities(test.images)
    probs_disk = predictor.probabilities(test.images)
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
                            result.predictor.members[-2:], stats=result.predictor.stats)
    expected = evaluate_predictor(last_two, config, test)
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
    report = evaluate_predictor(result.predictor, config, test)
    from uaperceiver.data import standardize

    # the predictor standardizes its input as data.standardize does
    stats_free = dataclasses.replace(result.predictor, stats=None)
    probs = stats_free.probabilities(standardize(test, result.predictor.stats).images)
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
    predictor, loaded = load_predictor(tmp_path)
    test = build_dataset(loaded, "test")
    fields = ("variant", "ensemble_size", "accuracy", "nll", "ece", "brier",
              "temperatures")
    for size, report in enumerate(reports, 1):
        prefix = ua.Predictor(predictor.kind, predictor.config,
                              predictor.members[:size],
                              temperatures=predictor.temperatures[:size],
                              stats=predictor.stats)
        expected = evaluate_predictor(prefix, loaded, test)
        assert ([getattr(report, f) for f in fields]
                == [getattr(expected, f) for f in fields])


def test_sweep_evaluates_each_member_once(tmp_path, monkeypatch):
    from uaperceiver import parallel, strategies
    from uaperceiver.data import calibration_rows

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
    calibration = len(calibration_rows(len(train), 0)[1])
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


def test_csv_report_bytes_of_ordinary_rows(tmp_path):
    path = tmp_path / "out.csv"
    ua.emit_report([sample_report(), sample_report(seed=3, temperatures=[1.25, 2.5])],
                   "csv", path)
    assert path.read_bytes() == (
        b"variant,ensemble_size,seed,accuracy,nll,ece,brier,temperatures,"
        b"wall_clock_seconds\n"
        b"single,1,0,0.75,0.61234567890123459,0.050000000000000003,0.125,,1.5\n"
        b"single,1,3,0.75,0.61234567890123459,0.050000000000000003,0.125,"
        b"1.25;2.5,1.5\n")


def read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def test_csv_report_quotes_a_variant_with_comma_and_newline(tmp_path):
    """A variant comes from the manifest's free-form "kind": a comma, a
    newline or a carriage return in it stays inside its one cell."""
    path = tmp_path / "out.csv"
    ua.emit_report([sample_report(variant="deep,ensemble"),
                    sample_report(variant="a\nb", temperatures=[1.25, 2.5]),
                    sample_report(variant="a\rb")],
                   "csv", path)
    header, *rows = read_csv(path)
    assert len(header) == 9 and [len(row) for row in rows] == [9, 9, 9]
    assert [row[0] for row in rows] == ["deep,ensemble", "a\nb", "a\rb"]
    assert rows[1][header.index("temperatures")] == "1.25;2.5"


def test_report_schema_follows_metrics_report_fields(tmp_path, monkeypatch):
    """A field added to MetricsReport is written to JSON and CSV, read
    back by load_reports, and type-checked, with no other edit."""
    from uaperceiver import harness

    extended = dataclasses.make_dataclass(
        "MetricsReport", [("train_seconds", float)], bases=(harness.MetricsReport,))
    monkeypatch.setattr(harness, "MetricsReport", extended)
    report = extended(**sample_report().to_dict(), train_seconds=2.25)
    path = tmp_path / "out.json"
    ua.emit_report([report], "json", path)
    assert json.loads(path.read_text())[0]["train_seconds"] == 2.25
    assert load_reports(path) == [report]

    ua.emit_report([report], "csv", tmp_path / "out.csv")
    header, row = read_csv(tmp_path / "out.csv")
    assert header[-1] == "train_seconds" and row[-1] == "2.25"

    path.write_text(json.dumps([{**report.to_dict(), "train_seconds": "abc"}]))
    with pytest.raises(FormatError) as info:
        load_reports(path)
    assert str(info.value) == f"{path}: row 0: train_seconds must be a finite number"


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
        b"weight_decay = inf\n",
        b"adam_eps = inf\n",
        b"synth_noise = inf\n",
        b"synth_contrast = nan\n",
    ]):
        cfg = tmp_path / f"run{i}.cfg"
        cfg.write_bytes(TINY.encode() + extra)
        out = tmp_path / f"run{i}"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and err.count("\n") == 1, extra
        assert not out.exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_cli_diverging_run_is_one_numeric_error_line(tmp_path, monkeypatch, capsys,
                                                     workers):
    """An update that overflows the weights ends the run with one line,
    not numpy warnings (which the test suite raises as errors); a batch
    of two chunks puts one on each worker."""
    from uaperceiver import parallel

    monkeypatch.setattr(parallel, "worker_count", lambda items: min(workers, items))
    sets = ["learning_rate=1e300", "train_steps=3", "synth_train=16", "batch_size=16",
            "synth_test=4"]
    argv = ["train", "--out-dir", str(tmp_path / "run")]
    assert main(argv + [arg for item in sets for arg in ("--set", item)]) == 2
    assert capsys.readouterr().err == (
        "numeric error: AdamW step 1 made parameter 'input.byte_proj.w' non-finite\n")


@pytest.mark.parametrize("learning_rate", ["1e30", "1e100", "1e150"])
def test_cli_overflowing_forward_is_one_numeric_error_line(tmp_path, capsys,
                                                          learning_rate):
    """Weights that stay finite but overflow a forward (layer norm, GELU,
    attention scores, a linear) end the run with the node's one
    ``numeric error`` line: numpy's warnings, which the test suite raises
    as errors as ``python -W error`` does, are off inside a forward and a
    backward."""
    sets = [f"learning_rate={learning_rate}", "train_steps=3", "synth_train=8",
            "synth_test=4"]
    argv = ["train", "--out-dir", str(tmp_path / "run")]
    assert main(argv + [arg for item in sets for arg in ("--set", item)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and err.count("\n") == 1, err


def wait_for(condition, what: str, seconds: float = 60.0):
    """Poll ``condition()`` until it returns a true value, and return it."""
    deadline = time.monotonic() + seconds
    while not (found := condition()):
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)
    return found


def catches_sigterm(pid: int) -> bool:
    """Whether process ``pid`` has a handler for SIGTERM (Linux)."""
    status = Path(f"/proc/{pid}/status").read_text()
    caught = int(re.search(r"^SigCgt:\s*([0-9a-f]+)$", status, re.M).group(1), 16)
    return bool(caught >> (signal.SIGTERM - 1) & 1)


def children(pid: int) -> list[int]:
    return [int(c) for c in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]


def no_process_in_group(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="reads the process tree from Linux /proc")
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
@pytest.mark.parametrize("workers", [1, 2])
def test_cli_interrupted_run_is_one_line(tmp_path, workers, signum):
    """Ctrl-C (SIGINT to the whole process group, as a terminal sends it)
    or SIGTERM (to the main process, as ``timeout`` sends it) during
    training ends the run with one ``interrupted`` line and exit status
    128 + the signal number: workers ignore SIGINT, so none ends as a
    worker error, and the parent kills and reaps them. No ``out_dir`` is
    created and no process of the run is left."""
    cores = sorted(os.sched_getaffinity(0))[:workers]
    if len(cores) < workers:
        pytest.skip(f"needs {workers} usable cores")
    src = str(Path(ua.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p)}
    out = tmp_path / "run"
    sets = ["train_steps=1000000", "synth_train=32", "synth_test=4", "batch_size=16"]
    argv = [sys.executable, "-m", "uaperceiver", "train", "--out-dir", str(out)]
    run = subprocess.Popen(argv + [a for item in sets for a in ("--set", item)],
                           env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, start_new_session=True,
                           preexec_fn=lambda: os.sched_setaffinity(0, cores))
    try:
        wait_for(lambda: run.poll() is not None or catches_sigterm(run.pid),
                 "the CLI's SIGTERM handler")
        forked = wait_for(lambda: run.poll() is not None or children(run.pid),
                          "a worker") if workers > 1 else []
        assert run.poll() is None, run.communicate()
        if signum == signal.SIGINT:
            for pid in forked:  # a worker that took it would end as a worker error
                os.kill(pid, signum)
            time.sleep(0.5 if forked else 0.0)
            assert run.poll() is None, run.communicate()
            os.killpg(run.pid, signum)
        else:
            run.send_signal(signum)
        out_text, err = run.communicate(timeout=60)
    finally:
        if run.poll() is None:
            os.killpg(run.pid, signal.SIGKILL)
            run.wait()
    assert (run.returncode, err, out_text) == (128 + signum, "interrupted\n", "")
    assert len(forked) == workers - 1
    assert not out.exists()
    wait_for(lambda: no_process_in_group(run.pid), "the run's processes to end", 10.0)


@pytest.mark.parametrize("setting", [
    "synth_train=100000000000000",
    "latent_count=10000000000000",
    "num_bands=10000000000000",
    "latent_count=10000000000000 strategy=deep",
])
def test_cli_train_that_cannot_allocate_is_one_line(tmp_path, capsys, setting):
    """A config whose first large array exceeds the 47-bit address space
    (hundreds of TiB), so numpy refuses it at once and allocates nothing,
    exits 2 with one ``resource error`` line and creates no out_dir."""
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "run"
    sets = [arg for item in setting.split() for arg in ("--set", item)]
    assert main(["train", "--config", str(cfg), "--out-dir", str(out), *sets]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_cli_evaluate_mc_samples_that_cannot_allocate_is_one_line(tmp_path, capfd):
    """An MC run whose predictor.json asks for 10**15 samples per image:
    the first group's sample seeds alone (8 PB) exceed the 47-bit address
    space, so numpy refuses them before any mask is drawn, and evaluate
    exits 2 with one ``resource error`` line, in no process a traceback."""
    ua.run_train(tiny_run_config(tmp_path, strategy="mc"))
    path = tmp_path / "predictor.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "mc_samples": 10**15}))
    capfd.readouterr()
    assert main(["evaluate", "--run-dir", str(tmp_path)]) == 2
    out, err = capfd.readouterr()
    assert err.startswith("resource error: ") and err.count("\n") == 1, err
    assert not out


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
    edited = ua.ParamStore({name: data.shape for name, data in arrays.items()},
                           np.concatenate([data.ravel() for data in arrays.values()]))
    ua.save_checkpoint(path, edited, echo)


@pytest.mark.parametrize("edit, match", [
    (lambda a: {**a, "head.w": a["head.w"][:, :1]},
     r"'head.w' has shape \(4, 1\), expected \(4, 3\)"),
    (lambda a: {k: v for k, v in a.items() if k != "head.b"}, "'head.b' is missing"),
    (lambda a: {**a, "head.scale": np.ones(3)}, "'head.scale' is not expected"),
    (lambda a: {"head.b": a["head.b"], **a}, "'head.b' is out of order"),
], ids=["reshaped", "missing", "extra", "reordered"])
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
        assert not list(out_dir.glob("*.tmp"))  # the failed write removed its file
        try:
            report = ua.run_evaluate(out_dir)
        except UAPError:
            continue
        assert without_wall_clock(report) == expected
    # predictor.json is the last file written, so no crash leaves a run
    # that evaluates, and none leaves the earlier run's manifest behind
    assert written[-1].startswith("predictor.json.") and written[-1].endswith(".tmp")
    with pytest.raises(FormatError, match="did not finish"):
        ua.run_evaluate(out_dir)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_crash_during_emit_report_keeps_the_earlier_report(tmp_path, monkeypatch, fmt):
    path = tmp_path / f"report.{fmt}"
    ua.emit_report([sample_report()], fmt, path)
    earlier = path.read_bytes()
    # another writer's temp file under the old fixed name is not touched
    other = tmp_path / f"report.{fmt}.tmp"
    other.write_bytes(b"another writer")
    with monkeypatch.context() as patch:
        written = torn_write_at(patch, 0)
        with pytest.raises(OSError, match="simulated crash"):
            ua.emit_report([sample_report(seed=1)], fmt, path)
    [name] = written
    assert name.startswith(f"report.{fmt}.") and name.endswith(".tmp") and name != other.name
    assert path.read_bytes() == earlier
    assert sorted(tmp_path.iterdir()) == sorted([path, other])
    assert other.read_bytes() == b"another writer"
    # a written file gets the mode a plain open() gives it
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    assert path.stat().st_mode == plain.stat().st_mode
