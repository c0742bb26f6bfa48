"""Run orchestration: configs, checkpoints, training runs, reports.

A run is fully described by a plain-text ``key = value`` config file.
Training writes one checkpoint per predictor member, a JSON manifest,
and a step log into the output directory; evaluation rebuilds the
predictor from disk and emits a metrics report. Everything downstream
of (config, seeds) is bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics as M
from .data import (
    CIFAR_CLASSES,
    CIFAR_SHAPE,
    ChannelStats,
    Dataset,
    channel_stats,
    load_cifar,
    standardize,
    synth_dataset,
)
from .errors import (CompatibilityError, ConfigError, DimensionError, FormatError,
                     RangeError, UsageError)
from .model import PerceiverConfig, param_shapes
from .optim import AdamWSettings
from .params import ParamStore
from .rng import derive_seed
from .schedules import LRSchedule
from .strategies import (
    Predictor,
    TrainRunLog,
    TrainSettings,
    deep_ensemble_train,
    ensemble_average,
    fast_train,
    snapshot_train,
    swa_train,
    train_member,
)
from .tensor import Tensor

STRATEGIES = ("single", "deep", "swa", "snapshot", "fast", "mc")
# config counts that only one strategy reads; each must be >= 1 under it
STRATEGY_COUNTS = {
    "deep": ("ensemble_size",),
    "swa": ("pretrain_steps",),
    "fast": ("pretrain_steps", "fast_cycles", "fast_steps_per_cycle"),
    "mc": ("mc_samples",),
}

# predictor.json holds these Predictor fields by name, next to the
# "members" checkpoint files and the "stats_mean"/"stats_std" lists
MANIFEST_KEYS = ("kind", "temperatures", "mc_delta", "mc_samples", "mc_seed")

CHECKPOINT_MAGIC = b"UAPC"
CHECKPOINT_VERSION = 1


# ---- configuration ---------------------------------------------------


@dataclass(frozen=True)
class RunConfig(PerceiverConfig):
    """The model fields of ``PerceiverConfig`` (first, in its order)
    followed by the strategy, optimizer, dataset and run fields."""

    # strategy
    strategy: str = "single"
    ensemble_size: int = 4
    train_steps: int = 100
    pretrain_steps: int = 20
    snapshot_cycles: int = 5
    snapshot_last: int = 0  # 0 = average all snapshots
    swa_steps: int = 10
    swa_cycle: int = 5
    fast_cycles: int = 4
    fast_steps_per_cycle: int = 5
    mc_delta: float = 0.1
    mc_samples: int = 30
    # optimizer (defaults mirror the reference experiment setup)
    learning_rate: float = 5e-6
    lr_low: float = 2e-6
    fast_lr_low: float = 5e-7
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    batch_size: int = 4
    # dataset
    dataset: str = "synth"
    data_path: str = ""
    test_path: str = ""
    synth_train: int = 2000
    synth_test: int = 500
    synth_noise: float = 0.02
    synth_contrast: float = 1.0
    normalize: bool = True
    data_seed: int = 0
    # run
    seed: int = 0
    out_dir: str = "runs/out"

    def __post_init__(self):
        super().__post_init__()
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.dataset == "synth":
            if self.width != self.height or self.height < 4:
                raise ConfigError("synth images are square with height >= 4, got "
                                  f"{self.height} x {self.width}")
        elif self.dataset not in CIFAR_CLASSES:
            raise ConfigError(f"unknown dataset {self.dataset!r}")
        elif ((self.height, self.width, self.channels, self.num_classes)
              != (needed := (*CIFAR_SHAPE, CIFAR_CLASSES[self.dataset]))):
            raise ConfigError(f"{self.dataset} needs height, width, channels, "
                              f"num_classes = {needed}")
        self._at_least(1, "batch_size", "train_steps", "synth_train", "synth_test")
        self._at_least(1, *STRATEGY_COUNTS.get(self.strategy, ()))
        if self.strategy == "mc" and not 0.0 <= self.mc_delta <= 1.0:
            raise ConfigError(f"mc_delta must lie in [0, 1], got {self.mc_delta}")
        if self.strategy == "snapshot":
            self._at_least(0, "snapshot_last")
        if not self.synth_noise >= 0.0:
            raise ConfigError(f"synth_noise must be >= 0, got {self.synth_noise}")
        try:
            self.train_settings()
        except RangeError as exc:
            raise ConfigError(f"AdamW: {exc}") from None
        try:
            self.schedule()
        except UsageError as exc:
            raise ConfigError(f"strategy {self.strategy}: {exc}") from None

    def model_config(self) -> PerceiverConfig:
        return PerceiverConfig(**{f.name: getattr(self, f.name)
                                  for f in dataclasses.fields(PerceiverConfig)})

    def schedule(self) -> LRSchedule:
        """The learning-rate schedule of the configured strategy (after
        pretraining, for swa and fast)."""
        lr = self.learning_rate
        if self.strategy == "swa":
            return LRSchedule("swa_linear", lr, self.lr_low, self.swa_steps,
                              self.swa_cycle)
        if self.strategy == "snapshot":
            return LRSchedule("snapshot_cosine", lr, 0.0, self.train_steps,
                              self.snapshot_cycles)
        if self.strategy == "fast":
            return LRSchedule("fast_cyclic", lr, self.fast_lr_low,
                              self.fast_cycles * self.fast_steps_per_cycle,
                              self.fast_cycles)
        return LRSchedule("constant", lr, lr, self.train_steps, 1)

    def train_settings(self, mc_delta: float = 0.0) -> TrainSettings:
        return TrainSettings(
            batch_size=self.batch_size,
            adamw=AdamWSettings(
                beta1=self.beta1,
                beta2=self.beta2,
                eps=self.adam_eps,
                weight_decay=self.weight_decay,
            ),
            mc_delta=mc_delta,
        )


_TYPES = typing.get_type_hints(RunConfig)  # field name -> type


def _parse_value(key: str, raw: str):
    kind = _TYPES[key]
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for config key {key!r}")


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse ``key = value`` lines; '#' starts a comment. Unknown keys
    are an error; overrides (e.g. CLI flags) win over file values."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _TYPES:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        values[key] = _parse_value(key, raw)
    for key, value in (overrides or {}).items():
        if key not in _TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = value if not isinstance(value, str) else _parse_value(key, value)
    return RunConfig(**values)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    try:
        return parse_config(Path(path).read_text(encoding="utf-8"), overrides)
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: config file is not UTF-8") from None


def config_echo(config: RunConfig) -> str:
    lines = [
        f"{f.name} = {getattr(config, f.name)}"
        for f in dataclasses.fields(RunConfig)
    ]
    return "\n".join(lines) + "\n"


# ---- checkpoints -----------------------------------------------------


def save_checkpoint(path, store: ParamStore, echo: str) -> None:
    """Binary layout: magic, u32 version, u64-length config echo, u32
    tensor count, manifest of (name, shape, payload offset), then a flat
    little-endian float64 payload. Round-trips bit-exactly."""
    echo_bytes = echo.encode("utf-8")
    manifest = bytearray()
    payload = bytearray()
    offset = 0
    count = 0
    for name, t in store.items():
        name_bytes = name.encode("utf-8")
        manifest += struct.pack("<I", len(name_bytes)) + name_bytes
        manifest += struct.pack("<I", t.data.ndim)
        for extent in t.data.shape:
            manifest += struct.pack("<Q", extent)
        manifest += struct.pack("<Q", offset)
        payload += t.data.astype("<f8").tobytes()
        offset += t.data.size * 8
        count += 1
    blob = (
        CHECKPOINT_MAGIC
        + struct.pack("<I", CHECKPOINT_VERSION)
        + struct.pack("<Q", len(echo_bytes))
        + echo_bytes
        + struct.pack("<I", count)
        + bytes(manifest)
        + bytes(payload)
    )
    _replace_file(Path(path), blob)


def _replace_file(path: Path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over
    ``path``: a crash leaves the old file or the new one, never a torn one."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def load_checkpoint(path) -> tuple[ParamStore, str]:
    raw = Path(path).read_bytes()
    view = memoryview(raw)
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(raw):
            raise FormatError(f"{path}: truncated checkpoint")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    def text(n):
        try:
            return bytes(take(n)).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: text field is not UTF-8") from None

    if bytes(take(4)) != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic, not a checkpoint")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    (echo_len,) = struct.unpack("<Q", take(8))
    echo = text(echo_len)
    (count,) = struct.unpack("<I", take(4))
    entries = []
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = text(name_len)
        (ndim,) = struct.unpack("<I", take(4))
        shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(ndim))
        (offset,) = struct.unpack("<Q", take(8))
        entries.append((name, shape, offset))
    payload = view[pos:]
    store = ParamStore()
    for name, shape, offset in entries:
        size = math.prod(shape)  # exact: never wraps like int64
        if offset + 8 * size > len(payload):
            raise FormatError(f"{path}: truncated payload for tensor {name!r}")
        try:
            arr = np.frombuffer(
                payload, dtype="<f8", count=size, offset=offset
            ).reshape(shape)
        except ValueError as exc:  # e.g. more axes than numpy supports
            raise FormatError(f"{path}: bad shape for tensor {name!r}: {exc}") from None
        store.add(name, Tensor(arr))
    return store, echo


# ---- datasets --------------------------------------------------------


def build_dataset(config: RunConfig, split: str) -> Dataset:
    """The config's "train" or "test" split, pre-normalization; only that
    split's data is generated or read."""
    if split not in ("train", "test"):
        raise UsageError(f"split must be 'train' or 'test', got {split!r}")
    train = split == "train"
    if config.dataset == "synth":
        return synth_dataset(
            derive_seed(config.data_seed, 0 if train else 1),
            config.synth_train if train else config.synth_test,
            resolution=config.height, num_classes=config.num_classes,
            channels=config.channels, noise=config.synth_noise,
            contrast=config.synth_contrast, split=split,
        )
    if not config.data_path or not config.test_path:
        raise ConfigError("data_path and test_path are required for CIFAR runs")
    path = config.data_path if train else config.test_path
    return dataclasses.replace(load_cifar(path, config.dataset), split=split)


def build_datasets(config: RunConfig) -> tuple[Dataset, Dataset]:
    """(train, test) pair described by the config, pre-normalization."""
    return build_dataset(config, "train"), build_dataset(config, "test")


# ---- training --------------------------------------------------------


@dataclass
class RunResult:
    predictor: Predictor
    logs: list[TrainRunLog]
    stats: ChannelStats | None
    out_dir: Path
    member_files: list[str]


def _train_predictor(config: RunConfig, train: Dataset
                     ) -> tuple[Predictor, list[TrainRunLog]]:
    model = config.model_config()
    settings = config.train_settings()
    schedule = config.schedule()

    if config.strategy == "single":
        # the plain baseline: one model, no temperature scaling
        store, _, log = train_member(
            model, train, schedule, derive_seed(config.seed, 0), settings,
            fit_temperature=False,
        )
        return Predictor("single", model, [store]), [log]
    if config.strategy == "deep":
        return deep_ensemble_train(
            model, config.ensemble_size, config.seed, train, schedule, settings,
        )
    if config.strategy == "mc":
        store, _, log = train_member(
            model, train, schedule, derive_seed(config.seed, 0),
            config.train_settings(mc_delta=config.mc_delta), fit_temperature=False,
        )
        predictor = Predictor(
            "mc_dropout", model, [store], mc_delta=config.mc_delta,
            mc_samples=config.mc_samples, mc_seed=derive_seed(config.seed, 0xAB),
        )
        return predictor, [log]
    if config.strategy == "snapshot":
        predictor, log = snapshot_train(
            model, config.seed, train, schedule, settings,
            average_last=config.snapshot_last or None,
        )
        return predictor, [log]

    # swa and fast both start from a conventionally pretrained solution
    lr = config.learning_rate
    pretrained, _, pre_log = train_member(
        model, train, LRSchedule("constant", lr, lr, config.pretrain_steps, 1),
        derive_seed(config.seed, 0), settings, fit_temperature=False,
    )
    train_from = swa_train if config.strategy == "swa" else fast_train
    predictor, log = train_from(model, pretrained, train, schedule,
                                derive_seed(config.seed, 1), settings)
    return predictor, [pre_log, log]


def run_train(config: RunConfig) -> RunResult:
    """Train the configured strategy and persist checkpoints + run log."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train = build_dataset(config, "train")
    stats = None
    if config.normalize:
        stats = channel_stats(train)
        train = standardize(train, stats)
    predictor, logs = _train_predictor(config, train)

    echo = config_echo(config)
    # predictor.json, written last, marks a finished run: remove any earlier
    # run's before its checkpoints can be overwritten
    (out_dir / "predictor.json").unlink(missing_ok=True)
    member_files = []
    for i, store in enumerate(predictor.members):
        fname = f"member_{i:03d}.ckpt"
        save_checkpoint(out_dir / fname, store, echo)
        member_files.append(fname)
    manifest = {
        "members": member_files,
        **{key: getattr(predictor, key) for key in MANIFEST_KEYS},
        "stats_mean": None if stats is None else list(stats.mean),
        "stats_std": None if stats is None else list(stats.std),
    }
    log_payload = [
        {"member": i, "steps": log.steps, "captures": log.captures}
        for i, log in enumerate(logs)
    ]
    _replace_file(out_dir / "config.txt", echo.encode("utf-8"))
    _replace_file(out_dir / "run_log.json", json.dumps(log_payload).encode("utf-8"))
    _replace_file(out_dir / "predictor.json",
                  json.dumps(manifest, indent=2).encode("utf-8"))
    return RunResult(predictor, logs, stats, out_dir, member_files)


# ---- evaluation ------------------------------------------------------


@dataclass
class MetricsReport:
    variant: str
    ensemble_size: int
    seed: int
    accuracy: float  # fraction
    nll: float  # nats
    ece: float  # fraction
    brier: float
    temperatures: list[float] | None
    wall_clock_seconds: float
    config: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def read_json(path):
    """Parsed JSON content of ``path``; malformed text is a FormatError."""
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from None


def _numbers(value, count: int | None = None) -> bool:
    """A list of finite JSON numbers (of ``count`` entries, if given)."""
    return type(value) is list and count in (None, len(value)) and all(
        type(v) in (int, float) and abs(v) <= np.finfo(float).max for v in value)


def _check_values(where, values: dict, types: dict) -> None:
    """FormatError naming the first key whose value fails its type test."""
    for key, (kind, valid) in types.items():
        if key in values and not valid(values[key]):
            raise FormatError(f"{where}: {key} must be {kind}")


_FINITE = ("a finite number", lambda v: _numbers([v]))
_INTEGER = ("an integer", lambda v: type(v) is int)
_STRING = ("a string", lambda v: type(v) is str)
_TEMPERATURES = ("null or a list of numbers", lambda v: v is None or _numbers(v))
# what each predictor.json value must be: key -> (description, test)
_MANIFEST_TYPES = {
    "members": ("a non-empty list of file names", lambda v: type(v) is list
                and v != [] and all(type(f) is str for f in v)),
    "kind": _STRING,
    "temperatures": _TEMPERATURES,
    "mc_delta": _FINITE,
    "mc_samples": _INTEGER,
    "mc_seed": _INTEGER,
    "snapshot_last": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
}


def load_predictor(run_dir) -> tuple[Predictor, RunConfig, ChannelStats | None]:
    run_dir = Path(run_dir)
    path = run_dir / "predictor.json"
    if run_dir.is_dir() and not path.exists():
        raise FormatError(f"{path}: missing; the run did not finish")
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: expected a JSON object")
    missing = [key for key in ("members", *MANIFEST_KEYS, "stats_mean", "stats_std")
               if key not in manifest]
    if missing:
        raise FormatError(f"{path}: missing keys {missing}")
    _check_values(path, manifest, _MANIFEST_TYPES)
    files = manifest["members"]
    fields = {key: manifest[key] for key in MANIFEST_KEYS}
    # older manifests list every snapshot and name how many to average
    keep = manifest.get("snapshot_last")
    if keep:
        files = files[-keep:]
        if fields["temperatures"]:
            fields["temperatures"] = fields["temperatures"][-keep:]
    members = []
    echo = None
    for fname in files:
        store, member_echo = load_checkpoint(run_dir / fname)
        if echo is None:
            echo = member_echo
        elif member_echo != echo:
            raise CompatibilityError(f"{fname}: config echo differs between members")
        members.append(store)
    config = parse_config(echo)
    model_config = config.model_config()
    expected = param_shapes(model_config)
    for fname, store in zip(files, members):
        try:
            store.check_shapes(expected)
        except DimensionError as exc:
            raise CompatibilityError(f"{fname}: {exc}") from None
    predictor = Predictor(config=model_config, members=members, **fields)
    mean, std = manifest["stats_mean"], manifest["stats_std"]
    if mean is None and std is None:
        return predictor, config, None
    if not (_numbers(mean, config.channels) and _numbers(std, config.channels)
            and min(std) > 0):
        raise FormatError(f"{path}: stats_mean and stats_std must both be null, or "
                          f"lists of {config.channels} finite numbers with std > 0")
    return predictor, config, ChannelStats(np.array(mean), np.array(std))


def _report(predictor: Predictor, size: int, probs, config: RunConfig,
            test: Dataset, elapsed: float) -> MetricsReport:
    """Scores of ``probs``, the average of the first ``size`` members."""
    batch = M.EvalBatch(probs, test.labels)
    temperatures = predictor.temperatures
    return MetricsReport(
        variant=predictor.kind,
        ensemble_size=size,
        seed=config.seed,
        accuracy=M.accuracy(batch),
        nll=M.nll(batch),
        ece=M.ece(batch),
        brier=M.brier(batch),
        temperatures=None if temperatures is None else temperatures[:size],
        wall_clock_seconds=elapsed,
        config=dataclasses.asdict(config),
    )


def evaluate_predictor(predictor: Predictor, config: RunConfig,
                       stats: ChannelStats | None, test: Dataset) -> MetricsReport:
    start = time.perf_counter()
    if stats is not None:
        test = standardize(test, stats)
    probs = predictor.probabilities(test.images)
    return _report(predictor, predictor.ensemble_size, probs, config, test,
                   time.perf_counter() - start)


def run_evaluate(run_dir) -> MetricsReport:
    """Rebuild the persisted predictor and score it on the test split."""
    predictor, config, stats = load_predictor(run_dir)
    test = build_dataset(config, "test")
    return evaluate_predictor(predictor, config, stats, test)


def sweep_ensemble(config: RunConfig, max_size: int | None = None
                   ) -> list[MetricsReport]:
    """Deep-ensemble size sweep 1..M from a single trained member pool.

    Each member is evaluated once; the size-k report scores the average
    of the first k members' rows, and its ``wall_clock_seconds`` is the
    shared evaluation of all M members plus that average."""
    config = dataclasses.replace(
        config, strategy="deep",
        ensemble_size=config.ensemble_size if max_size is None else max_size,
    )
    result = run_train(config)
    test = build_dataset(config, "test")
    start = time.perf_counter()
    if result.stats is not None:
        test = standardize(test, result.stats)
    member_probs = result.predictor.member_probabilities(test.images)
    shared = time.perf_counter() - start
    reports = []
    for size in range(1, len(member_probs) + 1):
        start = time.perf_counter()
        probs = ensemble_average(member_probs[:size])
        reports.append(_report(result.predictor, size, probs, config, test,
                               shared + time.perf_counter() - start))
    return reports


# ---- report emission -------------------------------------------------


# what each report row value must be: key -> (description, test)
_REPORT_TYPES = {
    "variant": _STRING,
    "ensemble_size": _INTEGER,
    "seed": _INTEGER,
    "accuracy": _FINITE,
    "nll": _FINITE,
    "ece": _FINITE,
    "brier": _FINITE,
    "temperatures": _TEMPERATURES,
    "wall_clock_seconds": _FINITE,
    "config": ("a JSON object", lambda v: type(v) is dict),
}


def load_reports(path) -> list[MetricsReport]:
    """Reports from a JSON list written by ``emit_report``."""
    rows = read_json(path)
    if not isinstance(rows, list):
        raise FormatError(f"{path}: expected a JSON list of reports")
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or set(row) != set(_REPORT_TYPES):
            raise FormatError(f"{path}: row {i} is not a metrics report "
                              f"(expected keys {list(_REPORT_TYPES)})")
        _check_values(f"{path}: row {i}", row, _REPORT_TYPES)
    return [MetricsReport(**row) for row in rows]


_CSV_COLUMNS = ("variant", "ensemble_size", "seed", "accuracy", "nll", "ece",
                "brier", "temperatures", "wall_clock_seconds")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_report(reports: list[MetricsReport], fmt: str, path) -> None:
    """Serialize reports as JSON (lossless round-trip) or CSV (17
    significant digits per number), replacing ``path`` atomically."""
    if not reports:
        raise ConfigError("emit_report needs at least one report")
    path = Path(path)
    if fmt == "json":
        _replace_file(path, json.dumps([r.to_dict() for r in reports],
                                       indent=2).encode("utf-8"))
        return
    if fmt != "csv":
        raise ConfigError(f"unknown report format {fmt!r}")
    lines = [",".join(_CSV_COLUMNS)]
    for r in reports:
        row = []
        for col in _CSV_COLUMNS:
            value = getattr(r, col)
            if col == "temperatures":
                row.append("" if value is None else ";".join(_fmt(t) for t in value))
            else:
                row.append(_fmt(value))
        lines.append(",".join(row))
    _replace_file(path, ("\n".join(lines) + "\n").encode("utf-8"))
