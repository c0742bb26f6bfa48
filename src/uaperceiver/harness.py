"""Run orchestration: configs, checkpoints, training runs, reports.

A run is fully described by a plain-text ``key = value`` config file.
Training writes one checkpoint per predictor member, a JSON manifest,
and a step log into the output directory; evaluation rebuilds the
predictor from disk and emits a metrics report. Everything downstream
of (config, seeds) is bit-reproducible.

Each strategy is one row of ``_STRATEGY_ROWS`` (its own config checks,
schedule and training): adding a strategy means adding one row.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import struct
import tempfile
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

# predictor.json holds every Predictor field but config, members and stats
# by name, next to the "members" checkpoint files and the predictor's input
# statistics as "stats_mean"/"stats_std" lists
_MANIFEST_HINTS = {key: hint for key, hint in typing.get_type_hints(Predictor).items()
                   if key not in ("config", "members", "stats")}
MANIFEST_KEYS = tuple(_MANIFEST_HINTS)

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
        _STRATEGY_ROWS[self.strategy].check(self)
        if not 0.0 <= self.synth_noise < math.inf:
            raise ConfigError(
                f"synth_noise must be finite and >= 0, got {self.synth_noise}")
        if not math.isfinite(self.synth_contrast):
            raise ConfigError(
                f"synth_contrast must be finite, got {self.synth_contrast}")
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
        """The strategy's learning-rate schedule (after pretraining, if any)."""
        return _STRATEGY_ROWS[self.strategy].schedule(self)

    def train_settings(self) -> TrainSettings:
        return TrainSettings(self.batch_size, AdamWSettings(
            beta1=self.beta1, beta2=self.beta2, eps=self.adam_eps,
            weight_decay=self.weight_decay))


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


# ---- strategies ------------------------------------------------------


class _Strategy(typing.NamedTuple):
    check: typing.Callable  # (config): ConfigError for what only it forbids
    schedule: typing.Callable  # (config) -> LRSchedule, after any pretraining
    train: typing.Callable  # (config, model, data, schedule, settings) -> predictor, logs


def _check_mc(config: RunConfig) -> None:
    config._at_least(1, "mc_samples")
    if not 0.0 <= config.mc_delta <= 1.0:
        raise ConfigError(f"mc_delta must lie in [0, 1], got {config.mc_delta}")


def _check_snapshot(config: RunConfig) -> None:
    config._at_least(1, "snapshot_cycles")
    config._at_least(0, "snapshot_last")
    cycles, steps, last = config.snapshot_cycles, config.train_steps, config.snapshot_last
    if steps % cycles or last > cycles:  # else fewer snapshots than it names
        raise ConfigError(f"snapshot_cycles {cycles} must divide train_steps {steps} "
                          f"and be >= snapshot_last {last}")


def _constant(config: RunConfig, steps: int | None = None) -> LRSchedule:
    lr = config.learning_rate
    return LRSchedule("constant", lr, lr, steps or config.train_steps, 1)


def _train_single(config, model, data, schedule, settings):
    # the plain baseline: one model, no temperature scaling
    store, _, log = train_member(model, data, schedule, derive_seed(config.seed, 0),
                                 settings, fit_temperature=False)
    return Predictor("single", model, [store]), [log]


def _train_mc(config, model, data, schedule, settings):
    single, logs = _train_single(config, model, data, schedule,
                                 dataclasses.replace(settings, mc_delta=config.mc_delta))
    return Predictor("mc_dropout", model, single.members, mc_delta=config.mc_delta,
                     mc_samples=config.mc_samples,
                     mc_seed=derive_seed(config.seed, 0xAB)), logs


def _train_snapshot(config, model, data, schedule, settings):
    predictor, log = snapshot_train(model, config.seed, data, schedule, settings,
                                    average_last=config.snapshot_last or None)
    return predictor, [log]


def _after_pretraining(train_from, config, model, data, schedule, settings):
    """``train_from`` (swa_train or fast_train) continuing the single
    baseline trained for pretrain_steps."""
    single, logs = _train_single(config, model, data,
                                 _constant(config, config.pretrain_steps), settings)
    predictor, log = train_from(model, single.members[0], data, schedule,
                                derive_seed(config.seed, 1), settings)
    return predictor, [*logs, log]


_STRATEGY_ROWS = {
    "single": _Strategy(lambda c: None, _constant, _train_single),
    "deep": _Strategy(lambda c: c._at_least(1, "ensemble_size"), _constant,
                      lambda c, model, *rest: deep_ensemble_train(
                          model, c.ensemble_size, c.seed, *rest)),
    "swa": _Strategy(lambda c: c._at_least(1, "pretrain_steps"), lambda c: LRSchedule(
        "swa_linear", c.learning_rate, c.lr_low, c.swa_steps, c.swa_cycle),
        functools.partial(_after_pretraining, swa_train)),
    "snapshot": _Strategy(_check_snapshot, lambda c: LRSchedule(
        "snapshot_cosine", c.learning_rate, 0.0, c.train_steps, c.snapshot_cycles),
        _train_snapshot),
    "fast": _Strategy(
        lambda c: c._at_least(1, "pretrain_steps", "fast_cycles", "fast_steps_per_cycle"),
        lambda c: LRSchedule("fast_cyclic", c.learning_rate, c.fast_lr_low,
                             c.fast_cycles * c.fast_steps_per_cycle, c.fast_cycles),
        functools.partial(_after_pretraining, fast_train)),
    "mc": _Strategy(_check_mc, _constant, _train_mc),
}
STRATEGIES = tuple(_STRATEGY_ROWS)


# ---- checkpoints -----------------------------------------------------


def save_checkpoint(path, store: ParamStore, echo: str) -> None:
    """Binary layout: magic, u32 version, u64-length config echo, u32
    tensor count, manifest of (name, shape, payload offset), then the
    store's vector as a flat little-endian float64 payload, so each
    offset is the byte size of the tensors before it. Round-trips
    bit-exactly."""
    echo_bytes = echo.encode("utf-8")
    manifest = bytearray()
    offset = 0
    for name, shape in store.shapes().items():
        name_bytes = name.encode("utf-8")
        manifest += struct.pack("<I", len(name_bytes)) + name_bytes
        manifest += struct.pack(f"<I{len(shape)}QQ", len(shape), *shape, offset)
        offset += 8 * math.prod(shape)
    blob = (
        CHECKPOINT_MAGIC
        + struct.pack("<I", CHECKPOINT_VERSION)
        + struct.pack("<Q", len(echo_bytes))
        + echo_bytes
        + struct.pack("<I", len(store.names()))
        + bytes(manifest)
        + store.vector.astype("<f8").tobytes()
    )
    _replace_file(Path(path), blob)


def _replace_file(path: Path, data: bytes) -> None:
    """Write ``data`` to a temp file of its own beside ``path``, then rename
    it over ``path``: a crash leaves the old file or the new one, never a
    torn one, and a failed write removes its temp file."""
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        os.umask(umask := os.umask(0))  # the mask is read by setting it
        os.chmod(tmp, 0o666 & ~umask)  # the mode open() gives, not mkstemp's 0600
        Path(tmp).write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[ParamStore, str]:
    """(store, config echo) of a checkpoint in ``save_checkpoint``'s
    layout; any other layout is a FormatError."""
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
    shapes: dict[str, tuple] = {}
    size = 0  # bytes of the tensors read so far
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = text(name_len)
        (ndim,) = struct.unpack("<I", take(4))
        shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(ndim))
        (offset,) = struct.unpack("<Q", take(8))
        if name in shapes:
            raise FormatError(f"{path}: tensor {name!r} appears twice")
        if offset != size:  # save_checkpoint packs the tensors back to back
            raise FormatError(f"{path}: tensor {name!r} has payload offset "
                              f"{offset}, expected {size}")
        shapes[name] = shape
        size += 8 * math.prod(shape)  # exact: never wraps like int64
    payload = view[pos:]
    if size > len(payload):
        raise FormatError(f"{path}: truncated payload, {len(payload)} of {size} bytes")
    if size < len(payload):
        raise FormatError(f"{path}: {len(payload) - size} trailing bytes")
    try:
        store = ParamStore(shapes, np.frombuffer(payload, dtype="<f8"))
    except ValueError as exc:  # e.g. more axes than numpy supports
        raise FormatError(f"{path}: bad shape: {exc}") from None
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
    out_dir: Path
    member_files: list[str]


def run_train(config: RunConfig) -> RunResult:
    """Train the configured strategy and persist checkpoints + run log.
    ``out_dir`` is created once training has finished, so a run that
    fails before then leaves nothing behind."""
    train = build_dataset(config, "train")
    stats = None
    if config.normalize:
        stats = channel_stats(train)
        train = standardize(train, stats)
    predictor, logs = _STRATEGY_ROWS[config.strategy].train(
        config, config.model_config(), train, config.schedule(), config.train_settings())
    predictor = dataclasses.replace(predictor, stats=stats)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    return RunResult(predictor, logs, out_dir, member_files)


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


# what a JSON value must be to fill a field of each annotated type:
# type -> (description, test)
_JSON_TYPES = {
    str: ("a string", lambda v: type(v) is str),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", lambda v: _numbers([v])),
    list[float] | None: ("null or a list of numbers",
                         lambda v: v is None or _numbers(v)),
    dict: ("a JSON object", lambda v: type(v) is dict),
}


def _check_types(where, values: dict, hints: dict) -> None:
    """FormatError naming the first key of ``hints`` (field name -> type)
    whose value in ``values``, which holds every such key, does not fit
    its type."""
    for key, hint in hints.items():
        kind, valid = _JSON_TYPES[hint]
        if not valid(values[key]):
            raise FormatError(f"{where}: {key} must be {kind}")


def load_predictor(run_dir) -> tuple[Predictor, RunConfig]:
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
    files = manifest["members"]
    if type(files) is not list or not files or any(type(f) is not str for f in files):
        raise FormatError(f"{path}: members must be a non-empty list of file names")
    _check_types(path, manifest, _MANIFEST_HINTS)
    fields = {key: manifest[key] for key in MANIFEST_KEYS}
    # older manifests list every snapshot and name how many to average
    keep = manifest.get("snapshot_last", 0)
    if type(keep) is not int or keep < 0:
        raise FormatError(f"{path}: snapshot_last must be an integer >= 0")
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
    mean, std = manifest["stats_mean"], manifest["stats_std"]
    if (mean, std) != (None, None) and not (
            _numbers(mean, config.channels) and _numbers(std, config.channels)
            and min(std) > 0):
        raise FormatError(f"{path}: stats_mean and stats_std must both be null, or "
                          f"lists of {config.channels} finite numbers with std > 0")
    stats = None if mean is None else ChannelStats(np.array(mean), np.array(std))
    return Predictor(config=model_config, members=members, stats=stats, **fields), config


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
                       test: Dataset) -> MetricsReport:
    start = time.perf_counter()
    probs = predictor.probabilities(test.images)
    return _report(predictor, predictor.ensemble_size, probs, config, test,
                   time.perf_counter() - start)


def run_evaluate(run_dir) -> MetricsReport:
    """Rebuild the persisted predictor and score it on the test split."""
    predictor, config = load_predictor(run_dir)
    return evaluate_predictor(predictor, config, build_dataset(config, "test"))


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


def load_reports(path) -> list[MetricsReport]:
    """Reports from a JSON list written by ``emit_report``; each row has
    exactly the ``MetricsReport`` fields, each value fits its field's type."""
    rows = read_json(path)
    if not isinstance(rows, list):
        raise FormatError(f"{path}: expected a JSON list of reports")
    hints = typing.get_type_hints(MetricsReport)
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or set(row) != set(hints):
            raise FormatError(f"{path}: row {i} is not a metrics report "
                              f"(expected keys {list(hints)})")
        _check_types(f"{path}: row {i}", row, hints)
    return [MetricsReport(**row) for row in rows]


def _fmt(value) -> str:
    """A CSV cell: 17 significant digits per float, "" for None, the entries
    of a list joined by ";", and quotes around text holding a comma, a quote,
    CR or LF (Python 3.11's csv.writer leaves a lone CR bare under LF lines)."""
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


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
    # one column per MetricsReport field but the config
    columns = [f.name for f in dataclasses.fields(MetricsReport) if f.name != "config"]
    rows = [columns] + [[_fmt(getattr(r, col)) for col in columns] for r in reports]
    _replace_file(path, "".join(",".join(row) + "\n" for row in rows).encode("utf-8"))
