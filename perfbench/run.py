"""Benchmark of whole uncertainty strategies through the public harness.

    python3 perfbench/run.py --workload deep-small --seed 1 --seconds 30 --trace 0

Each operation calls ``uaperceiver.harness.run_train`` and then
``run_evaluate``, as a user of the package does (``mc-eval`` trains once
during set-up and its operations only evaluate). Operations run back to
back in this one process, closed-loop with a single client, until
``--seconds`` have passed. Every operation's outputs are checked; a
failed check or an exception counts the operation as failed.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics: self time per layer and counts per operation (see
tracer.py), plus the traced/untraced wall-time ratio.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import SPANS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# The model of acceptance criterion 7 (16x16x3 images, N=8, D=C=32,
# 4 bands, R=1, L=1, H=2).
CRITERION7 = dict(latent_count=8, latent_dim=32, byte_dim=32, num_bands=4,
                  depth_repeats=1, tower_layers=1, heads=2)

# RunConfig fields per workload; the seed sets ``seed`` and ``data_seed``.
# Train-split sizes are multiples of the batch size, so every step sees a
# full batch and the work of an operation follows from the config.
WORKLOADS = {
    # per-image graphs at batch 4: Python dispatch bound; temperature fit
    # and four checkpoints written and read per operation
    "deep-small": dict(strategy="deep", ensemble_size=4, batch_size=4,
                       learning_rate=1e-3, train_steps=25, synth_train=400,
                       synth_test=100, **CRITERION7),
    # RunConfig default model at batch 32: latent tower, large matmuls and
    # AdamW over more parameters; no temperature fit
    "snapshot-wide": dict(strategy="snapshot", batch_size=32, train_steps=4,
                          snapshot_cycles=2, synth_train=256, synth_test=40),
    # forward only: 30 single-image forwards per test image
    "mc-eval": dict(strategy="mc", mc_delta=0.1, mc_samples=30, batch_size=4,
                    learning_rate=1e-3, train_steps=120, synth_train=400,
                    synth_test=40, **CRITERION7),
}

SETUP_REPEATS = 9
PROB_SUM_TOL = 1e-12


def import_package():
    """Import uaperceiver from this checkout's ``src``, never elsewhere."""
    src = ROOT / "src"
    if not (src / "uaperceiver" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no uaperceiver sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import uaperceiver

    if Path(uaperceiver.__file__).resolve().parent != src / "uaperceiver":
        raise SystemExit(f"perfbench: imported uaperceiver from {uaperceiver.__file__}")
    return uaperceiver


# ---- expected work ---------------------------------------------------


def op_work(cfg) -> tuple[int, int]:
    """(training images, image forwards) of one operation."""
    if cfg.strategy == "mc":
        return 0, cfg.synth_test * cfg.mc_samples
    members = cfg.ensemble_size if cfg.strategy == "deep" else 1
    samples = members * cfg.train_steps * cfg.batch_size
    if cfg.strategy == "deep":
        calibration = max(1, math.ceil(0.1 * cfg.synth_train))
        return samples, samples + members * (calibration + cfg.synth_test)
    return samples, samples + cfg.snapshot_cycles * cfg.synth_test


def expected_scores(cfg, forwards: int) -> tuple[int, int]:
    """Attention score entries (cross, latent) for ``forwards`` images."""
    n, m = cfg.latent_count, cfg.height * cfg.width
    r, l, h = cfg.depth_repeats, cfg.tower_layers, cfg.heads
    return forwards * r * h * n * m, forwards * r * l * h * n * n


# ---- environment -----------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library loaded into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in paths:
        lib = ctypes.CDLL(path)
        # plain OpenBLAS, then the symbol-prefixed build numpy wheels ship
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---- operations ------------------------------------------------------


@dataclass
class Op:
    traced: bool
    wall: float
    train_s: float | None
    eval_s: float
    report: object
    probs: object
    digest: str | None
    scores: tuple[int, int]
    layers: dict | None = None


def checkpoint_digest(run_dir: Path) -> str:
    """sha256 over the member checkpoints, in manifest order."""
    manifest = json.loads((run_dir / "predictor.json").read_text())
    digest = hashlib.sha256()
    for name in manifest["members"]:
        digest.update((run_dir / name).read_bytes())
    return digest.hexdigest()


def report_numbers(report) -> tuple:
    return (report.accuracy, report.nll, report.ece, report.brier,
            report.temperatures, report.ensemble_size, report.variant)


class Bench:
    """One workload at one seed, in a scratch directory of its own."""

    def __init__(self, cfg, scratch: Path):
        import numpy as np

        from uaperceiver import harness, metrics, model, strategies

        self.np, self.harness, self.metrics = np, harness, metrics
        self.model, self.strategies = model, strategies
        self.run_dir = scratch / "run"
        self.cfg = dataclasses.replace(cfg, out_dir=str(self.run_dir))
        self.trains = self.cfg.strategy != "mc"
        self.samples, self.forwards = op_work(self.cfg)
        self.tracer = Tracer()
        self.labels = None
        self.scratch = scratch
        self.last_probs = None

    # Predictor.probabilities is wrapped for the whole run so every
    # operation's probability rows can be checked; the wrapper adds one
    # Python call per evaluation.
    def capture_probabilities(self):
        cls = self.strategies.Predictor
        original = cls.__dict__["probabilities"]

        def probabilities(predictor, images):
            self.last_probs = original(predictor, images)
            return self.last_probs

        cls.probabilities = probabilities
        return lambda: setattr(cls, "probabilities", original)

    def set_up(self) -> tuple[float, float | None, str | None]:
        """Data generation, MC pre-training (mc-eval) and warm-up.

        Returns (seconds, run_train seconds of the MC pre-training,
        checkpoint digest of the MC pre-training)."""
        clock = time.perf_counter
        start = clock()
        _, test = self.harness.build_datasets(self.cfg)
        self.labels = test.labels
        if self.trains:
            warm = dataclasses.replace(
                self.cfg, train_steps=1, ensemble_size=1, snapshot_cycles=1,
                out_dir=str(self.scratch / "warm"),
            )
            self.harness.run_train(warm)
            return clock() - start, None, None
        t0 = clock()
        self.harness.run_train(self.cfg)
        train_s = clock() - t0
        elapsed = clock() - start
        return elapsed, train_s, checkpoint_digest(self.run_dir)

    def operation(self, traced: bool) -> Op:
        counter = self.model.score_counter
        before = (counter.cross, counter.latent)
        run_train, run_evaluate = self.harness.run_train, self.harness.run_evaluate
        if traced:
            self.tracer.reset()
            run_train = self.tracer.span("harness.run_train", run_train)
            run_evaluate = self.tracer.span("harness.run_evaluate", run_evaluate)
            self.tracer.install()
        self.last_probs = None
        clock = time.perf_counter
        try:
            t0 = clock()
            if self.trains:
                run_train(self.cfg)
            t1 = clock()
            report = run_evaluate(self.run_dir)
            t2 = clock()
        finally:
            if traced:
                self.tracer.remove()
        scores = (counter.cross - before[0], counter.latent - before[1])
        op = Op(traced, t2 - t0, t1 - t0 if self.trains else None, t2 - t1,
                report, self.last_probs,
                checkpoint_digest(self.run_dir) if self.trains else None, scores)
        if traced:
            op.layers = self.layer_metrics(op)
        return op

    def layer_metrics(self, op: Op) -> dict:
        selfs = self.tracer.self_times()
        counts = self.tracer.counts
        out = {f"{name}_s": selfs.get(name, 0.0) for _, _, name in SPANS}
        out["harness.run_train_s"] = selfs.get("harness.run_train", 0.0)
        out["harness.run_evaluate_s"] = selfs.get("harness.run_evaluate", 0.0)
        out["tensor.op_calls"] = counts["tensor.op_calls"]
        out["tensor.op_calls_per_train_sample"] = (
            counts["tensor.train_op_calls"] / self.samples if self.samples else 0.0
        )
        out["tensor.backward_calls"] = counts["tensor.backward.calls"]
        out["model.forwards"] = counts["model.head.calls"]
        out["model.forward_logits_calls"] = counts["model.forward_logits.calls"]
        for key in ("model.forward_logits_rows", "metrics.nll_evals",
                    "metrics.temperature_fits", "metrics.temperature_kept_one",
                    "harness.checkpoint_bytes_written",
                    "harness.checkpoint_bytes_read"):
            out[key] = counts[key]
        out["model.score_entries_cross"], out["model.score_entries_latent"] = op.scores
        out["test_nll"] = op.report.nll
        out["test_ece"] = op.report.ece
        out["test_accuracy"] = op.report.accuracy
        return out

    def check(self, op: Op, reference: Op | None) -> list[str]:
        """Reasons the operation's outputs are wrong; empty when correct."""
        np, M = self.np, self.metrics
        problems = []
        probs = op.probs
        shape = (len(self.labels), self.cfg.num_classes)
        if probs is None or probs.shape != shape:
            problems.append(f"probabilities missing or not of shape {shape}")
        elif not np.all(np.isfinite(probs)):
            problems.append("non-finite probabilities")
        elif np.max(np.abs(probs.sum(axis=1) - 1.0)) > PROB_SUM_TOL:
            problems.append("a probability row does not sum to 1")
        else:
            batch = M.EvalBatch(probs, self.labels)
            recomputed = (M.accuracy(batch), M.nll(batch), M.ece(batch), M.brier(batch))
            if recomputed != report_numbers(op.report)[:4]:
                problems.append("report disagrees with its probability rows")
        if op.scores != expected_scores(self.cfg, self.forwards):
            problems.append(f"attention score entries {op.scores} != "
                            f"{expected_scores(self.cfg, self.forwards)} for "
                            f"{self.forwards} image forwards")
        if reference is not None:
            if op.digest != reference.digest:
                problems.append("checkpoint bytes differ between operations")
            if report_numbers(op.report) != report_numbers(reference.report):
                problems.append("metrics report differs between operations")
            if probs is not None and not np.array_equal(probs, reference.probs):
                problems.append("probabilities differ between operations")
        return problems


def run(name: str, seed: int, seconds: float, trace: bool,
        overrides: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (metric values by name, summary)."""
    ua = import_package()
    import numpy as np

    cfg = ua.RunConfig(**{**WORKLOADS[name], **(overrides or {}),
                          "seed": seed, "data_seed": seed})
    # A relative run directory keeps the config echo, and so the
    # checkpoint bytes, independent of where the checkout lives.
    scratch = Path(".perfbench") / f"{name}-{seed}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    bench = Bench(cfg, scratch)
    restore = bench.capture_probabilities()
    failures: list[str] = []
    ops: list[Op] = []
    attempted = 0
    try:
        setups = [bench.set_up() for _ in range(SETUP_REPEATS)]
        for i, (took, train_s, _) in enumerate(setups, 1):
            print(f"set-up {i}: {took:.4f}s train={train_s or 0:.4f}s", file=sys.stderr)
        if len({digest for _, _, digest in setups}) != 1:
            failures.append("set-up: MC pre-training checkpoints differ between repeats")
            attempted += 1
        deadline = time.perf_counter() + seconds
        index = 0
        while index < 2 or time.perf_counter() < deadline:
            traced = trace and index % 2 == 1
            index += 1
            attempted += 1
            try:
                op = bench.operation(traced)
            except Exception:
                traceback.print_exc()
                failures.append(f"operation {index}: raised")
                continue
            print(f"operation {index}: traced={int(op.traced)} "
                  f"train={op.train_s or 0:.4f}s eval={op.eval_s:.4f}s", file=sys.stderr)
            problems = bench.check(op, ops[0] if ops else None)
            if problems:
                failures.append(f"operation {index}: " + "; ".join(problems))
            else:
                ops.append(op)
    finally:
        restore()
        shutil.rmtree(scratch, ignore_errors=True)

    env = environment(np)
    env["checkpoint_sha256"] = ops[0].digest if ops and ops[0].digest else setups[0][2]
    summary = {"attempted": attempted, "failed": len(failures), "failures": failures,
               "env": env}
    untraced = [op for op in ops if not op.traced]
    traced_ops = [op for op in ops if op.traced]
    values: dict = {}
    if trace:
        if untraced and traced_ops:
            for key in traced_ops[0].layers:
                values[key] = statistics.median(op.layers[key] for op in traced_ops)
            values["trace.overhead_ratio"] = (
                statistics.median(op.wall for op in traced_ops)
                / statistics.median(op.wall for op in untraced)
            )
    elif untraced:
        values["setup_s"] = statistics.median(s for s, _, _ in setups)
        if bench.trains:
            rates = [bench.samples / op.train_s for op in untraced]
        else:
            pretrain = cfg.train_steps * cfg.batch_size
            rates = [pretrain / train_s for _, train_s, _ in setups]
        values["train_samples_per_s"] = statistics.median(rates)
        values["eval_images_per_s"] = statistics.median(
            cfg.synth_test / op.eval_s for op in untraced)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values, summary


def result_line(values: dict, summary: dict, trace: bool) -> dict:
    """The result object, with exactly the metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    failed = summary["failed"]
    missing = set(names) - set(values) if failed == 0 else set()
    if missing or set(values) - set(names):
        raise RuntimeError(f"metrics {sorted(missing | (set(values) - set(names)))} "
                           "do not match BENCHMARK.json")
    return {
        "correct": failed == 0,
        "attempted": summary["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    values, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = result_line(values, summary, bool(args.trace))
    for failure in summary["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print("env " + json.dumps(summary["env"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
