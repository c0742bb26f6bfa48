"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

The repository's own test suite does not collect this file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Train splits stay multiples of the batch size (see run.WORKLOADS).
TINY = {
    "deep-small": dict(ensemble_size=2, train_steps=2, synth_train=40, synth_test=8),
    "snapshot-wide": dict(train_steps=2, synth_train=64, synth_test=4),
    "mc-eval": dict(train_steps=2, synth_train=40, synth_test=4, mc_samples=3),
}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def tiny_result(name: str, seed: int, trace: bool) -> tuple[dict, dict]:
    values, summary = run.run(name, seed, 0.0, trace, TINY[name])
    assert summary["failed"] == 0, summary["failures"]
    return run.result_line(values, summary, trace), summary


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, _ = tiny_result(name, 1, trace=False)
    assert result["correct"] and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def package_bindings() -> dict:
    """Every module global and class attribute a traced run may replace."""
    import uaperceiver as ua

    owners = [m for k, m in sys.modules.items() if k.startswith("uaperceiver")]
    owners += [ua.Tensor, ua.Predictor, ua.ParamStore]
    return {(owner.__name__, attr): value
            for owner in owners for attr, value in vars(owner).items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_and_removes_its_wrappers(name):
    run.import_package()
    before = package_bindings()
    result, _ = tiny_result(name, 1, trace=True)
    after = package_bindings()
    assert [key for key in before if after.get(key) is not before[key]] == []
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    # self time is span minus child spans; spans that did not nest would
    # have failed the operation
    assert all(m["value"] >= 0 for m in metrics.values())
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["model.forward_logits_rows"]["value"] > 0
    trains = name != "mc-eval"
    assert (metrics["tensor.backward_calls"]["value"] > 0) == trains
    assert (metrics["optim.adamw_step_s"]["value"] > 0) == trains


@pytest.mark.parametrize("name", sorted(TINY))
def test_second_seed_runs_clean(name):
    _, first_summary = tiny_result(name, 1, trace=False)
    second, second_summary = tiny_result(name, 2, trace=False)
    assert second["correct"] and second["failed"] == 0
    assert (first_summary["env"]["checkpoint_sha256"]
            != second_summary["env"]["checkpoint_sha256"])


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: sum(range(20000)))
    outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    selfs = tracer.self_times()
    (_, o_start, o_end, _), = [s for s in tracer.spans if s[0] == "outer"]
    assert selfs["inner"] > 0 and selfs["outer"] >= 0
    assert selfs["inner"] + selfs["outer"] == pytest.approx(o_end - o_start)
    assert tracer.counts["inner.calls"] == 3
    tracer.spans[1][2] = o_end + 1.0  # a child that outlives its parent
    with pytest.raises(ValueError):
        tracer.self_times()


def test_every_layer_metric_has_a_prediction():
    record = json.loads((HERE / "record.json").read_text())
    assert sorted(record["predictions"]) == sorted(m["name"] for m in SPEC["per_layer"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
