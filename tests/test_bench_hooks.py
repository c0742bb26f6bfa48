"""The package names and configs the benchmark (``perfbench/``) uses
still resolve and parse.

``perfbench/tracer.py`` wraps package functions and methods by name, and
``perfbench/run.py`` reads ``model.score_counter``, wraps
``Predictor.probabilities`` and builds a ``RunConfig`` per workload; a
rename in the package or a new config check would otherwise show up
only when the benchmark runs.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import uaperceiver
import uaperceiver.metrics
import uaperceiver.model
import uaperceiver.strategies

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_module(name, path):
    """Execute a perfbench file as module ``name``, keeping ``sys.path``
    as it was (``run.py`` adds its own directory to import ``tracer``)."""
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


TRACER = load_module("perfbench_tracer", PERFBENCH / "tracer.py")
PACKAGE, SPANS = TRACER.PACKAGE, TRACER.SPANS
RUN = load_module("perfbench_run", PERFBENCH / "run.py")
WORKLOADS = RUN.WORKLOADS


@pytest.mark.parametrize("module_name,attr,span", SPANS,
                         ids=[span for _, _, span in SPANS])
def test_traced_attribute_resolves(module_name, attr, span):
    module = importlib.import_module(f"{PACKAGE}.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        target = getattr(module, cls_name).__dict__[method]
    else:
        target = getattr(module, attr)
    assert inspect.isfunction(target)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_parses(name):
    config = uaperceiver.RunConfig(**WORKLOADS[name])
    assert config.strategy == WORKLOADS[name]["strategy"]


def test_counted_names_resolve():
    counter = uaperceiver.model.score_counter
    assert isinstance(counter.cross, int) and isinstance(counter.latent, int)
    predictor = uaperceiver.strategies.Predictor
    assert inspect.isfunction(predictor.__dict__["probabilities"])
    # run.py wraps it with a function of (predictor, images)
    assert list(inspect.signature(predictor.probabilities).parameters) == [
        "self", "images"]
    assert inspect.isfunction(uaperceiver.metrics.nll_from_logits)


def test_mc_evaluation_does_the_counted_attention_work(tmp_path):
    """The benchmark marks an operation incorrect unless its score-counter
    delta equals ``expected_scores``; a small mc-eval run checks that
    here, worker shares included."""
    cfg = uaperceiver.RunConfig(**{
        **WORKLOADS["mc-eval"], "train_steps": 2, "synth_train": 8,
        "synth_test": 5, "mc_samples": 13, "out_dir": str(tmp_path)})
    uaperceiver.run_train(cfg)
    counter = uaperceiver.model.score_counter
    before = (counter.cross, counter.latent)
    uaperceiver.run_evaluate(tmp_path)
    delta = (counter.cross - before[0], counter.latent - before[1])
    assert delta == RUN.expected_scores(cfg, RUN.op_work(cfg)[1])
