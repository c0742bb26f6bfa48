"""The package names the benchmark (``perfbench/``) traces still resolve.

``perfbench/tracer.py`` wraps package functions and methods by name, and
``perfbench/run.py`` reads ``model.score_counter`` and wraps
``Predictor.probabilities``; a rename in the package would otherwise
show up only when the benchmark runs.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import uaperceiver.metrics
import uaperceiver.model
import uaperceiver.strategies

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PACKAGE, tracer.SPANS


PACKAGE, SPANS = load_spans()


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


def test_counted_names_resolve():
    counter = uaperceiver.model.score_counter
    assert isinstance(counter.cross, int) and isinstance(counter.latent, int)
    predictor = uaperceiver.strategies.Predictor
    assert inspect.isfunction(predictor.__dict__["probabilities"])
    assert inspect.isfunction(uaperceiver.metrics.nll_from_logits)
