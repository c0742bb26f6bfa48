"""Spans and counts around the public functions of the uaperceiver package.

The benchmark records layer timings from its own files: ``Tracer.install``
replaces each traced function wherever callers look it up (every module
global bound to it, or the class attribute for methods) and ``remove``
puts the originals back, so untraced operations run the package exactly
as shipped.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the root). Self time is a span's duration minus the
durations of its direct children. Public ``tensor`` operations are only
counted, not timed: there are tens of thousands per operation and their
time is part of the enclosing layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name). A dotted attribute is a method; the
# span's self time is reported as the per-layer metric "<span name>_s".
SPANS = (
    ("tensor", "Tensor.backward", "tensor.backward"),
    ("model", "build_byte_array", "model.build_byte_array"),
    ("model", "cross_attention", "model.cross_attention"),
    ("model", "latent_block", "model.latent_block"),
    # perceiver_forward's self time is the latent loop, pooling and head
    ("model", "perceiver_forward", "model.head"),
    ("model", "forward_logits", "model.forward_logits"),
    ("model", "batch_loss", "model.batch_loss"),
    ("optim", "adamw_step", "optim.adamw_step"),
    ("metrics", "temperature_scale", "metrics.temperature_scale"),
    ("strategies", "mc_predict", "strategies.mc_predict"),
    ("strategies", "mc_dropout_mask", "strategies.mc_dropout_mask"),
    ("strategies", "Predictor.probabilities", "strategies.probabilities"),
    ("strategies", "train_model", "strategies.train_loop_self"),
    ("params", "ParamStore.detached", "params.detached"),
    ("data", "make_batches", "data.make_batches"),
    ("data", "synth_dataset", "data.synth_dataset"),
    ("data", "standardize", "data.standardize"),
    ("harness", "save_checkpoint", "harness.save_checkpoint"),
    ("harness", "load_checkpoint", "harness.load_checkpoint"),
)

PACKAGE = "uaperceiver"


class Tracer:
    """In-memory spans and counters for one traced operation at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._training = 0
        self._undo: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # ---- recording ---------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span and a call count;
        ``after(args, result)`` may add counts from the call."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        # tensor op calls made inside train_model are training op calls
        training = name == "strategies.train_loop_self"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            self._training += training
            try:
                result = fn(*args, **kwargs)
            finally:
                self._training -= training
                stack.pop()
                spans[index][2] = clock()
            counts[name + ".calls"] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counted_op(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["tensor.op_calls"] += 1
            if self._training:
                counts["tensor.train_op_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self) -> dict[str, float]:
        """Sum of self time per span name; raises if spans do not nest."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end < start:
                raise ValueError(f"span {name} ends before it starts")
            if parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    raise ValueError(f"span {name} leaves its parent span")
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += (end - start) - inner
        return dict(totals)

    # ---- installation ------------------------------------------------

    def _hooks(self):
        counts = self.counts

        def rows(args, result):
            counts["model.forward_logits_rows"] += len(result)

        def fitted(args, result):
            counts["metrics.temperature_fits"] += 1
            counts["metrics.temperature_kept_one"] += result[0] == 1.0

        def written(args, result):
            counts["harness.checkpoint_bytes_written"] += os.path.getsize(args[0])

        def read(args, result):
            counts["harness.checkpoint_bytes_read"] += os.path.getsize(args[0])

        return {
            "model.forward_logits": rows,
            "metrics.temperature_scale": fitted,
            "harness.save_checkpoint": written,
            "harness.load_checkpoint": read,
        }

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        hooks = self._hooks()
        for module_name, attr, name in SPANS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, method, self.span(name, cls.__dict__[method]))
            else:
                fn = getattr(module, attr)
                self._replace_everywhere(modules, fn,
                                         self.span(name, fn, hooks.get(name)))
        tensor = importlib.import_module(f"{PACKAGE}.tensor")
        for attr, fn in vars(tensor).copy().items():
            if (inspect.isfunction(fn) and fn.__module__ == tensor.__name__
                    and not attr.startswith("_") and attr != "as_tensor"):
                self._replace_everywhere(modules, fn, self._counted_op(fn))
        metrics = importlib.import_module(f"{PACKAGE}.metrics")
        nll = metrics.nll_from_logits

        @functools.wraps(nll)
        def counted_nll(*args, **kwargs):
            self.counts["metrics.nll_evals"] += 1
            return nll(*args, **kwargs)

        self._replace_everywhere(modules, nll, counted_nll)

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _replace_everywhere(self, modules, fn, wrapper) -> None:
        for module in modules:
            for attr, value in vars(module).copy().items():
                if value is fn:
                    self._replace(module, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _package_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]
