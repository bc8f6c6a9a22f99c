"""Span tracer that wraps kdeproc's public functions from outside the package.

``install`` replaces each traced callable with a wrapper that appends one
span (name, parent span, start, end) to in-memory lists.  A function is
patched in every loaded kdeproc module that binds it by name, so
``from .process import simulate`` in harness, urn and martingale is covered;
methods are patched on their class.  ``Tracer.summary`` turns the spans into
per-layer call counts, self times (a span's duration minus its children's)
and the extra counters the wrappers record; ``Tracer.reset`` starts the next
run afresh.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _trajectory_points(counters, layer, args, kwargs, result):
    counters[f"{layer}.points"] += len(result)


def _written_bytes(counters, layer, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    counters[f"{layer}.bytes"] += os.path.getsize(path)


# (layer name, module, attribute path, extra counter).  An attribute path with
# a dot names a method on a class in that module.
TRACED = (
    ("streams.from_seed", "streams", "DrawStreams.from_seed", None),
    ("process.simulate", "process", "simulate", _trajectory_points),
    ("kernels.sample", "kernels", "KernelSpec.sample", None),
    ("kernels.cdf1", "kernels", "KernelSpec.cdf1", None),
    ("bandwidth.values", "bandwidth", "BandwidthSchedule.values", None),
    ("process.dominating_path", "process", "dominating_path", None),
    ("process.cf_path", "process", "cf_path", None),
    ("process.write_trajectory_csv", "process", "write_trajectory_csv", _written_bytes),
    ("process.PredictiveMixture.quantile", "process", "PredictiveMixture.quantile", None),
    ("process.PredictiveMixture.cdf", "process", "PredictiveMixture.cdf", None),
    ("martingale.cf_corrections", "martingale", "cf_corrections", None),
    ("martingale.lemma_product_tail", "martingale", "lemma_product_tail", None),
    ("martingale.start_index", "martingale", "start_index", None),
    ("martingale.tightness_trace", "martingale", "tightness_trace", None),
    ("martingale.tail_prob_bound_check", "martingale", "tail_prob_bound_check", None),
    ("urn.simulate_descendants", "urn", "simulate_descendants", None),
    ("urn.betabinom_pmf_vector", "urn", "betabinom_pmf_vector", None),
    ("config.load_data_points", "config", "load_data_points", None),
    ("config.ExperimentConfig.from_file", "config", "ExperimentConfig.from_file", None),
    ("harness.run", "harness", "run", None),
)


class Tracer:
    """Spans kept in flat lists; index -1 as parent marks a root span."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def reset(self) -> None:
        """Drop every span and counter, before the next traced run."""
        for spans in (self.names, self.parents, self.starts, self.ends):
            spans.clear()
        self.counters.clear()

    def wrap(self, layer: str, fn, count=None):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack,
        )
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(layer)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, layer, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per layer: ``<layer>.calls``, ``<layer>.self_s`` and extra counters."""
        out = {f"{layer}.{field}": 0 for layer, *_ in TRACED for field in ("calls", "self_s")}
        out.update(self.counters)
        if not self.names:
            return out
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child_time
        layers, layer_idx = np.unique(np.asarray(self.names), return_inverse=True)
        calls = np.bincount(layer_idx, minlength=len(layers))
        self_sum = np.bincount(layer_idx, weights=self_time, minlength=len(layers))
        for layer, n, s in zip(layers.tolist(), calls.tolist(), self_sum.tolist()):
            out[f"{layer}.calls"] = n
            out[f"{layer}.self_s"] = s
        return out


def install(tracer: Tracer) -> None:
    """Wrap every traced callable that exists in the imported kdeproc."""
    loaded = [m for name, m in list(sys.modules.items()) if name.startswith("kdeproc") and m]
    for layer, module, attr, count in TRACED:
        home = sys.modules.get(f"kdeproc.{module}")
        if home is None:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(meth)
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(layer, raw.__func__, count)))
            elif raw is not None:
                setattr(cls, meth, tracer.wrap(layer, raw, count))
            continue
        original = getattr(home, attr, None)
        if original is None:
            continue
        traced = tracer.wrap(layer, original, count)
        for mod in loaded:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
