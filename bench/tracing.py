"""Spans around the public functions of each semorder layer.

A traced CLI run wraps every function in :data:`LAYERS` before ``main``
starts.  Modules bind imported names when they load (``order`` holds its own
``fit_span``, ``cli`` its own ``rate_experiment``), so :func:`install` patches
every module attribute that refers to the function, not only the defining
module.  Each call records a span with its parent, so a layer's self time is
its duration minus the time of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _points(args, kwargs, result) -> dict:
    return {"points": int(np.size(_arg(args, kwargs, 1, "x")))}


def _rows(args, kwargs, result) -> dict:
    return {"rows": int(_arg(args, kwargs, 1, "n"))}


def _fit(args, kwargs, result) -> dict:
    n, d = np.shape(_arg(args, kwargs, 0, "x"))
    return {"design_cells": n * d, "degenerate": int(bool(result.degenerate))}


# (defining module, function, span name, per-call counters, their names)
LAYERS = [
    ("semorder.dictionary", "basis_matrix", "dictionary.basis_matrix", _points, ("points",)),
    ("semorder.semgen", "sample", "semgen.sample", _rows, ("rows",)),
    ("semorder.semgen", "identifiability_gap", "semgen.identifiability_gap", None, ()),
    ("semorder.regress", "fit_span", "regress.fit_span", _fit, ("design_cells", "degenerate")),
    ("semorder.order", "estimate_order_exact", "order.estimate_order_exact", None, ()),
    ("semorder.empproc", "z_sup_l1", "empproc.z_sup_l1", None, ()),
    ("semorder.empproc", "z_sup_ellipsoid", "empproc.z_sup_ellipsoid", None, ()),
    ("semorder.empproc", "rate_experiment", "empproc.rate_experiment", None, ()),
    ("semorder.cli", "main", "cli.main", None, ()),
]


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts: dict[str, int] = {}


class Recorder:
    """Keeps every span of one process in memory until :meth:`summary`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.sites: dict[str, list[str]] = {}
        self._open: list[Span] = []

    def wrap(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if measure is not None:
                span.counts = measure(args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed counters.

        ``nested[outer][inner]`` counts the `inner` spans that run anywhere
        inside an `outer` span.
        """
        layers = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0, **dict.fromkeys(keys, 0)}
            for _, _, name, _, keys in LAYERS
        }
        child_s: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_s[id(s.parent)] += s.end - s.start
        nested: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for s in self.spans:
            agg = layers.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += s.end - s.start
            agg["self_s"] += s.end - s.start - child_s[id(s)]
            for key, value in s.counts.items():
                agg[key] = agg.get(key, 0) + value
            seen = set()
            p = s.parent
            while p is not None:
                if p.name not in seen:
                    nested[p.name][s.name] += 1
                    seen.add(p.name)
                p = p.parent
        return {
            "layers": layers,
            "nested": {k: dict(v) for k, v in nested.items()},
            "sites": self.sites,
        }


def install(recorder: Recorder) -> None:
    """Replace each layer function by a recording wrapper at every binding site."""
    modules = [m for name, m in sys.modules.items() if name == "semorder" or name.startswith("semorder.")]
    for module_name, attr, span_name, measure, _ in LAYERS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = recorder.wrap(span_name, original, measure)
        sites = []
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    sites.append(f"{module.__name__}.{key}")
        recorder.sites[span_name] = sorted(sites)


def layer_counters(summary: dict) -> dict[str, float]:
    """Flatten a summary into ``<span>.<counter>`` values plus derived ones."""
    out: dict[str, float] = {}
    for name, agg in summary["layers"].items():
        for key, value in agg.items():
            out[f"{name}.{key}"] = value
    searches = out["order.estimate_order_exact.calls"]
    fits = summary["nested"].get("order.estimate_order_exact", {}).get("regress.fit_span", 0)
    out["order.search.self_s"] = out["order.estimate_order_exact.self_s"]
    out["order.fits_per_search"] = fits / searches if searches else 0
    out["cli.self_s"] = out["cli.main.self_s"]
    return out
