"""Span tracing of layoutfusion's public functions, from outside the library.

``Tracer.install`` rebinds, in every ``layoutfusion`` module, each name
that refers to a public function of another (or the same) module, so
``fusion.iou``, ``metrics.iou``, ``simulator.iou`` and ``geometry.iou``
all point at one wrapper. It also wraps box validation
(``BoundingBox.__post_init__``) and the taxonomy lookups. ``uninstall``
puts every original back. Nothing in the library changes on disk.

Each call records one span: name, parent span, start and end. Spans are
kept in flat typed arrays (40 bytes each) while the traced repetition
runs and are summarised or written out only after it ends. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from collections import Counter

import numpy as np

MODULES = (
    "cli", "curriculum", "dataset_io", "fusion", "gating", "geometry", "heuristics",
    "manifest", "metrics", "model", "numerics", "simulator", "taxonomy", "theory",
)

# Class-level hooks: (module, class, attribute, span name).
METHODS = (
    ("geometry", "BoundingBox", "__post_init__", "geometry.BoundingBox"),
    ("taxonomy", "Taxonomy", "category", "taxonomy.category"),
    ("taxonomy", "Taxonomy", "__contains__", "taxonomy.__contains__"),
    ("taxonomy", "Taxonomy", "compatible", "taxonomy.compatible"),
)


def _observe_load(counters, args, kwargs, result):
    counters["dataset_io.pages_loaded"] += len(result)


def _observe_save(counters, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    counters["dataset_io.bytes_written"] += os.path.getsize(path)


def _observe_match(counters, args, kwargs, result):
    counters["fusion.matches"] += len(result.matches)
    counters["fusion.teacher_boxes"] += len(kwargs.get("teacher", args[0]))


def _observe_refine(counters, args, kwargs, result):
    for label in result:
        counters["fusion.labels." + label.provenance.replace("-", "_")] += 1


def _observe_train(counters, args, kwargs, result):
    counters["gating.samples_trained"] += len(kwargs.get("samples", args[0]))


def _observe_ap(counters, args, kwargs, result):
    counters["metrics.detections"] += len(kwargs.get("detections", args[0]))


def _observe_sample(counters, args, kwargs, result):
    counters["simulator.instances_sampled"] += len(result)


def _observe_experiment(counters, args, kwargs, result):
    counters["theory.cells"] += len(result.cells)


def _observe_heuristics(counters, args, kwargs, result):
    counters["heuristics.regions_emitted"] += len(result)


OBSERVERS = {
    "dataset_io.load_dataset": _observe_load,
    "dataset_io.save_dataset": _observe_save,
    "fusion.match_regions": _observe_match,
    "fusion.refine_pseudo_labels": _observe_refine,
    "gating.train_gate": _observe_train,
    "metrics.average_precision": _observe_ap,
    "simulator.sample_gate_instances": _observe_sample,
    "theory.run_sample_complexity_experiment": _observe_experiment,
    "heuristics.heuristic_regions": _observe_heuristics,
}


class Tracer:
    """In-memory span recorder for one traced repetition."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("q")
        self.start_col = array("d")
        self.end_col = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        names, parents, starts, ends = self.name_col, self.parent_col, self.start_col, self.end_col
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a root span called ``name``."""
        return self.wrap(name, fn)(*args)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"layoutfusion.{m}") for m in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    wrappers[id(fn)] = (fn, self.wrap(name, fn, OBSERVERS.get(name)))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._rebind(module, attr, wrappers[id(value)][1])
        for short, cls_name, attr, name in METHODS:
            cls = getattr(modules[short], cls_name)
            self._rebind(cls, attr, self.wrap(name, vars(cls)[attr]))

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent_col, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start_col, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end_col, dtype=np.float64).copy(),
        }

    def summary(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=duration[has_parent], minlength=duration.size)
        self_time = duration - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        selfs = np.bincount(a["name"], weights=self_time, minlength=k)
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(selfs[i]) for i, n in enumerate(self.names)},
        )

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
