"""Spans and work counters for the traced benchmark run.

Everything here is installed from outside the package: the public functions
of every ``matspec`` module are replaced, in every ``matspec.*`` namespace
that holds them (the modules import each other's functions by name), by
wrappers that record a span when a trace is active.  A handful of numpy
routines get counting wrappers the same way.

A span's self time is its duration minus the durations of its child spans;
calls nest strictly in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("caratheodory", "central", "cli", "errors", "linalg", "matpoly",
           "measure", "serialize", "toeplitz")

NUMPY_LINALG = ("eigvalsh", "eigh", "svd", "norm", "inv", "det", "solve")


def _mat_work(a) -> int:
    """Sum of m*n*min(m, n) over a stack of (..., m, n) matrices; m^3 for
    square ones.  Vectors count their length."""
    arr = np.asarray(a)
    if arr.ndim < 2:
        return int(arr.size)
    m, n = arr.shape[-2:]
    return math.prod(arr.shape[:-2]) * m * n * min(m, n)


def _norm_work(a, ord=None, *args, **kwargs) -> int:
    arr = np.asarray(a)
    if arr.ndim == 2 and ord in (2, -2, "nuc"):
        return _mat_work(arr)
    return int(arr.size)


def _roots_work(p) -> int:
    return max(0, np.asarray(p).size - 1) ** 3


class Tracer:
    """Collects spans, per-name aggregates and numpy work counts.

    Recording happens only inside ``run_op``; outside an op every wrapper
    is a plain pass-through, so input generation and the ground-truth checks
    are neither timed as spans nor counted.
    """

    def __init__(self, layer_names=()):
        # spans whose self time counts as covered by the per-layer metrics
        self.layer_names = frozenset(layer_names)
        self.active = False
        self._stack: list[list] = []
        self.agg: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.work: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.extra: dict[str, int] = defaultdict(int)
        self.ops: list[dict] = []
        # (op index, span, parent span, start ns, end ns) of the ops for
        # which ``keep_spans`` was set; written out when the run ends
        self.keep_spans = False
        self.spans: list[tuple] = []
        self._originals: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def reset(self):
        self.agg.clear()
        self.work.clear()
        self.extra.clear()
        self.ops.clear()
        self.spans.clear()

    def run_op(self, kind: str, label: str, call):
        """Run ``call`` as one op: the root span ``op.<kind>``, recording on."""
        self._stack = [[f"op.{kind}", time.perf_counter_ns(), 0]]
        self._op_layer_ns = 0
        self.active = True
        try:
            return call()
        finally:
            end = time.perf_counter_ns()
            self.active = False
            name, start, child = self._stack.pop()
            if self.keep_spans:
                self.spans.append((len(self.ops), name, "", start, end))
            self.ops.append({"kind": kind, "label": label, "wall_ns": end - start,
                             "in_spans_ns": child, "in_layers_ns": self._op_layer_ns})

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list):
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, child = frame
        dur = end - start
        rec = self.agg[name]
        rec[0] += 1
        rec[1] += dur - child
        rec[2] += dur
        if name in self.layer_names:
            self._op_layer_ns += dur - child
        parent = self._stack[-1]
        parent[2] += dur
        if self.keep_spans:
            self.spans.append((len(self.ops), name, parent[0], start, end))

    def parent_name(self) -> str:
        return self._stack[-1][0] if self._stack else ""

    # -- installation ------------------------------------------------------
    def span_wrapper(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                rec = tracer.work[name]
                rec[0] += 1
                rec[1] += work(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, new):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, matspec_pkg):
        """Wrap every public matspec function and the counted numpy routines."""
        mods = {m: sys.modules[f"matspec.{m}"] for m in MODULES}
        namespaces = [matspec_pkg] + list(mods.values())
        hooks = _result_hooks()
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapped = self.span_wrapper(name, fn, hooks.get(name))
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._replace(ns, attr, wrapped)
        sm_cls = mods["measure"].SpectralMeasure
        self._replace(sm_cls, "density_grid", self.span_wrapper(
            "measure.density_grid", sm_cls.density_grid,
            hooks["measure.density_grid"]))
        for fn_name in NUMPY_LINALG:
            fn = getattr(np.linalg, fn_name)
            work = _norm_work if fn_name == "norm" else (lambda a, *r, **k: _mat_work(a))
            self._replace(np.linalg, fn_name,
                          self.count_wrapper(f"linalg.{fn_name}", fn, work))
        self._replace(np, "roots", self.count_wrapper(
            "linalg.roots", np.roots, lambda p, *r, **k: _roots_work(p)))

    def uninstall(self):
        while self._originals:
            owner, attr, orig = self._originals.pop()
            setattr(owner, attr, orig)

    # -- summaries ---------------------------------------------------------
    def counts(self) -> dict:
        """Everything that must repeat exactly for the same inputs."""
        out = {f"{k}.calls": v[0] for k, v in self.agg.items()}
        for k, (calls, work) in self.work.items():
            out[f"{k}.calls"] = calls
            out[f"{k}.work"] = work
        out.update(self.extra)
        return out

    def total_work(self) -> int:
        return sum(w for _, w in self.work.values())


def _points(key):
    def hook(tracer, result):
        tracer.extra[key] += result.shape[0] if result.ndim > 2 else 1
    return hook


def _det_degree(tracer, result):
    # compute_atoms calls det_poly once, on den
    if tracer.parent_name() == "measure.compute_atoms":
        tracer.extra["matpoly.det_degree"] += result.size - 1


def _dumps_bytes(tracer, result):
    tracer.extra["serialize.dumps.bytes"] += len(result.encode("utf-8"))


def _result_hooks() -> dict:
    return {
        "caratheodory.rational_values": _points("caratheodory.rational_values.points"),
        "measure.density_grid": _points("measure.density_grid.points"),
        "matpoly.det_poly": _det_degree,
        "serialize.dumps": _dumps_bytes,
    }
