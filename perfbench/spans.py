"""Spans recorded around calls into the program's public functions.

A Tracer replaces every public function of the program's layer modules, in
every ``ybe4`` module namespace that binds it, by a wrapper that records a
span: a name, a start, an end and the span that was open when it started.
The benchmark opens one span of its own around each workload operation, so
every span of an operation descends from that operation's span.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "ybe4"
LAYERS = ("linalg", "core", "families", "classify", "bracket", "matrixio", "cli")

# Names a layer module binds from another package whose calls count as that
# layer's work.  A name the module no longer binds is skipped.
FOREIGN = {"classify": ("least_squares", "minimize")}


def _nfev(result, args, kwargs) -> dict:
    return {"nfev": int(result.nfev)}


def _certified(result, args, kwargs) -> dict:
    return {"certified": int(result.family is not None)}


def _bytes_written(result, args, kwargs) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes_written": os.path.getsize(path)}


# Counters read from a call's arguments or result, keyed by span name.
COUNTERS = {
    "classify.least_squares": _nfev,
    "classify.minimize": _nfev,
    "classify.classify": _certified,
    "matrixio.write_matrix_file": _bytes_written,
}


def layer_functions(layer: str) -> dict:
    """Span name -> function for one layer: its public functions and FOREIGN names."""
    # sys.modules, not attribute access: the package re-exports the function
    # ``classify`` under the name of the module ``ybe4.classify``.
    module = sys.modules.get(f"{PACKAGE}.{layer}") or importlib.import_module(
        f"{PACKAGE}.{layer}"
    )
    found = {}
    for name in getattr(module, "__all__", ()):
        fn = getattr(module, name, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            found[f"{layer}.{name}"] = fn
    for name in FOREIGN.get(layer, ()):
        fn = getattr(module, name, None)
        if callable(fn):
            found[f"{layer}.{name}"] = fn
    return found


class Tracer:
    """Records spans in memory while installed and active.

    Use as a context manager: entering wraps the layer functions, leaving
    restores the originals.  Wrappers record only while ``active`` is true,
    so the benchmark can keep its own correctness checks out of the trace.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(-1)
        self._open.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._open.pop()

    def wrap(self, name: str, fn):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[name] += 1
                raise
            finally:
                tracer.close(index)
            if count is not None:
                for key, value in count(result, args, kwargs).items():
                    tracer.counters[f"{name}.{key}"] += value
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [
            module
            for key, module in list(sys.modules.items())
            if module is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for layer in LAYERS:
            for name, fn in layer_functions(layer).items():
                wrapper = self.wrap(name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patches.append((module, attr, fn))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total duration and total self time in ns,
        and self time split by the name of the parent span."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        start, end, name, parent = (
            np.frombuffer(column, dtype=np.int64)
            for column in (self.start, self.end, self.name, self.parent)
        )
        duration = end - start
        nested = parent >= 0
        child = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(start)
        )
        own = duration - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=duration, minlength=k)
        self_ns = np.bincount(name, weights=own, minlength=k)
        pair = name[nested] * k + name[parent[nested]]
        by_parent = np.bincount(pair, weights=own[nested], minlength=k * k).reshape(k, k)
        return {
            n: {
                "calls": int(calls[i]),
                "total_ns": float(total[i]),
                "self_ns": float(self_ns[i]),
                "self_ns_by_parent": {
                    self.names[j]: float(by_parent[i, j])
                    for j in np.flatnonzero(by_parent[i])
                },
            }
            for i, n in enumerate(self.names)
        }
