"""Span recorder that traces the backflow package from outside.

`install` replaces each public function of the traced modules, the
private fused backflow kernel and `numpy.linalg.eigvalsh` with a wrapper
that records a span (name, start, end, parent) in memory. It rebinds the
wrapper under every name in every ``backflow.*`` namespace that holds the
original function object, so calls through ``from .x import f`` bindings
are traced too and no source file changes. `summarize` turns the spans
into per-layer inclusive time, self time and call counts.

The recorder keeps one span stack, so it assumes the traced code runs on
one thread; the benchmark leaves ``BACKFLOW_THREADS`` unset for that
reason.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

TRACED_MODULES = ("statespace", "dynamics", "measure", "translation", "verify", "cli")

# Private or grouped functions traced under a span name of their own.
# Rendering is three functions that never nest, so they share one name.
EXTRA_SPANS = {
    ("measure", "_batched_backflows"): "measure.batched_backflows",
    ("cli", "render_csv"): "cli.render",
    ("cli", "render_json"): "cli.render",
    ("cli", "write_text"): "cli.render",
}


def _leading_size(array) -> int:
    shape = getattr(array, "shape", ())
    size = 1
    for extent in shape[:-2]:
        size *= int(extent)
    return size


# Exact work counters taken from the positional arguments of a traced
# call: function -> (counter name, count of work in that call).
COUNTERS = {
    "numpy.linalg.eigvalsh": ("eigensolve.matrices", lambda args: _leading_size(args[0])),
    "measure._batched_backflows": ("measure.candidates", lambda args: int(args[1].shape[0])),
    "dynamics.lindblad_integrate": ("dynamics.lindblad_integrate.steps", lambda args: len(args[2]) - 1),
    "cli.write_text": ("cli.output_bytes", lambda args: len(str(args[1]).encode("utf-8"))),
}


class Recorder:
    """Spans as [name, start_ns, end_ns, parent_index] plus exact counters."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter[0]] += counter[1](args)
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "spans": self.spans, "counts": self.counts}, handle)


def _targets() -> dict[int, tuple[object, str, str]]:
    """id(original) -> (function, span name, "module.attr") for every traced function."""
    targets: dict[int, tuple[object, str, str]] = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"backflow.{short}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            targets[id(obj)] = (obj, f"{short}.{attr}", f"{short}.{attr}")
    for (short, attr), name in EXTRA_SPANS.items():
        obj = getattr(sys.modules[f"backflow.{short}"], attr)
        targets[id(obj)] = (obj, name, f"{short}.{attr}")
    return targets


def install(recorder: Recorder):
    """Patch the traced functions in place; returns a function that undoes it.

    Call after ``import backflow.cli`` so every traced module is loaded.
    """
    import numpy.linalg

    patched: list[tuple[object, str, object]] = []
    wrappers: dict[int, object] = {}
    for key, (fn, name, qualified) in _targets().items():
        wrappers[key] = recorder.wrap(name, fn, COUNTERS.get(qualified))
    for module_name, module in list(sys.modules.items()):
        if module_name != "backflow" and not module_name.startswith("backflow."):
            continue
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                patched.append((module, attr, obj))
                setattr(module, attr, wrapper)
    original_eigvalsh = numpy.linalg.eigvalsh
    patched.append((numpy.linalg, "eigvalsh", original_eigvalsh))
    numpy.linalg.eigvalsh = recorder.wrap("eigensolve", original_eigvalsh, COUNTERS["numpy.linalg.eigvalsh"])

    def uninstall() -> None:
        for module, attr, obj in reversed(patched):
            setattr(module, attr, obj)

    return uninstall


def layer_names() -> list[str]:
    """Every span name `install` can record, for validating metric names."""
    names = {name for _, name, _ in _targets().values()}
    return sorted(names | {"eigensolve"})


def summarize(spans: list[list]) -> dict[str, float]:
    """Per span name: inclusive seconds, self seconds and call count.

    Inclusive time counts only spans with no ancestor of the same name,
    so a function that reaches itself again is not counted twice. Self
    time is a span's duration minus the durations of its direct children.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: Counter = Counter()
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (duration - child_ns[index]) * 1e-9
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{name}.s"] += duration * 1e-9
    return dict(out)
