"""In-memory spans recorded around qwalk's public functions, from outside.

A `Tracer` replaces each traced function by a wrapper in every loaded
``qwalk`` module that holds it under its own name (the defining module and
every module that imported it by name), so calls made inside the package
are seen as well as calls made by the benchmark. `uninstall` puts the
original objects back; untraced code therefore runs unwrapped.

Each span keeps its name, start, end, parent span and, for a few
functions, a number observed at the boundary (graph size, example count,
file size, outcome flags). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field

# (module, function): the layer boundaries the per-layer metrics name.
TARGETS = (
    ("graphs", "random_graph"),
    ("walkers", "label_graph"),
    ("walkers", "hitting_time"),
    ("datasets", "build_line_dataset"),
    ("datasets", "save"),
    ("datasets", "load"),
    ("cqcnn", "extract_features"),
    ("cqcnn", "forward"),
    ("cqcnn", "loss_and_gradients"),
    ("cqcnn", "sgd_step"),
    ("evaluation", "evaluate"),
    ("evaluation", "train"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _observe(name: str, args: tuple, kwargs: dict, result, attrs: dict) -> None:
    """Record what the per-layer metrics need from one call's boundary."""
    if name == "walkers.label_graph":
        graph = args[0] if args else kwargs.get("g")
        attrs["n"] = graph.n
        if result is not None:
            attrs["q_never"] = result.quantum_hit_time is None
            attrs["indeterminate"] = bool(result.indeterminate)
    elif name == "evaluation.evaluate":
        dataset = args[1] if len(args) > 1 else kwargs.get("dataset")
        attrs["examples"] = len(dataset)
    elif name in ("datasets.save", "datasets.load"):
        path = args[-1] if args else kwargs.get("path")
        attrs["bytes"] = _file_size(path)


class Tracer:
    """Span recorder plus the patching that feeds it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- spans ----

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration
        return span

    # ---- patching ----

    def _wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                span = self.close(index)
                _observe(name, args, kwargs, result, span.attrs)

        return traced

    def install(self) -> None:
        """Wrap every target in every qwalk module that holds it by name.

        A target the package no longer defines is listed in `absent`
        instead of failing the run.
        """
        package = importlib.import_module("qwalk")
        modules = [m for k, m in sorted(sys.modules.items()) if k == "qwalk" or k.startswith("qwalk.")]
        self.absent = []
        for module_name, func_name in TARGETS:
            span_name = f"{module_name}.{func_name}"
            try:
                home = importlib.import_module(f"qwalk.{module_name}")
            except ImportError:
                home = package
            original = getattr(home, func_name, None) or getattr(package, func_name, None)
            if not callable(original):
                self.absent.append(span_name)
                continue
            wrapper = self._wrap(span_name, original)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    self._patches.append((module, func_name, original))
                    setattr(module, func_name, wrapper)

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._patches):
            setattr(module, func_name, original)
        self._patches = []
