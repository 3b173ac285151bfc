"""Spans around the benchmark's calls and kernel functions, for the traced
run only.

Kernel functions are interposed by rebinding the public name in every
loaded ``dageo`` module that holds it (methods are rebound on their
class), and registered theorems by swapping their ``REGISTRY`` entry for a
copy whose ``generate``/``check`` are wrapped.  No source file changes,
and :meth:`Tracer.interposed` restores every binding on exit.
"""

from __future__ import annotations

import cProfile
import dataclasses
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: (layer metric prefix, module, attribute) of each interposed function.
KERNEL_FUNCTIONS = (
    ("triangle.DATriangle", "dageo.triangle", "DATriangle.__init__"),
    ("triangle.interior_angles", "dageo.triangle", "DATriangle.interior_angles"),
    ("triangle.centers", "dageo.triangle", "centers"),
    ("parabola.circumparabola", "dageo.parabola", "circumparabola"),
    ("scalar.det3", "dageo.scalar", "det3"),
    ("scalar.parse_scalar", "dageo.scalar", "parse_scalar"),
    ("gauge.meet", "dageo.gauge", "meet"),
    ("gauge.slope_between", "dageo.gauge", "slope_between"),
    ("gauge.normalize_chart", "dageo.gauge", "Gauge.normalize_chart"),
    ("equivalence.classify_pair", "dageo.equivalence", "classify_pair"),
    ("theorems.miquel_quadrilateral", "dageo.theorems", "miquel_quadrilateral"),
    ("theorems.miquel_triangle", "dageo.theorems", "miquel_triangle"),
    ("harness.jsonable", "dageo.harness", "jsonable"),
)


class Tracer:
    """In-memory spans with per-name call counts, total time of the
    outermost span of each name, and self time (duration minus the time
    covered by direct child spans)."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        #: (span id, parent span id, op index, name, start, end)
        self.spans: list[tuple] = []
        self.op = -1
        self._next_id = 0
        self._stack: list[list] = []
        self._depth: Counter = Counter()

    def enter(self, name: str) -> None:
        self.calls[name] += 1
        self._depth[name] += 1
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self._depth[name] -= 1
        if not self._depth[name]:
            self.seconds[name] += duration
        self.self_seconds[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else None, self.op,
                           name, start, end))

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return traced

    @contextmanager
    def interposed(self):
        """Rebind every kernel function and registered theorem to a traced
        wrapper for the duration of the block."""
        undo = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dageo" or n.startswith("dageo.")]
        try:
            for metric, module_name, attr in KERNEL_FUNCTIONS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    undo.append((cls, method, original))
                    setattr(cls, method, self.wrap(metric, original))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(metric, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, name, original))
                            setattr(mod, name, wrapper)
            registry = importlib.import_module("dageo.harness").REGISTRY
            for tid, theorem in list(registry.items()):
                undo.append((registry, tid, theorem))
                registry[tid] = dataclasses.replace(
                    theorem,
                    generate=self.wrap(f"generate:{tid}", theorem.generate),
                    check=self.wrap(f"check:{tid}", theorem.check))
            yield self
        finally:
            for target, name, original in reversed(undo):
                if isinstance(target, dict):
                    target[name] = original
                else:
                    setattr(target, name, original)


def profile_counts(run) -> dict[str, int]:
    """Deterministic cost counts of ``run(profiler)`` under cProfile: every
    profiled call, and calls to ``Fraction.__new__``.

    Counts are summed over the profiler's raw per-code-object entries:
    ``pstats`` keys functions by (file, line, name), under which the
    generated ``__init__`` of every dataclass collide, and which one
    survives depends on the interpreter's hash seed."""
    profiler = cProfile.Profile()
    run(profiler)
    entries = profiler.getstats()
    fraction_new = sum(
        e.callcount for e in entries
        if not isinstance(e.code, str) and e.code.co_name == "__new__"
        and e.code.co_filename.endswith("fractions.py"))
    return {"profile.total_calls": sum(e.callcount for e in entries),
            "scalar.fraction_new.calls": fraction_new}
