"""Spans at the module boundaries of wkit, recorded from outside the package.

``Tracer.install`` wraps every public function of each wkit module, and the
construction and arithmetic methods of its public classes, and rebinds each
wrapper in every ``wkit.*`` namespace that binds the original: modules
import each other's functions by name (``sweeps`` binds ``batch_wedge``,
``cli`` binds ``curvature_bound_report``), so patching the defining module
alone would miss those calls. Calls to private helpers stay inside the
caller's span.

Each call appends one span (name, parent, start, end) to in-memory lists;
``report`` turns them into per-function and per-layer times after the call,
so no I/O happens while spans are recorded. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np

LAYERS = ("cli", "sweeps", "curves", "weitzenboeck", "vectors", "numerics", "qsqrt3",
          "shape_space")

# Methods wrapped besides public ones: construction and field arithmetic.
_METHODS = {"__init__", "__post_init__", "__neg__", "__add__", "__radd__", "__sub__",
            "__rsub__", "__mul__", "__rmul__"}

# Functions whose first argument's shape is recorded: rows = product of the
# leading axes, elems = number of elements.
_SHAPED = {"vectors.batch_wedge", "vectors.batch_conormal", "numerics.projection_residual"}


class Tracer:
    """Spans of one process's wkit calls, in parallel lists indexed by span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.nid: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.shapes: dict[int, tuple[int, int]] = {}
        self._stack = [-1]

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        nids, parents, starts, ends = self.nid, self.parent, self.start, self.end
        stack, shapes, clock = self._stack, self.shapes, time.perf_counter
        shaped = name in _SHAPED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            nids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            if shaped:
                shape = np.shape(args[0])
                shapes[i] = (math.prod(shape[:-1]), math.prod(shape))
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        mods = [importlib.import_module(f"wkit.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, mods):
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    for key, fn in list(vars(obj).items()):
                        if (inspect.isfunction(fn)
                                and (key in _METHODS or not key.startswith("_"))
                                and fn.__code__.co_filename == mod.__file__):
                            setattr(obj, key, self.wrap(fn, f"{layer}.{name}.{key}"))
        for modname, mod in list(sys.modules.items()):
            if modname == "wkit" or modname.startswith("wkit."):
                for key, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, key, wrappers[obj])

    def report(self, wall_s: float) -> dict:
        """Per-function calls, inclusive and self seconds, rows and elements;
        per-layer self seconds; the smallest self time (negative if spans
        overlap) and the name of the root span. Inclusive seconds add up the
        spans of a name; no wkit function calls itself, so they do not
        overlap."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        inner = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                inner[p] += dur[i]
        fns = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0, "elems": 0}
               for name in self.names}
        layers = dict.fromkeys(LAYERS, 0.0)
        min_self = 0.0
        for i in range(n):
            name = self.names[self.nid[i]]
            entry = fns[name]
            own = dur[i] - inner[i]
            min_self = min(min_self, own)
            entry["calls"] += 1
            entry["s"] += dur[i]
            entry["self_s"] += own
            rows, elems = self.shapes.get(i, (0, 0))
            entry["rows"] += rows
            entry["elems"] += elems
            layers[name.partition(".")[0]] += own
        return {
            "functions": fns,
            "layers": layers,
            "spans": n,
            "wall_s": wall_s,
            "min_self_s": min_self,
            "root": self.names[self.nid[0]] if n else None,
        }
