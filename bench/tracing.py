"""Spans and counts at nctorus layer boundaries, recorded from outside.

install() replaces every public function of each layer module, and the
public and arithmetic methods of its classes, by a timing wrapper.  The
wrapper is bound wherever nctorus holds the original, so calls inside a
module and calls through another module's import are both seen.  No
file of the package changes.

A frame opens when a call crosses into another layer; calls that stay
inside the current layer are counted but open no frame.  A layer's self
time is the time of its frames minus the part covered by child frames.
Spans (name, start, end, parent, item) are kept in memory for every
layer but exactscalar, whose boundary calls are too many to keep one by
one: they are aggregated into counts and self time.  Spans are written
out by the caller when the run ends.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
from time import perf_counter
from typing import Dict, List, Tuple

LAYERS = ("exactscalar", "ncalgebra", "traces", "chern", "gclass", "matrixmodel", "exprcli", "cli", "bench")
BENCH = LAYERS.index("bench")
_EXACT = LAYERS.index("exactscalar")
#: dunder methods that count as calls into a layer
_ARITH = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")
#: GaussRat/PhaseScalar methods whose calls make up exactscalar.ops
_OPS = {f"exactscalar.{cls}.{meth}" for cls in ("GaussRat", "PhaseScalar")
        for meth in _ARITH + ("conjugate", "shift", "rebase")}
#: hot helpers left unwrapped; their time counts toward the calling layer
_SKIP = {"as_fraction"}


class Tracer:
    """Stack of open layer frames plus per-layer and per-function tallies."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.reset()
        self._undo: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Start a fresh tally; open frames must be closed already."""
        self.stack: List[list] = []
        self.self_time = [0.0] * len(LAYERS)
        self.counts: Dict[int, int] = {}
        self.eq_in_traces = 0
        self.spans: List[Tuple[int, int, float, float, int, int]] = []
        self.keep_spans = False
        self.item = -1
        self._next_span = 0

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- frames ---------------------------------------------------------------

    def call(self, layer: int, nid: int, fn, args, kwargs):
        self.counts[nid] = self.counts.get(nid, 0) + 1
        stack = self.stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        parent = stack[-1][1] if stack else -1
        span = self._next_span
        self._next_span += 1
        frame = [layer, span, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            self.self_time[layer] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            if self.keep_spans and layer != _EXACT:
                self.spans.append((span, nid, start, end, parent, self.item))

    def count(self, name: str) -> int:
        return self.counts.get(self._ids.get(name, -1), 0)

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(c for nid, c in self.counts.items() if self.names[nid].startswith(prefix))

    def ops(self) -> int:
        return sum(c for nid, c in self.counts.items() if self.names[nid] in _OPS)

    # -- patching -------------------------------------------------------------

    def _wrap(self, fn, layer: int, name: str):
        nid = self.intern(name)
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(layer, nid, fn, args, kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer's public functions and methods in place."""
        import nctorus  # noqa: F401  (loads every layer module)

        modules = [sys.modules[name] for name in sorted(sys.modules)
                   if name == "nctorus" or name.startswith("nctorus.")]
        replace: Dict[int, object] = {}
        for li, layer in enumerate(LAYERS[:BENCH]):
            mod = sys.modules[f"nctorus.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in _SKIP or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self._wrap(obj, li, f"{layer}.{name}")
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    self._wrap_class(obj, li, f"{layer}.{name}")
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._set(mod, name, replace[id(obj)])
        self._wrap_eq()

    def _wrap_class(self, cls, layer: int, prefix: str) -> None:
        done: Dict[int, object] = {}
        for attr, raw in list(cls.__dict__.items()):
            if attr.startswith("_") and attr not in _ARITH:
                continue
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(raw.__func__, layer, f"{prefix}.{attr}")))
            elif inspect.isfunction(raw):
                # __rmul__ = __mul__ aliases share one wrapper and one name
                if id(raw) not in done:
                    done[id(raw)] = self._wrap(raw, layer, f"{prefix}.{raw.__name__}")
                self._set(cls, attr, done[id(raw)])

    def _wrap_eq(self) -> None:
        """Count PhaseScalar comparisons made directly by the traces layer."""
        from nctorus.exactscalar import PhaseScalar

        eq = PhaseScalar.__dict__["__eq__"]
        traces = LAYERS.index("traces")
        tracer = self

        @functools.wraps(eq)
        def counted_eq(a, b):
            if tracer.stack and tracer.stack[-1][0] == traces:
                tracer.eq_in_traces += 1
            return eq(a, b)

        self._set(PhaseScalar, "__eq__", counted_eq)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def bench_frame(self, name: str, fn, *args):
        """Run fn inside a frame of the benchmark's own layer."""
        return self.call(BENCH, self.intern(name), fn, args, {})

    def to_json(self) -> Dict[str, object]:
        return {
            "names": self.names,
            "fields": ["span", "name", "start_s", "end_s", "parent", "item"],
            "spans": [list(s) for s in self.spans],
        }
