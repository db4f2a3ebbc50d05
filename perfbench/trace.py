"""Span tracing of tromkit's layer modules from outside the package.

``LayerPatches`` swaps every public function of the layer modules, and every
name another layer module imported from them, for a wrapper that records a
span in a ``Tracer``.  Leaving the context restores the originals, so the
package source is never edited and untraced code runs unwrapped.
"""
from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Layer modules.  ``tensors`` and ``metrics`` are helpers whose cost lands in
# the self time of their callers; ``store`` is timed through
# ``trom.save_artifact``/``trom.load_artifact``; ``cli`` is not used.
LAYERS = ("fom", "stepping", "decomp", "deim", "grids", "trom", "pod")

# Methods timed as spans of their own.  The core-matrix kernels of the three
# formats share one name; Tucker and CP alias ``scaled_core_matrix`` to
# ``core_matrix``, so both attributes are patched.
METHODS = (
    ("trom", "TTPart", "scaled_core_matrix", "trom.core_matrix"),
    ("trom", "TuckerPart", "core_matrix", "trom.core_matrix"),
    ("trom", "TuckerPart", "scaled_core_matrix", "trom.core_matrix"),
    ("trom", "CPPart", "core_matrix", "trom.core_matrix"),
    ("trom", "CPPart", "scaled_core_matrix", "trom.core_matrix"),
    ("stepping", "AffineOperator", "reduce", "stepping.AffineOperator.reduce"),
)


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None      # index in Tracer.spans of the span that caused it
    start: float
    end: float = 0.0
    child: float = 0.0      # time covered by direct children
    error: bool = False     # the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """In-memory span recorder for one process; spans nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._by_name: dict[str, list[Span]] = {}

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        span = Span(name, parent, time.perf_counter())
        self.spans.append(span)
        self._by_name.setdefault(name, []).append(span)
        self._open.append(idx)
        return idx

    def finish(self, idx: int, error: bool = False) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        self._open.pop()
        if span.parent is not None:
            self.spans[span.parent].child += span.duration

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        except BaseException:
            self.finish(idx, error=True)
            raise
        self.finish(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.finish(idx, error=True)
                raise
            self.finish(idx)
            return out

        traced.__wrapped__ = fn
        return traced

    def _under(self, span: Span, ancestor: str) -> bool:
        idx = span.parent
        while idx is not None:
            if self.spans[idx].name == ancestor:
                return True
            idx = self.spans[idx].parent
        return False

    def select(self, name: str, under: str | None = None) -> list[Span]:
        """Spans called ``name``, optionally only those below an ``under`` span."""
        return [s for s in self._by_name.get(name, [])
                if under is None or self._under(s, under)]

    def count(self, name: str) -> int:
        return len(self._by_name.get(name, []))

    def summary(self) -> dict[str, dict]:
        """Calls, inclusive and self seconds, and raised calls per span name."""
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "errors": 0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.self_time
            row["errors"] += int(s.error)
        return out


class LayerPatches:
    """Installs the tracing wrappers on entry and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        mods = {name: importlib.import_module(f"tromkit.{name}") for name in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
        # Rebind every module-level name that refers to a wrapped function,
        # including ``from .decomp import tt_svd`` style imports and the
        # package re-exports.
        self._slots: list[tuple[object, str, object, object]] = []
        for owner in (*mods.values(), importlib.import_module("tromkit")):
            for attr, obj in vars(owner).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._slots.append((owner, attr, obj, hit[1]))
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(mods[layer], cls_name)
            orig = vars(cls)[attr]
            self._slots.append((cls, attr, orig, tracer.wrap(name, orig)))

    def __enter__(self):
        for owner, attr, _, wrapper in self._slots:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig, _ in self._slots:
            setattr(owner, attr, orig)
        return False
