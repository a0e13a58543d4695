"""Layer spans for distspec, recorded from outside the package.

:class:`Instrument` replaces every public function of the ``distspec``
layer modules (and two methods: ``SparseGraph.from_edges`` and
``SparseSymMatrix.matvec``) with a wrapper, in every ``distspec`` module
namespace that imported it, and restores the originals on ``uninstall``.
The source tree is never edited.

A wrapper does two things:

- while tracing is active it records a span (name, start, end, parent)
  on an in-memory stack, so self time is a span's duration minus the
  durations of its direct children;
- it hands the call's arguments and result to the observers registered
  for that name.  Observers run after the span has closed; the benchmark
  uses them to keep the objects its correctness checks look at and to
  count sizes.

Warnings are attributed to the innermost open span by
:meth:`Instrument.catching_warnings`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
import warnings
from collections import defaultdict

LAYERS = ("model", "graph", "spectral", "reconstruct", "adversary", "gw",
          "diagnostics", "cli")

# Methods timed as layer calls, with the name their spans carry.
METHODS = (
    ("graph", "SparseGraph", "from_edges", "graph.from_edges"),
    ("graph", "SparseSymMatrix", "matvec", "spectral.matvec"),
)


class RepTrace:
    """Spans and warnings of one repetition.

    ``spans`` holds ``(name, start, end, parent_index)`` tuples in the
    order the spans closed; ``parent_index`` is -1 for top-level spans.
    """

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.spans: list[tuple] = []
        self.warnings: list[tuple[str, str, object]] = []  # (category, span, message)
        self.errors: dict[str, int] = defaultdict(int)      # "span:Exception" -> count
        self.wall = 0.0
        self.reference_s = 0.0    # reference kernel time around it (see reference.py)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += (end - start) - child.get(idx, 0.0)
        return out

    def unattributed_s(self) -> float:
        """Repetition wall time not covered by any layer span."""
        return self.wall - sum(end - start for _, start, end, parent in self.spans
                               if parent < 0)


class Instrument:
    """Wraps the distspec layers; records spans when ``active``."""

    def __init__(self):
        self.active = False
        self.rep: RepTrace | None = None
        self._stack: list[list] = []        # [name, start, index placeholder]
        self._observers: dict[str, list] = defaultdict(list)
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def observe(self, name: str, fn) -> None:
        """Call ``fn(args, kwargs, result)`` after every call of span ``name``."""
        self._observers[name].append(fn)

    def install(self) -> None:
        mods = [importlib.import_module(f"distspec.{layer}") for layer in LAYERS]
        originals: dict[int, object] = {}
        for layer, mod in zip(LAYERS, mods):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [importlib.import_module("distspec")] + mods
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(importlib.import_module(f"distspec.{layer}"), cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span, raw.__func__))
            else:
                wrapped = self._wrap(span, raw)
            self._patched.append((cls, meth, raw))
            setattr(cls, meth, wrapped)

    def uninstall(self) -> None:
        for target, attr, obj in reversed(self._patched):
            setattr(target, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name: str, fn):
        instrument = self
        observers = self._observers[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not instrument.active:
                result = fn(*args, **kwargs)
            else:
                result = instrument._timed(name, fn, args, kwargs)
            for obs in observers:
                obs(args, kwargs, result)
            return result

        return wrapper

    def _timed(self, name, fn, args, kwargs):
        stack = self._stack
        frame = [name, 0.0]
        stack.append(frame)
        frame[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.rep.errors[f"{name}:{type(exc).__name__}"] += 1
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            # Children close before their parent, so a parent's index is
            # only known when it closes: record the parent by its frame and
            # fix the indices up in ``_close_rep``.
            self.rep.spans.append((name, frame[1], end, stack[-1] if stack else None))
            frame.append(len(self.rep.spans) - 1)

    # -- repetitions --------------------------------------------------

    @contextlib.contextmanager
    def repetition(self, traced: bool):
        """Run one repetition; yields the :class:`RepTrace` it fills."""
        rep = RepTrace(traced)
        self.rep = rep
        self.active = traced
        self._stack = []
        try:
            with self.catching_warnings():
                start = time.perf_counter()
                try:
                    yield rep
                finally:
                    rep.wall = time.perf_counter() - start
        finally:
            self.active = False
            self._close_rep(rep)

    @staticmethod
    def _close_rep(rep: RepTrace) -> None:
        fixed = []
        for name, start, end, parent in rep.spans:
            fixed.append((name, start, end, parent[2] if parent is not None else -1))
        rep.spans = fixed

    @contextlib.contextmanager
    def catching_warnings(self):
        """Record every warning, attributed to the innermost open span."""
        with warnings.catch_warnings():
            warnings.simplefilter("always")

            def show(message, category, filename, lineno, file=None, line=None):
                span = self._stack[-1][0] if (self.active and self._stack) else "-"
                self.rep.warnings.append((category.__name__, span, message))

            warnings.showwarning = show
            yield

