"""Span tracing from outside the program: wrap layer entry points, fold self time.

The benchmark does not rely on ``repro.obs`` (it stays disabled in every
run).  Instead :class:`SpanTracer` replaces the public entry point of each
layer with a wrapper that records one span per call — name, start, end and
the parent span that was open on the same thread — and restores the
originals when the traced window closes.  A span's *self* time is its
duration minus the durations of its direct child spans, so nested calls
(the aggregation kernel under both the engine commit and the materialized
view's delta apply) are not counted twice.
"""

from __future__ import annotations

import itertools
import statistics
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from perfbench import speed


@dataclass
class SpanStats:
    """Per-name totals of the finished spans."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations_s: list[float] = field(default_factory=list)

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.durations_s) * 1000.0 if self.durations_s else 0.0


class _Frame:
    __slots__ = ("name", "span_id", "parent_id", "started", "child_s")

    def __init__(self, name: str, span_id: int, parent_id: int, started: float) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.started = started
        self.child_s = 0.0


class SpanTracer:
    """Records spans of wrapped callables while installed.

    Each thread keeps its own stack of open frames, so a span's parent is
    always the innermost span open on the calling thread.  Finished spans are
    kept in memory as ``(name, span_id, parent_id, duration_s, self_s)``
    tuples and folded into :class:`SpanStats` on demand.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.records: list[tuple[str, int, int, float, float]] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self._installed = False

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def add(self, owner: Any, attribute: str, name: str) -> None:
        """Register ``owner.attribute`` to be recorded as span ``name``.

        ``owner`` is a class or a module.  A classmethod is unwrapped and
        re-wrapped so it stays a classmethod.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self._wrap(original.__func__, name))
        else:
            replacement = self._wrap(original, name)
        self._patches.append((owner, attribute, original, replacement))

    def _wrap(self, function: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(frame)

        traced.__name__ = getattr(function, "__name__", name)
        traced.__doc__ = function.__doc__
        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        """Swap every registered callable for its recording wrapper."""
        if self._installed:
            return
        for owner, attribute, _original, replacement in self._patches:
            setattr(owner, attribute, replacement)
        self._installed = True

    def uninstall(self) -> None:
        """Put every original callable back."""
        if not self._installed:
            return
        for owner, attribute, original, _replacement in reversed(self._patches):
            setattr(owner, attribute, original)
        self._installed = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> _Frame:
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else 0
        frame = _Frame(name, next(self._ids), parent_id, speed.now())
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        ended = speed.now()
        stack = self._stack()
        stack.pop()
        duration = ended - frame.started
        if stack:
            stack[-1].child_s += duration
        self.records.append(
            (frame.name, frame.span_id, frame.parent_id, duration, duration - frame.child_s)
        )

    def stats(self) -> dict[str, SpanStats]:
        """Fold the finished spans into per-name totals."""
        folded: dict[str, SpanStats] = {}
        for name, _span_id, _parent, duration, self_s in self.records:
            entry = folded.get(name)
            if entry is None:
                entry = folded[name] = SpanStats()
            entry.calls += 1
            entry.total_s += duration
            entry.self_s += self_s
            entry.durations_s.append(duration)
        return folded

    def covered_seconds(self) -> float:
        """Time covered by root spans (spans with no parent)."""
        return sum(record[3] for record in self.records if record[2] == 0)
