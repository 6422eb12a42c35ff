"""In-memory spans for the benchmark's traced run.

A span is a name, a start and end from ``time.perf_counter``, the id of
the span that caused it and the id of the run it belongs to. Spans stay in
memory until the benchmark writes them out when it ends.
"""
from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects the spans of one run.

    :meth:`span` nests by call order and is for the main thread only.
    Worker threads call :meth:`record` with an explicit parent.
    """

    def __init__(self, run: int):
        self.run = run
        self.spans: list[Span] = []
        #: Work counted at the same boundaries as the spans.
        self.counts: dict[str, float] = {}
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._lock = threading.Lock()

    def _add(self, span_id: int, name: str, start: float, end: float, parent):
        with self._lock:
            self.spans.append(Span(span_id, name, start, end, parent, self.run))

    def _new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    @contextmanager
    def span(self, name: str):
        span_id = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._add(span_id, name, start, end, parent)

    def record(self, name: str, start: float, end: float, parent: int) -> None:
        self._add(self._new_id(), name, start, end, parent)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` that the union of ``intervals`` covers."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - _covered(children.get(span.id, []), span.start, span.end)
        for span in spans
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer, the part of a span name before the dot."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.id]
    return totals
