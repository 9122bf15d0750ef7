"""Span tracing for the benchmark's traced run.

Spans are opened by wrappers that replace a module attribute at the place
where it is called. The package imports with ``from .x import y``, which
binds ``y`` into the importing module, so the wrapper has to replace
``edgewatch.pipeline.dbscan`` (the name ``run_timeline`` looks up), not
``edgewatch.dbscan.dbscan``. Every replaced name is put back by
``restore``. A boundary that the code no longer has is skipped and reads as
zero, so a refactor that removes or renames a call site cannot crash a run.

Times come from ``CLOCK_MONOTONIC``, which is shared by every process on
Linux, so spans recorded in a job process line up with the launch time the
parent recorded.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    job: str


@dataclass
class Tracer:
    """Keeps spans and counters in memory until the run writes them out."""

    job: str = "job"
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, now(), 0.0, parent, self.job))
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index].end = now()

    def spanned(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span; ``count(counts, args, kwargs, result)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def counted(self, key: str, fn: Callable) -> Callable:
        """``fn`` with a call counter and no span, for per-flow calls."""
        counts = self.counts

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return tallied


@dataclass(frozen=True)
class Boundary:
    """One call site to trace: ``module.attr`` becomes a span or a counter."""

    module: str
    attr: str
    span: str | None  # None: count calls under ``counter`` without a span
    counter: str | None = None
    count: Callable[[Counter, tuple, dict, Any], None] | None = None


def install(tracer: Tracer, boundaries: list[Boundary]) -> tuple[list[tuple], list[str]]:
    """Patch every boundary that exists; return (saved originals, missing names)."""
    saved: list[tuple] = []
    missing: list[str] = []
    try:
        for b in boundaries:
            module = importlib.import_module(b.module)
            original = getattr(module, b.attr, None)
            if original is None:
                missing.append(f"{b.module}.{b.attr}")
                continue
            if b.span is None:
                wrapper = tracer.counted(b.counter, original)
            else:
                wrapper = tracer.spanned(b.span, original, b.count)
            saved.append((module, b.attr, original))
            setattr(module, b.attr, wrapper)
    except BaseException:
        restore(saved)
        raise
    return saved, missing


def restore(saved: list[tuple]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval first, so a child that
    outlives its parent cannot drive the parent's self time below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            clipped = (max(span.start, parent.start), min(span.end, parent.end))
            if clipped[1] > clipped[0]:
                children.setdefault(span.parent, []).append(clipped)
    return [
        (span.end - span.start) - union_length(children.get(i, []))
        for i, span in enumerate(spans)
    ]


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, self_s in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + self_s
    return totals
