"""Harness-side spans: who called into which layer, and for how long.

Spans are recorded from the benchmark's own files, around its calls
into each layer of ``repro`` -- nothing inside the program is
instrumented.  They stay in memory until the run ends; then they are
folded into a per-layer table (count, total, *self* time) and written
as a Chrome trace-event file (open it at ``chrome://tracing`` or
https://ui.perfetto.dev).

A span's self time is its duration minus the part of that interval its
direct child spans cover.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call into a layer."""

    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: Optional["Span"] = None
    tid: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float,
            intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for begin, finish in sorted(intervals):
        begin = max(begin, cursor)
        finish = min(finish, end)
        if finish > begin:
            total += finish - begin
            cursor = finish
    return total


class Tracer:
    """Collects nested spans per thread; a disabled tracer records nothing.

    Measured passes run with a disabled tracer, so ``span`` costs one
    attribute test there; the traced pass is separate and its slowdown
    is reported as ``trace.overhead_ratio``.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack = threading.local()

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread, if any."""
        stack = getattr(self._stack, "spans", None)
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, layer: str,
             parent: Optional[Span] = None) -> Iterator[Optional[Span]]:
        """Time a block; ``parent`` names the causing span when it was
        opened by another thread (default: the caller's innermost)."""
        if not self.enabled:
            yield None
            return
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = self._stack.spans = []
        span = Span(name, layer, time.perf_counter(),
                    parent=parent or (stack[-1] if stack else None),
                    tid=threading.get_ident())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def self_times(self) -> Dict[int, float]:
        """Self time of every recorded span, keyed by ``id(span)``."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(
                    (span.start, span.end))
        return {id(span): span.duration - covered(
                    span.start, span.end, children.get(id(span), ()))
                for span in self.spans}

    def layer_table(self) -> List[Dict[str, Any]]:
        """Per span name: layer, count, total and self milliseconds."""
        self_times = self.self_times()
        rows: Dict[str, Dict[str, Any]] = {}
        for span in self.spans:
            row = rows.setdefault(span.name, {
                "span": span.name, "layer": span.layer, "count": 0,
                "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += span.duration * 1e3
            row["self_ms"] += self_times[id(span)] * 1e3
        return sorted(rows.values(), key=lambda row: -row["self_ms"])

    def self_ms(self, name: str) -> float:
        """Summed self time of every span called ``name``, in ms."""
        return sum(row["self_ms"] for row in self.layer_table()
                   if row["span"] == name)

    def chrome_trace(self, pid: int = 1) -> Dict[str, Any]:
        """The spans as Chrome trace-event JSON (``ph: X`` events)."""
        ordered = sorted(self.spans, key=lambda span: span.start)
        origin = ordered[0].start if ordered else 0.0
        ids = {id(span): index for index, span in enumerate(ordered)}
        events = [{
            "name": span.name, "cat": span.layer, "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid, "tid": span.tid,
            "args": {"id": ids[id(span)],
                     "parent": (ids.get(id(span.parent))
                                if span.parent is not None else None)},
        } for span in ordered]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
