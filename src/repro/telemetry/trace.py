"""Lightweight span tracing with dual wall/virtual timestamps.

A :class:`Tracer` produces :class:`Span` objects -- context managers
that measure a wall-clock interval (``time.perf_counter`` relative to
the tracer's epoch) and, when a virtual clock is supplied, the matching
interval of simulated time (:class:`repro.net.clock.VirtualClock`
``wall`` seconds).  Parent/child nesting is tracked through a
thread-local stack, so two schedulers running in concurrent threads
never interleave their span parents.

The tracer stores finished spans in memory, plus the already-exported
trace events that worker processes ship back
(:meth:`Tracer.add_worker_events`); exporters
(:mod:`repro.telemetry.export`) turn them into Chrome ``about:tracing``
files or JSON summaries.  Any object exposing a ``wall`` attribute in
virtual seconds can serve as the clock -- the tracer deliberately does
not import the simulation packages.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, List, Optional, Tuple


class Span:
    """One traced interval; usable as a context manager or start/finish.

    Spans are created through :meth:`Tracer.span`; entering the span (or
    calling :meth:`start`) pushes it on the current thread's stack,
    which parents any span opened before it finishes on that thread.
    """

    __slots__ = ("tracer", "name", "category", "args", "clock",
                 "span_id", "parent_id", "thread_id", "thread_name",
                 "wall_start", "wall_end", "virtual_start", "virtual_end",
                 "_finished")

    def __init__(self, tracer: "Tracer", name: str, category: str = "",
                 clock: Optional[Any] = None,
                 args: Optional[Dict[str, Any]] = None):
        self.tracer = tracer
        self.name = name
        self.category = category
        self.clock = clock
        self.args: Dict[str, Any] = dict(args) if args else {}
        self.span_id: int = 0
        self.parent_id: Optional[int] = None
        self.thread_id: int = 0
        self.thread_name: str = ""
        self.wall_start: float = 0.0
        self.wall_end: float = 0.0
        self.virtual_start: Optional[float] = None
        self.virtual_end: Optional[float] = None
        self._finished = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Span":
        """Begin timing and become the current thread's innermost span."""
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        stack = self.tracer._thread_stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.span_id = next(self.tracer._span_ids)
        stack.append(self)
        if self.clock is not None:
            self.virtual_start = self.clock.wall
        self.wall_start = time.perf_counter() - self.tracer.epoch
        return self

    def finish(self) -> None:
        """Stop timing, pop the thread stack and record the span."""
        if self._finished:
            return
        self._finished = True
        self.wall_end = time.perf_counter() - self.tracer.epoch
        if self.clock is not None:
            self.virtual_end = self.clock.wall
        stack = self.tracer._thread_stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # out-of-order finish: drop self only
            stack.remove(self)
        self.tracer._record(self)

    def set(self, key: str, value: Any) -> None:
        """Attach one argument to the span."""
        self.args[key] = value

    # -- durations ---------------------------------------------------------

    @property
    def wall_duration(self) -> float:
        """Measured wall-clock seconds."""
        return self.wall_end - self.wall_start

    @property
    def virtual_duration(self) -> Optional[float]:
        """Simulated seconds covered, when a clock was bound."""
        if self.virtual_start is None or self.virtual_end is None:
            return None
        return self.virtual_end - self.virtual_start

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Span":
        return self.start()

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc_type is not None:
            self.args.setdefault("error", f"{exc_type.__name__}: {exc}")
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id})")


class Tracer:
    """Collects finished spans; thread-safe, one instance per process."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self._span_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._worker_events: List[Dict[str, Any]] = []
        self._local = threading.local()

    # -- span factory ------------------------------------------------------

    def span(self, name: str, category: str = "",
             clock: Optional[Any] = None,
             args: Optional[Dict[str, Any]] = None) -> Span:
        """A new (unstarted) span; use as ``with tracer.span(...) as s:``."""
        return Span(self, name, category=category, clock=clock, args=args)

    # -- internals ---------------------------------------------------------

    def _thread_stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- reading -----------------------------------------------------------

    @property
    def spans(self) -> Tuple[Span, ...]:
        """Every finished span, in finish order."""
        with self._lock:
            return tuple(self._spans)

    def add_worker_events(self, events: List[Dict[str, Any]]) -> None:
        """Keep Chrome trace events a worker process recorded.

        They carry the worker's pid and timestamps already relative to
        this tracer's epoch (see ``repro.parallel.pool``).
        """
        with self._lock:
            self._worker_events.extend(events)

    @property
    def worker_events(self) -> Tuple[Dict[str, Any], ...]:
        """Every worker-recorded trace event, in arrival order."""
        with self._lock:
            return tuple(self._worker_events)

    def current_span(self) -> Optional[Span]:
        """The innermost open span of the calling thread, if any."""
        stack = self._thread_stack()
        return stack[-1] if stack else None

    def spans_by_category(self, category: str) -> Tuple[Span, ...]:
        """Finished spans of one category."""
        return tuple(s for s in self.spans if s.category == category)

    def reset(self) -> None:
        """Drop recorded spans and restart the epoch."""
        with self._lock:
            self._spans.clear()
            self._worker_events.clear()
            self.epoch = time.perf_counter()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer({len(self.spans)} spans)"
