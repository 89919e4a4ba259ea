"""Event scheduler: time-ordered delivery of tokens.

Any number of schedulers can be instantiated and run in concurrent
threads over the *same* design.  Isolation is structural: a module can
schedule a new token only while handling one, and the new token is
automatically joined to the same scheduler; per-scheduler lookup tables
hold all connector values and module state.  Attempting to move a token
across schedulers raises :class:`SchedulerInterferenceError`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Tuple

from ..telemetry.runtime import TELEMETRY
from .errors import SchedulerInterferenceError, SimulationError
from .ids import next_id
from .token import Token

#: Histogram edges for schedule() delays, in simulated seconds.
_DELAY_BUCKETS = (0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


class Scheduler:
    """A time-ordered event queue with a unique identity.

    Ties at equal simulated time are broken by scheduling order, which
    makes runs deterministic.
    """

    def __init__(self, name: Optional[str] = None):
        self.scheduler_id: int = next_id("scheduler")
        self.name = name or f"scheduler{self.scheduler_id}"
        self.now: float = 0.0
        self.events_delivered: int = 0
        self._queue: List[Tuple[float, int, Token]] = []
        self._seq = itertools.count()

    # -- scheduling -------------------------------------------------------

    def schedule(self, token: Token, delay: float = 0.0) -> None:
        """Enqueue a token ``delay`` time units from now.

        The token is stamped with this scheduler's identity; tokens
        already owned by another scheduler are rejected.
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule in the past (delay={delay})")
        if token.scheduler_id is not None and \
                token.scheduler_id != self.scheduler_id:
            raise SchedulerInterferenceError(
                f"token {token!r} belongs to scheduler "
                f"{token.scheduler_id}, not {self.scheduler_id}")
        token.scheduler_id = self.scheduler_id
        token.time = self.now + delay
        heapq.heappush(self._queue, (token.time, next(self._seq), token))
        if TELEMETRY.enabled:
            metrics = TELEMETRY.metrics
            metrics.counter("scheduler.scheduled").inc()
            metrics.histogram("scheduler.delay",
                              buckets=_DELAY_BUCKETS).observe(delay)
            metrics.gauge("scheduler.pending",
                          labels={"scheduler": self.name}
                          ).set(len(self._queue))

    # -- queue inspection ----------------------------------------------------

    @property
    def empty(self) -> bool:
        """Whether no tokens remain to deliver."""
        return not self._queue

    @property
    def pending(self) -> int:
        """Number of tokens waiting in the queue."""
        return len(self._queue)

    def next_time(self) -> Optional[float]:
        """Delivery time of the earliest pending token, or None."""
        if not self._queue:
            return None
        return self._queue[0][0]

    # -- delivery -------------------------------------------------------------

    def pop(self) -> Token:
        """Remove and return the earliest token, advancing ``now``."""
        if not self._queue:
            raise SimulationError("pop from an empty scheduler")
        time, _seq, token = heapq.heappop(self._queue)
        self.now = time
        self.events_delivered += 1
        if TELEMETRY.enabled:
            metrics = TELEMETRY.metrics
            metrics.counter("scheduler.delivered").inc()
            metrics.gauge("scheduler.pending",
                          labels={"scheduler": self.name}
                          ).set(len(self._queue))
        return token

    def clear(self) -> None:
        """Drop every pending token (abort a run)."""
        self._queue.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Scheduler({self.name!r}, id={self.scheduler_id}, "
                f"now={self.now}, pending={len(self._queue)})")
