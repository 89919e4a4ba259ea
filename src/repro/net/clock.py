"""Virtual time accounting: deterministic CPU and wall-clock models.

The paper evaluates JavaCAD with *CPU time* and *real time* measured on a
1999 Sun UltraSparc.  Re-running wall-clock measurements on a modern host
cannot reproduce those numbers, and real network latencies are not
available offline.  Instead, the reproduction charges every simulation
action to a :class:`VirtualClock` according to a :class:`CostModel` of
per-operation costs, and charges network waits separately.  This makes
the Table 2 / Figure 3 comparisons exact and machine-independent while
preserving their structure:

* ``cpu``   -- virtual client CPU seconds (compute + marshalling only);
* ``wall``  -- virtual elapsed time (CPU + blocking network waits +
  non-overlapped asynchronous completions + shared-host contention).

Non-blocking remote calls (the paper's threaded gate-level simulation
runs) register *outstanding completions*: the client keeps simulating,
and only at synchronization points does the wall clock jump to the latest
completion still pending.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import List

from ..core.errors import check_positive


@dataclass
class CostModel:
    """Per-operation virtual CPU costs, in seconds.

    The defaults are calibrated so that the Figure 2 circuit simulated for
    100 patterns lands in the neighbourhood of the paper's Table 2 row
    magnitudes (tens of seconds); only *ratios* between scenarios matter
    for the reproduction.
    """

    event_dispatch: float = 4e-3
    """Scheduler overhead per token popped and delivered."""

    gate_eval: float = 40e-6
    """Evaluating one logic gate."""

    word_op: float = 12e-3
    """One RT-level word operation (register transfer, add, multiply)."""

    estimator_invoke: float = 4e-3
    """Bookkeeping to look up and invoke one estimator."""

    marshal_call: float = 80e-3
    """Fixed client CPU cost of issuing one remote call (serialization
    set-up, stub dispatch).  This is the dominant term that pattern
    buffering amortizes."""

    marshal_per_byte: float = 2e-6
    """Client CPU cost per payload byte serialized or deserialized."""

    server_dispatch: float = 15e-3
    """Server-side cost to receive, unmarshal and dispatch one call."""

    wire_overhead_factor: float = 6.0
    """Wire bytes per raw payload byte (object-serialization bloat)."""

    def __post_init__(self) -> None:
        # A cost may be zero (a free operation); the wire bytes per
        # payload byte may not.
        for field in fields(self):
            check_positive(field.name, getattr(self, field.name),
                           zero=field.name != "wire_overhead_factor")


_INF = float("inf")


class VirtualClock:
    """Thread-safe virtual CPU / wall-clock accumulator.

    Every charge, wait and async duration must be finite and ``>= 0``:
    a negative amount, a NaN or an infinity (any of which would poison
    every later reading) raises :class:`ValueError`.  Each guard is one
    chained comparison (``0 <= seconds < inf`` is false for NaN), as
    :meth:`charge_cpu` runs on every delivered event.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cpu = 0.0
        self._wall = 0.0
        self._server_cpu = 0.0
        self._outstanding: List[float] = []

    # -- reading ---------------------------------------------------------

    @property
    def cpu(self) -> float:
        """Virtual client CPU seconds accumulated so far."""
        return self._cpu

    @property
    def wall(self) -> float:
        """Virtual elapsed (real) seconds accumulated so far."""
        return self._wall

    @property
    def server_cpu(self) -> float:
        """Virtual CPU seconds spent by remote servants."""
        return self._server_cpu

    # -- charging ----------------------------------------------------------

    def charge_cpu(self, seconds: float) -> None:
        """Charge client CPU work; advances the wall clock equally."""
        if not 0 <= seconds < _INF:
            raise ValueError(
                f"cannot charge negative or non-finite time {seconds!r}")
        with self._lock:
            self._cpu += seconds
            self._wall += seconds

    def charge_server_cpu(self, seconds: float,
                          shared_host: bool = False) -> None:
        """Charge server-side CPU work.

        When client and server share a host (the paper's local-host
        scenario), server work steals wall-clock time from the client,
        which is why the paper's local-host real time exceeds the LAN
        real time for the fully remote multiplier.
        """
        if not 0 <= seconds < _INF:
            raise ValueError(
                f"cannot charge negative or non-finite time {seconds!r}")
        with self._lock:
            self._server_cpu += seconds
            if shared_host:
                self._wall += seconds

    def wait(self, seconds: float) -> None:
        """Blocking wait (network round trip): wall time only."""
        if not 0 <= seconds < _INF:
            raise ValueError(
                f"cannot wait negative or non-finite time {seconds!r}")
        with self._lock:
            self._wall += seconds

    # -- non-blocking completions ---------------------------------------------

    def begin_async(self, duration: float) -> float:
        """Register a non-blocking operation finishing ``duration`` from now.

        Returns the absolute virtual completion time.  The client keeps
        running; :meth:`sync` later advances the wall clock past any
        completions that the client did not overtake.
        """
        if not 0 <= duration < _INF:
            raise ValueError(
                f"cannot schedule negative or non-finite duration "
                f"{duration!r}")
        with self._lock:
            completion = self._wall + duration
            self._outstanding.append(completion)
            return completion

    def sync(self) -> None:
        """Barrier: wait for every outstanding non-blocking operation."""
        with self._lock:
            if self._outstanding:
                latest = max(self._outstanding)
                if latest > self._wall:
                    self._wall = latest
                self._outstanding.clear()

    @property
    def pending_async(self) -> int:
        """Number of outstanding non-blocking operations."""
        return len(self._outstanding)

    # -- misc -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """A dict snapshot of all counters (for reports)."""
        with self._lock:
            return {
                "cpu": self._cpu,
                "wall": self._wall,
                "server_cpu": self._server_cpu,
                "pending_async": len(self._outstanding),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"VirtualClock(cpu={self._cpu:.3f}s, wall={self._wall:.3f}s, "
                f"server_cpu={self._server_cpu:.3f}s)")
