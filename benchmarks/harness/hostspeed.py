"""How fast the host runs right now, read off a fixed reference loop.

The box this harness was sized on is a two-core VM on a shared host.
For minutes at a time its CPUs run everything -- this loop, every
workload, CPU time as much as wall time -- 1.3 to 2 times slower than
in the minutes before or after, depending on what the neighbours do.
No amount of repetition inside a ten-second run averages that away,
and it is several times the bound any metric may move by.

So every timed interval is bracketed by two readings of this loop, and
its time is reported at *reference speed*: multiplied by
``REFERENCE_S`` over what the loop took around it.  A host on
which the loop takes ``REFERENCE_S`` reports times as measured; a host
in a slow phase reports what the interval would have taken without the
phase.  The times as measured stay in the result file beside the
corrected ones.

A reading is one run of some 30 ms, not the best of several short
ones: the interval it corrects met the host's average speed, stolen
milliseconds included.
The correction is a proxy and says so: memory-heavy work loses more in
a slow phase than this loop does (measured: up to 1.85x against the
loop's 1.45x), so a residue of the phase stays in the corrected time.
Ten runs of a workload that straddled such phases spread by 30-45% as
measured and by 4-13% at reference speed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Optional, Sequence

REFERENCE_ITERATIONS = 500_000
REFERENCE_S = 0.0285
"""What the loop takes on an undisturbed CPU of the sizing box (CPython
3.11): the speed all reported times are corrected to."""


def reference_loop() -> int:
    total = 0
    for value in range(REFERENCE_ITERATIONS):
        total += value * value
    return total


@dataclass(frozen=True)
class Speed:
    """Seconds the reference loop took, by each clock."""

    wall_s: float
    cpu_s: float

    @property
    def wall_factor(self) -> float:
        """Multiply a wall time by this to get it at reference speed."""
        return REFERENCE_S / self.wall_s

    @property
    def cpu_factor(self) -> float:
        return REFERENCE_S / self.cpu_s


def between(before: Speed, after: Speed) -> Speed:
    """The speed to assume for an interval bracketed by two readings."""
    return Speed((before.wall_s + after.wall_s) / 2,
                 (before.cpu_s + after.cpu_s) / 2)


def _read() -> Speed:
    cpu = time.process_time()
    wall = time.perf_counter()
    reference_loop()
    return Speed(time.perf_counter() - wall, time.process_time() - cpu)


def read_speed(cpus: Optional[Sequence[int]] = None) -> Speed:
    """The slowest of ``cpus``, each read from the calling thread.

    A result that waits for actors on several CPUs waits for the one on
    the slowest.  The default is the CPUs the calling thread may run
    on; its affinity is put back afterwards.
    """
    mine = os.sched_getaffinity(0)
    try:
        readings = []
        for cpu in sorted(mine) if cpus is None else cpus:
            os.sched_setaffinity(0, {cpu})
            readings.append(_read())
    finally:
        os.sched_setaffinity(0, mine)
    return Speed(max(reading.wall_s for reading in readings),
                 max(reading.cpu_s for reading in readings))


class Bracket:
    """A ``with`` block between two readings; ``speed`` is set on exit."""

    def __init__(self, cpus: Optional[Sequence[int]] = None):
        self.cpus = cpus
        self.speed: Optional[Speed] = None

    def __enter__(self) -> "Bracket":
        self._before = read_speed(self.cpus)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.speed = between(self._before, read_speed(self.cpus))
