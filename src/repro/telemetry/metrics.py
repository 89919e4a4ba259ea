"""Thread-safe metric instruments: counters, gauges, histograms.

A :class:`MetricsRegistry` is a named get-or-create factory for the
three instrument kinds.  Registries are thread-safe end to end so that
concurrent schedulers (the reproduction's core concurrency story) can
share one registry without interference; every instrument carries its
own lock, and the registry lock only guards creation.

Instruments are identified by a name plus an optional ``labels`` dict
(e.g. ``counter("estimator.invocations", labels={"estimator": name})``);
the same name/labels pair always returns the same instrument.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import ParameterError

_INF = float("inf")

DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
"""Default histogram edges for durations in seconds (wall or virtual)."""

DEFAULT_BYTES_BUCKETS: Tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576)
"""Default histogram edges for payload sizes in bytes."""


def _key(name: str, labels: Optional[Mapping[str, Any]]) -> str:
    if not labels:
        return name
    suffix = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{suffix}}}"


class Counter:
    """A monotonically increasing accumulator (ints or float seconds)."""

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be finite and non-negative) to the
        counter.  One chained comparison guards it (``0 <= amount < inf``
        is false for NaN): this runs on every counted event."""
        if not 0 <= amount < _INF:
            raise ParameterError(
                f"counter {self.name!r}: amount must be non-negative and "
                f"finite, got {amount!r}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The accumulated total."""
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready description of this instrument."""
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A value that can go up and down (queue depths, open sockets)."""

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value: float = 0

    def set(self, value: float) -> None:
        """Replace the gauge's value (must be finite)."""
        if not -_INF < value < _INF:
            raise ParameterError(
                f"gauge {self.name!r}: value must be finite, got {value!r}")
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        """Adjust the gauge by ``amount`` (finite; may be negative).
        One chained comparison guards it, false for NaN as for the
        infinities: either would stick in every later reading."""
        if not -_INF < amount < _INF:
            raise ParameterError(
                f"gauge {self.name!r}: amount must be finite, "
                f"got {amount!r}")
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        """Adjust the gauge by ``-amount``."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """The current value."""
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready description of this instrument."""
        return {"type": "gauge", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """A bucketed distribution with count/sum/min/max.

    ``buckets`` is an ascending sequence of *upper* edges: an observation
    ``v`` lands in the first bucket whose edge satisfies ``v <= edge``;
    observations above the last edge are counted in the overflow bucket.
    """

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_TIME_BUCKETS):
        if not buckets:
            raise ValueError(
                f"histogram {name!r} needs at least one bucket edge")
        edges = tuple(float(edge) for edge in buckets)
        if any(edge != edge for edge in edges):
            raise ParameterError(
                f"histogram {name!r}: a bucket edge is NaN, got "
                f"{buckets!r}")
        if list(edges) != sorted(set(edges)):
            raise ValueError(
                f"histogram {name!r} bucket edges must be strictly "
                f"ascending, got {buckets!r}")
        self.name = name
        self.edges = edges
        self._lock = threading.Lock()
        self._counts: List[int] = [0] * (len(edges) + 1)  # +overflow
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation (must be finite)."""
        value = float(value)
        if not -_INF < value < _INF:
            raise ParameterError(
                f"histogram {self.name!r}: observation must be finite, "
                f"got {value!r}")
        index = len(self.edges)  # overflow unless an edge catches it
        for i, edge in enumerate(self.edges):
            if value <= edge:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> Dict[str, int]:
        """Per-bucket counts keyed by ``le=<edge>`` plus ``overflow``."""
        with self._lock:
            counts = list(self._counts)
        result = {f"le={edge:g}": counts[i]
                  for i, edge in enumerate(self.edges)}
        result["overflow"] = counts[-1]
        return result

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready description of this instrument."""
        with self._lock:
            return {
                "type": "histogram",
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "mean": self._sum / self._count if self._count else 0.0,
                "buckets": {f"le={edge:g}": self._counts[i]
                            for i, edge in enumerate(self.edges)},
                "overflow": self._counts[-1],
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Histogram({self.name!r}, count={self.count}, "
                f"sum={self.sum:.6g})")


class MetricsRegistry:
    """Named get-or-create store for instruments, shareable across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _get_or_create(self, key: str, kind: type, factory) -> Any:
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory()
                self._instruments[key] = instrument
                return instrument
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {key!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}")
        return instrument

    def counter(self, name: str,
                labels: Optional[Mapping[str, Any]] = None) -> Counter:
        """The counter registered under ``name``/``labels``."""
        key = _key(name, labels)
        return self._get_or_create(key, Counter, lambda: Counter(key))

    def gauge(self, name: str,
              labels: Optional[Mapping[str, Any]] = None) -> Gauge:
        """The gauge registered under ``name``/``labels``."""
        key = _key(name, labels)
        return self._get_or_create(key, Gauge, lambda: Gauge(key))

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
                  labels: Optional[Mapping[str, Any]] = None) -> Histogram:
        """The histogram registered under ``name``/``labels``.

        The bucket edges are fixed at first creation; later calls with
        different edges return the existing histogram unchanged.
        """
        key = _key(name, labels)
        return self._get_or_create(key, Histogram,
                                   lambda: Histogram(key, buckets))

    def names(self) -> Tuple[str, ...]:
        """All registered instrument keys, sorted."""
        with self._lock:
            return tuple(sorted(self._instruments))

    def get(self, name: str,
            labels: Optional[Mapping[str, Any]] = None) -> Optional[Any]:
        """The instrument registered under ``name``/``labels``, if any."""
        with self._lock:
            return self._instruments.get(_key(name, labels))

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready snapshot of every instrument, keyed by name."""
        with self._lock:
            instruments = dict(self._instruments)
        return {key: instruments[key].snapshot()
                for key in sorted(instruments)}

    def reset(self) -> None:
        """Drop every registered instrument."""
        with self._lock:
            self._instruments.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({len(self.names())} instruments)"
