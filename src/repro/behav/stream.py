"""Behavioural-level modelling: abstract stream connectors and values.

The paper: "You can design more complex connectors for abstract design
representations, such as for video signals handled by a DSP", and its
future work targets higher abstraction levels.  This module provides
that level: a :class:`Frame` value (a burst of samples), a
:class:`StreamConnector` carrying frames, and the usual per-scheduler
isolation -- behavioural streams ride the same token machinery as bits
and words.

Frames are registered with the restricted marshaller, so behavioural IP
(e.g. a provider's DSP pipeline) interoperates with remote estimation
exactly like gate/RT-level components.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from ..core.connector import Connector
from ..core.errors import ConnectionError_, check_positive
from ..core.signal import SignalValue
from ..rmi.marshal import register_value_type


class Frame:
    """An immutable burst of integer samples at a nominal sample rate."""

    __slots__ = ("_samples", "_rate")

    def __init__(self, samples: Iterable[int], rate: float = 1.0):
        self._samples: Tuple[int, ...] = tuple(int(s) for s in samples)
        check_positive("sample rate", rate)
        self._rate = float(rate)

    @property
    def samples(self) -> Tuple[int, ...]:
        """The samples, in time order."""
        return self._samples

    @property
    def rate(self) -> float:
        """Nominal samples per time unit."""
        return self._rate

    def __len__(self) -> int:
        return len(self._samples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self._samples == other._samples and \
            self._rate == other._rate

    def __hash__(self) -> int:
        return hash((self._samples, self._rate))

    def __repr__(self) -> str:
        preview = ", ".join(str(s) for s in self._samples[:4])
        ellipsis = ", ..." if len(self._samples) > 4 else ""
        return f"Frame([{preview}{ellipsis}], rate={self._rate})"

    # -- transformations -----------------------------------------------------

    def map(self, fn) -> "Frame":
        """A new frame with ``fn`` applied to every sample."""
        return Frame((fn(s) for s in self._samples), self._rate)

    def decimate(self, factor: int) -> "Frame":
        """Keep every ``factor``-th sample (rate drops accordingly)."""
        if factor < 1:
            raise ValueError("decimation factor must be >= 1")
        return Frame(self._samples[::factor], self._rate / factor)

    def energy(self) -> int:
        """Sum of squared samples (signal energy, for estimators)."""
        return sum(s * s for s in self._samples)


register_value_type(
    "frame", Frame,
    lambda frame: {"samples": list(frame.samples), "rate": frame.rate},
    lambda wire: Frame(wire["samples"], wire["rate"]))


class StreamConnector(Connector):
    """A point-to-point connector carrying :class:`Frame` values."""

    def __init__(self, name: Optional[str] = None):
        super().__init__(width=1, name=name)

    def default_value(self) -> SignalValue:
        return Frame(())

    def check_value(self, value) -> None:
        if not isinstance(value, Frame):
            raise ConnectionError_(
                f"stream connector {self.name!r} carries Frame values, "
                f"got {type(value).__name__}")
