"""Connectors: point-to-point, zero-delay links between two ports.

A connector ties exactly two ports together and forwards events between
the modules that own them.  Connectors carry a *current value* that is
kept separately for every scheduler, so concurrent simulations over the
same design never interfere (the paper's per-scheduler lookup tables).

Two standard connectors are provided, matching JavaCAD's bit- and
word-level connectors; custom semantics can be added by subclassing
:class:`Connector` (e.g. for abstract design representations such as
video streams).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from .errors import ConnectionError_, WidthMismatchError
from .ids import next_id
from .signal import Logic, SignalValue, Word

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .port import Port


# Auto-generated connector names reach marshalled bytes through wiring
# error messages (error replies carry str(exc)), so they are drawn
# from the current IdScope like every other marshalled id.
def _next_connector_name(prefix: str) -> str:
    return f"{prefix}{next_id('connector')}"


class Connector:
    """A point-to-point, zero-delay connection between two ports.

    Multi-fanout nets and net delays are handled by dedicated modules
    (:mod:`repro.core.fanout`), which gives designers per-branch control
    over propagation delays.
    """

    def __init__(self, width: int = 1, name: Optional[str] = None):
        if width <= 0:
            raise ConnectionError_("connector width must be positive")
        self.width = width
        self.name = name or _next_connector_name("n")
        self._endpoints: list = []  # of Port
        self._values: Dict[int, SignalValue] = {}  # scheduler id -> value

    # -- wiring -------------------------------------------------------------

    def attach(self, port: "Port") -> None:
        """Attach a port; at most two ports per connector."""
        if len(self._endpoints) >= 2:
            raise ConnectionError_(
                f"connector {self.name!r} is point-to-point and already has "
                f"two endpoints; use a Fanout module for multi-fanout nets")
        if port.connector is not None:
            raise ConnectionError_(
                f"port {port.full_name} is already connected")
        if port.width != self.width:
            raise WidthMismatchError(
                f"port {port.full_name} (width {port.width}) does not match "
                f"connector {self.name!r} (width {self.width})")
        self._endpoints.append(port)
        port.connector = self
        self._reroute()

    def detach(self, port: "Port") -> None:
        """Detach a port from this connector."""
        if port not in self._endpoints:
            raise ConnectionError_(
                f"port {port.full_name} is not attached to {self.name!r}")
        self._endpoints.remove(port)
        port.connector = port.route = None
        self._reroute()

    def _reroute(self) -> None:
        # The event path follows Port.route and never scans endpoints:
        # every wiring change must end here.
        for port in self._endpoints:
            peer = self.peer_of(port)
            port.route = (self, peer, None if peer is None else peer.owner)

    @property
    def endpoints(self) -> tuple:
        """The attached ports (zero, one or two of them)."""
        return tuple(self._endpoints)

    def peer_of(self, port: "Port") -> "Optional[Port]":
        """The other endpoint, given one of the two attached ports."""
        for candidate in self._endpoints:
            if candidate is not port:
                return candidate
        return None

    # -- per-scheduler value --------------------------------------------------

    def default_value(self) -> SignalValue:
        """Value the connector carries before any event arrives."""
        raise NotImplementedError

    def check_value(self, value: SignalValue) -> None:
        """Validate that a value is legal for this connector; raise if not."""
        raise NotImplementedError

    def get_value(self, scheduler_id: int,
                  fallback_id: Optional[int] = None) -> SignalValue:
        """Current value as seen by the given scheduler.

        ``fallback_id`` is the scheduler's copy-on-write fallback
        (:attr:`~repro.core.scheduler.Scheduler.fallback_id`): where
        ``scheduler_id`` stored no value, that scheduler's is seen.
        """
        value = self._values.get(scheduler_id)  # None is no signal value
        if value is None:
            if fallback_id is not None:
                value = self._values.get(fallback_id)
            if value is None:
                return self.default_value()
        return value

    def set_value(self, scheduler_id: int, value: SignalValue) -> None:
        """Set the current value for the given scheduler."""
        self.check_value(value)
        self._values[scheduler_id] = value

    def clear(self, scheduler_id: int) -> None:
        """Forget the value stored for a scheduler (end of its run)."""
        self._values.pop(scheduler_id, None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ends = ", ".join(p.full_name for p in self._endpoints)
        return (f"{type(self).__name__}({self.name!r}, "
                f"width={self.width}, [{ends}])")


class BitConnector(Connector):
    """A single-bit, gate-level connector carrying :class:`Logic` values."""

    def __init__(self, name: Optional[str] = None):
        super().__init__(width=1, name=name or _next_connector_name("b"))

    def default_value(self) -> Logic:
        return Logic.X

    def check_value(self, value: SignalValue) -> None:
        if not isinstance(value, Logic):
            raise ConnectionError_(
                f"bit connector {self.name!r} carries Logic values, "
                f"got {type(value).__name__}")


class WordConnector(Connector):
    """A word-level connector carrying fixed-width :class:`Word` values."""

    def __init__(self, width: int, name: Optional[str] = None):
        super().__init__(width=width, name=name or _next_connector_name("w"))

    def default_value(self) -> Word:
        return Word.unknown(self.width)

    def check_value(self, value: SignalValue) -> None:
        if not isinstance(value, Word):
            raise ConnectionError_(
                f"word connector {self.name!r} carries Word values, "
                f"got {type(value).__name__}")
        if value.width != self.width:
            raise WidthMismatchError(
                f"word connector {self.name!r} has width {self.width}, "
                f"got word of width {value.width}")


def connect(port_a: "Port", port_b: "Port",
            connector: Optional[Connector] = None) -> Connector:
    """Convenience: tie two ports together with a fresh suitable connector.

    If ``connector`` is omitted, a :class:`BitConnector` is created for
    1-bit ports and a :class:`WordConnector` otherwise.
    """
    if connector is None:
        if port_a.width != port_b.width:
            raise WidthMismatchError(
                f"cannot connect {port_a.full_name} (width {port_a.width}) "
                f"to {port_b.full_name} (width {port_b.width})")
        if port_a.width == 1:
            connector = BitConnector()
        else:
            connector = WordConnector(port_a.width)
    connector.attach(port_a)
    connector.attach(port_b)
    return connector
