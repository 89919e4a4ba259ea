"""Ports: the connection points of design modules.

A port identifies a module connection.  Following the paper, a port can be
*bidirectional* (both input and output) or *oriented* (input-only or
output-only).  Ports are attached to exactly one connector; multi-fanout
nets are built with explicit fanout modules (:mod:`repro.core.fanout`).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional, Tuple

from .errors import ConnectionError_

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .connector import Connector
    from .module import ModuleSkeleton


class PortDirection(enum.Enum):
    """Orientation of a port."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"

    @property
    def can_read(self) -> bool:
        """Whether a module may read events arriving at this port."""
        return self in (PortDirection.IN, PortDirection.INOUT)

    @property
    def can_write(self) -> bool:
        """Whether a module may emit events from this port."""
        return self in (PortDirection.OUT, PortDirection.INOUT)


Route = Tuple["Connector", "Optional[Port]", "Optional[ModuleSkeleton]"]
"""Where a value leaving a port goes: the wiring, resolved once."""


class Port:
    """A named, oriented, fixed-width connection point on a module."""

    __slots__ = ("name", "direction", "can_read", "can_write", "width",
                 "owner", "connector", "route")

    def __init__(self, name: str, direction: PortDirection, width: int = 1,
                 owner: "Optional[ModuleSkeleton]" = None):
        if width <= 0:
            raise ConnectionError_(f"port {name!r}: width must be positive")
        self.name = name
        self.direction = direction
        self.can_read: bool = direction.can_read
        self.can_write: bool = direction.can_write
        self.width = width
        self.owner = owner
        self.connector: "Optional[Connector]" = None
        #: ``(connector, peer, peer.owner)`` while attached (``peer`` and
        #: its owner ``None`` until the far end is), else ``None``.
        #: :meth:`Connector.attach` / ``detach`` keep it and
        #: ``connector`` current; nothing else writes either.
        self.route: "Optional[Route]" = None

    @property
    def is_connected(self) -> bool:
        """Whether the port is attached to a connector."""
        return self.connector is not None

    @property
    def full_name(self) -> str:
        """Dotted ``module.port`` name for diagnostics."""
        owner = self.owner.name if self.owner is not None else "<unbound>"
        return f"{owner}.{self.name}"

    def peer(self) -> "Optional[Port]":
        """The port at the other end of this port's connector, if any."""
        return None if self.route is None else self.route[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Port({self.full_name}, {self.direction.value}, "
                f"width={self.width})")
