"""Deterministic network models for the three paper scenarios.

The paper evaluates remote simulation over three environments: the local
host (client and server on one machine, still speaking RMI), a university
LAN, and a WAN between Bologna and Padova.  Offline we replace the
physical links with a latency + bandwidth model whose presets are
calibrated to late-1990s conditions, giving reproducible Table 2 /
Figure 3 shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import check_positive


@dataclass(frozen=True)
class NetworkModel:
    """A symmetric point-to-point link model.

    The time to complete one remote call carrying ``request_bytes`` out
    and ``reply_bytes`` back is::

        2 * latency + (request_bytes + reply_bytes) / bandwidth
    """

    name: str
    latency: float
    """One-way propagation + protocol latency, seconds."""

    bandwidth: float
    """Usable payload bandwidth, bytes/second."""

    shared_host: bool = False
    """Client and server share one machine: server CPU work contends with
    the client for the single host (paper's local-host anomaly)."""

    def __post_init__(self) -> None:
        check_positive("latency", self.latency, zero=True)
        check_positive("bandwidth", self.bandwidth)

    def transfer_time(self, nbytes: int) -> float:
        """Seconds to push ``nbytes`` through the link."""
        if nbytes < 0:
            raise ValueError("byte count must be non-negative")
        return nbytes / self.bandwidth

    def call_time(self, request_bytes: int, reply_bytes: int = 0) -> float:
        """Seconds for one round trip with the given payloads."""
        return 2.0 * self.latency + self.transfer_time(
            request_bytes + reply_bytes)

    def __str__(self) -> str:
        return self.name


LOCALHOST = NetworkModel(
    name="localhost",
    latency=0.3e-3,       # loopback RMI dispatch
    bandwidth=2e6,        # in-memory copy through the loopback stack
    shared_host=True,
)
"""Client and server on the same machine, still through RMI."""

LAN = NetworkModel(
    name="lan",
    latency=2e-3,         # shared 10 Mbit Ethernet under working-hours load
    bandwidth=40e3,       # effective RMI payload throughput under load
)
"""University LAN with the usual network load in working time."""

WAN = NetworkModel(
    name="wan",
    latency=150e-3,       # Bologna <-> Padova across the 1999 Internet
    bandwidth=1.5e3,      # congested long-distance academic link
)
"""A typical long-distance Internet connection."""

PRESETS = {model.name: model for model in (LOCALHOST, LAN, WAN)}
"""Lookup table of the three paper environments by name."""
