"""Single stuck-at fault model.

A fault site is either a *stem* (a whole net, including primary inputs
and gate outputs) or a *branch* (one gate input pin, relevant when the
source net fans out to several gates).  Fault names follow the paper's
``<site>sa<value>`` convention (e.g. ``I3sa0``); providers may instead
export opaque symbolic names to avoid leaking net names.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import FaultSimulationError
from ..core.signal import Logic

_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True)
class StuckAtFault:
    """A single stuck-at-0/1 fault at a stem or branch site."""

    net: str
    """The faulted net (stem), or the source net of the faulted pin."""

    value: Logic
    """The stuck value: ``Logic.ZERO`` or ``Logic.ONE``."""

    gate_name: str = ""
    """For branch faults: the gate whose input pin is faulted."""

    pin: int = -1
    """For branch faults: the faulted input pin index."""

    def __post_init__(self) -> None:
        if self.value not in (Logic.ZERO, Logic.ONE):
            raise FaultSimulationError(
                f"stuck-at value must be 0 or 1, got {self.value!r}")
        if (self.gate_name == "") != (self.pin < 0):
            raise FaultSimulationError(
                "branch faults need both gate_name and pin")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def stem(net: str, value: int) -> "StuckAtFault":
        """A stuck-at fault on a whole net."""
        return StuckAtFault(net, Logic(value))

    @staticmethod
    def branch(net: str, gate_name: str, pin: int,
               value: int) -> "StuckAtFault":
        """A stuck-at fault on one gate input pin fed by ``net``."""
        return StuckAtFault(net, Logic(value), gate_name, pin)

    @classmethod
    def _unchecked(cls, net: str, value: Logic, gate_name: str,
                   pin: int) -> "StuckAtFault":
        """The fault the constructor would build, without its checks.

        For the fault-list builder alone: every fault it enumerates has
        a ``Logic.ZERO`` / ``Logic.ONE`` value and either a gate name
        and pin or neither.  The fields are set in declaration order,
        as ``__init__`` sets them, so the instance is laid out, compares,
        hashes and pickles like a checked one.
        """
        fault = _new(cls)
        _set(fault, "net", net)
        _set(fault, "value", value)
        _set(fault, "gate_name", gate_name)
        _set(fault, "pin", pin)
        return fault

    # -- classification ----------------------------------------------------

    @property
    def is_stem(self) -> bool:
        """Whether the fault affects the whole net."""
        return self.gate_name == ""

    @property
    def name(self) -> str:
        """Human-readable fault name (``I3sa0``, ``I2->g5.1sa1``)."""
        suffix = f"sa{int(self.value)}"
        if self.is_stem:
            return f"{self.net}{suffix}"
        return f"{self.net}->{self.gate_name}.{self.pin}{suffix}"

    def __str__(self) -> str:
        return self.name
