"""Engine selection: the interpreted event path vs the compiled kernel.

This is the one place an engine name turns into a simulator.  Every
entry point (CLI, ATPG, parallel workers, the remote fault farm, the
provider's published servants) funnels its ``engine`` argument through
:func:`resolve_engine` and builds what it runs through
:func:`fault_simulator_for` (whole campaigns) or :func:`simulator_for`
(single patterns); nothing else chooses between the implementations.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Protocol, Sequence, Union

from ..core.errors import FaultSimulationError
from ..core.signal import Logic
from ..faults.faultlist import FaultList
from ..faults.serial import FaultSimReport, SerialFaultSimulator
from ..gates.netlist import Netlist
from ..gates.simulator import NetlistSimulator
from .ppsfp import CompiledFaultSimulator, CompiledSimulator

ENGINES = ("event", "compiled")
"""Selectable gate-simulation engines."""

DEFAULT_ENGINE = "compiled"
"""What ``engine=None`` means, written here and nowhere else.

The two engines are byte-identical as *logic* simulators (same reports,
detection tables, evaluations and test sets; ``tests/differential``
holds them to it), so the fast one is the default everywhere and
``"event"`` stays selectable as the oracle.  ``engine`` never picks
anything else: the provider's power estimator is always
:class:`~repro.power.toggle.ToggleCountModel`, which runs on the
compiled fault-free kernel whatever ``engine`` says and reports what
the event wave would, exactly.
"""


class FaultSimulator(Protocol):
    """The campaign surface both engines' fault simulators expose."""

    netlist: Netlist
    fault_list: FaultList

    def run(self, patterns: Sequence[Mapping[str, Logic]],
            drop_detected: bool = True) -> FaultSimReport: ...

    def detects(self, pattern: Mapping[str, Logic],
                fault_name: str) -> bool: ...

    def detecting(self, pattern: Mapping[str, Logic],
                  names: Sequence[str]) -> List[str]: ...


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine name; ``None`` means :data:`DEFAULT_ENGINE`."""
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise FaultSimulationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}")
    return engine


def fault_simulator_for(engine: Optional[str], netlist: Netlist,
                        fault_list: Optional[FaultList] = None
                        ) -> FaultSimulator:
    """A serial-semantics fault simulator for the chosen engine.

    Either engine's simulator produces identical
    :class:`~repro.faults.serial.FaultSimReport` values.
    """
    if resolve_engine(engine) == "compiled":
        return CompiledFaultSimulator(netlist, fault_list)
    return SerialFaultSimulator(netlist, fault_list)


def simulator_for(engine: Optional[str], netlist: Netlist
                  ) -> Union[NetlistSimulator, CompiledSimulator]:
    """A single-pattern logic simulator (``evaluate`` / ``outputs`` /
    ``outputs_for_faults``) for the chosen engine; identical values."""
    if resolve_engine(engine) == "compiled":
        return CompiledSimulator(netlist)
    return NetlistSimulator(netlist)
