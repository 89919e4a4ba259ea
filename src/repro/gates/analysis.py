"""Netlist analysis utilities: cones, arrival times, summaries.

Structural queries a provider runs over its private implementation
(cone extraction for incremental characterization, arrival-time
reports for the timing servant) and a one-stop summary used by catalog
entries and CLI tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..core.errors import DesignError
from .netlist import Netlist


def fanin_cone(netlist: Netlist, net: str) -> Set[str]:
    """Every net that can influence ``net`` (including itself)."""
    if not netlist.has_net(net):
        raise DesignError(f"unknown net {net!r}")
    cone: Set[str] = {net}
    changed = True
    while changed:
        changed = False
        for gate in netlist.gates:
            if gate.output in cone:
                for source in gate.inputs:
                    if source not in cone:
                        cone.add(source)
                        changed = True
    return cone


def fanout_cone(netlist: Netlist, net: str) -> Set[str]:
    """Every net that ``net`` can influence (including itself)."""
    if not netlist.has_net(net):
        raise DesignError(f"unknown net {net!r}")
    cone: Set[str] = {net}
    changed = True
    while changed:
        changed = False
        for gate in netlist.gates:
            if gate.output not in cone and any(
                    source in cone for source in gate.inputs):
                cone.add(gate.output)
                changed = True
    return cone


def support(netlist: Netlist, net: str) -> Tuple[str, ...]:
    """The primary inputs in ``net``'s fan-in cone."""
    cone = fanin_cone(netlist, net)
    return tuple(pi for pi in netlist.inputs if pi in cone)


def arrival_times(netlist: Netlist) -> Dict[str, float]:
    """Worst-case arrival time (ns) of every net from the inputs."""
    arrivals: Dict[str, float] = {net: 0.0 for net in netlist.inputs}
    for gate in netlist.levelize():
        arrivals[gate.output] = gate.cell.delay + max(
            (arrivals[source] for source in gate.inputs), default=0.0)
    return arrivals


def critical_path(netlist: Netlist) -> List[str]:
    """The nets along one worst-delay input-to-output path."""
    arrivals = arrival_times(netlist)
    if not netlist.outputs:
        return []
    end = max(netlist.outputs, key=lambda net: arrivals.get(net, 0.0))
    path = [end]
    current = end
    while True:
        driver = netlist.driver_of(current)
        if driver is None:
            break
        current = max(driver.inputs, key=lambda net: arrivals[net])
        path.append(current)
    path.reverse()
    return path


@dataclass(frozen=True)
class NetlistStats:
    """A one-stop structural summary of a netlist."""

    name: str
    inputs: int
    outputs: int
    gates: int
    nets: int
    area: float
    depth: int
    critical_delay_ns: float
    max_fanout: int
    cell_histogram: Tuple[Tuple[str, int], ...]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        cells = ", ".join(f"{name}x{count}"
                          for name, count in self.cell_histogram)
        return (f"{self.name}: {self.gates} gates ({cells}), "
                f"{self.inputs} in / {self.outputs} out, "
                f"area {self.area:.1f}, depth {self.depth}, "
                f"tcrit {self.critical_delay_ns:.2f} ns")


def netlist_stats(netlist: Netlist) -> NetlistStats:
    """Compute the :class:`NetlistStats` summary."""
    histogram: Dict[str, int] = {}
    for gate in netlist.gates:
        histogram[gate.cell.name] = histogram.get(gate.cell.name, 0) + 1
    max_fanout = max((len(netlist.fanout_of(net))
                      for net in netlist.nets()), default=0)
    return NetlistStats(
        name=netlist.name,
        inputs=len(netlist.inputs),
        outputs=len(netlist.outputs),
        gates=netlist.gate_count(),
        nets=len(netlist.nets()),
        area=netlist.area(),
        depth=netlist.depth(),
        critical_delay_ns=netlist.critical_path_delay(),
        max_fanout=max_fanout,
        cell_histogram=tuple(sorted(histogram.items())))
