"""Baseline serial fault simulator with fault dropping.

This is the classical, full-knowledge flow the paper's virtual protocol
must match: the whole design is one flat netlist, every fault is visible,
and each pattern simulates the fault-free circuit plus every remaining
fault.  It serves both as the correctness oracle for the virtual
protocol (they must report identical coverage, pattern by pattern) and
as the baseline the IP-protection machinery makes unnecessary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from ..core.signal import Logic
from ..gates.netlist import Netlist
from ..gates.simulator import NetlistSimulator
from .faultlist import FaultList, build_fault_list


@dataclass
class FaultSimReport:
    """Outcome of a fault-simulation run."""

    total_faults: int
    detected: Dict[str, int] = field(default_factory=dict)
    """Symbolic fault name -> index of the first detecting pattern."""

    per_pattern: List[Set[str]] = field(default_factory=list)
    """Faults newly detected by each pattern (the simulation history)."""

    @property
    def detected_count(self) -> int:
        """Number of detected faults."""
        return len(self.detected)

    @property
    def coverage(self) -> float:
        """Detected fraction of the target fault list, in [0, 1]."""
        if self.total_faults == 0:
            return 1.0
        return len(self.detected) / self.total_faults

    def undetected(self, fault_list_names: Sequence[str]) -> Tuple[str, ...]:
        """Target faults never detected."""
        return tuple(name for name in fault_list_names
                     if name not in self.detected)

    def coverage_history(self) -> List[float]:
        """Incremental fault coverage after each pattern."""
        history: List[float] = []
        seen = 0
        for newly in self.per_pattern:
            seen += len(newly)
            history.append(seen / self.total_faults
                           if self.total_faults else 1.0)
        return history


DetectStep = Callable[[Any, Sequence[str]], Sequence[str]]
"""``detect(pattern, remaining)``: the still-targeted names this pattern
detects, in ``remaining`` order (it fixes ``detected``'s insertion
order).  Called exactly once per pattern, in sequence, so a step may
carry state from one pattern to the next (register state, the previous
pattern of a launch pair)."""


def run_campaign(names: Sequence[str], patterns: Sequence[Any],
                 detect: DetectStep,
                 drop_detected: bool = True) -> FaultSimReport:
    """The campaign loop every per-pattern fault simulator shares.

    With ``drop_detected`` (the default, as in the paper) a detected
    fault leaves the target list and is never simulated again; without
    it ``detected`` keeps first-detection insertion order but records
    the *last* detecting index.
    """
    remaining: List[str] = list(names)
    report = FaultSimReport(total_faults=len(remaining))
    for index, pattern in enumerate(patterns):
        hits = detect(pattern, remaining)
        for name in hits:
            report.detected[name] = index
        newly = set(hits)
        if drop_detected:
            remaining = [name for name in remaining if name not in newly]
        report.per_pattern.append(newly)
    return report


class SerialFaultSimulator:
    """Flat, full-knowledge stuck-at fault simulation over one netlist."""

    def __init__(self, netlist: Netlist,
                 fault_list: Optional[FaultList] = None):
        self.netlist = netlist
        self.simulator = NetlistSimulator(netlist)
        self.fault_list = fault_list or build_fault_list(netlist)

    def run(self, patterns: Sequence[Mapping[str, Logic]],
            drop_detected: bool = True) -> FaultSimReport:
        """Simulate every pattern against every remaining fault."""
        return run_campaign(self.fault_list.names(), patterns,
                            self.detecting, drop_detected)

    def detecting(self, pattern: Mapping[str, Logic],
                  names: Sequence[str]) -> List[str]:
        """The subset of ``names`` detected by one pattern, in order."""
        fault_free = self.simulator.outputs(pattern)
        faulty = self.simulator.outputs_for_faults(
            pattern, [self.fault_list.fault(name) for name in names])
        return [name for name, outputs in zip(names, faulty)
                if outputs != fault_free]

    def detects(self, pattern: Mapping[str, Logic],
                fault_name: str) -> bool:
        """Whether one pattern detects one fault (no dropping)."""
        return bool(self.detecting(pattern, (fault_name,)))
