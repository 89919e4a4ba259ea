"""Transition (gross-delay) faults: the paper's general-fault extension.

The paper notes that "extensions to general fault models ... are also
feasible"; this module provides one: the classic transition fault model
(slow-to-rise / slow-to-fall).  A transition fault on net ``n`` is
detected by a *pattern pair* ``(v1, v2)`` when

* ``v1`` initializes the net to the pre-transition value,
* ``v2`` launches the transition, and
* under ``v2`` the net behaves (for one cycle) as if stuck at the old
  value and that error propagates to a primary output.

The third condition is exactly single-stuck-at detection, so the whole
virtual-protocol machinery (detection tables, injection runs, fault
dropping) is reused; only the launch condition and the two-pattern
bookkeeping are new.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import FaultSimulationError
from ..core.signal import Logic
from ..gates.netlist import Netlist
from ..gates.simulator import NetlistSimulator
from ..rmi.server import current_server_context
from .detection import DetectionTable
from .model import StuckAtFault
from .serial import FaultSimReport, run_campaign
from .virtual import IPBlockClient, VirtualFaultSimulator


@dataclass(frozen=True)
class TransitionFault:
    """A slow-to-rise (STR) or slow-to-fall (STF) fault on a net."""

    net: str
    slow_to_rise: bool

    @property
    def name(self) -> str:
        """``<net>STR`` or ``<net>STF``."""
        return f"{self.net}{'STR' if self.slow_to_rise else 'STF'}"

    @property
    def initial_value(self) -> Logic:
        """The value the net must hold under the initialization pattern."""
        return Logic.ZERO if self.slow_to_rise else Logic.ONE

    def equivalent_stuck_at(self) -> StuckAtFault:
        """The one-cycle stuck-at fault the launch pattern must detect."""
        return StuckAtFault(self.net, self.initial_value)

    def __str__(self) -> str:
        return self.name


def enumerate_transition_faults(netlist: Netlist) -> List[TransitionFault]:
    """Both transition polarities on every net of the netlist."""
    faults: List[TransitionFault] = []
    for net in netlist.nets():
        faults.append(TransitionFault(net, slow_to_rise=True))
        faults.append(TransitionFault(net, slow_to_rise=False))
    return faults


class TransitionFaultList:
    """A component's transition fault list under symbolic names."""

    def __init__(self, component: str,
                 faults: Optional[Mapping[str, TransitionFault]] = None,
                 netlist: Optional[Netlist] = None):
        self.component = component
        if faults is None:
            if netlist is None:
                raise FaultSimulationError(
                    "need either a fault mapping or a netlist")
            faults = {fault.name: fault
                      for fault in enumerate_transition_faults(netlist)}
        self._faults: Dict[str, TransitionFault] = dict(faults)

    def names(self) -> Tuple[str, ...]:
        """Exported symbolic names."""
        return tuple(self._faults)

    def fault(self, name: str) -> TransitionFault:
        """Resolve a symbolic name (provider side)."""
        try:
            return self._faults[name]
        except KeyError:
            raise FaultSimulationError(
                f"component {self.component!r} has no transition fault "
                f"{name!r}") from None

    def __len__(self) -> int:
        return len(self._faults)


class TransitionTestabilityServant:
    """Provider-side servant for the transition-fault protocol.

    ``detection_table`` takes *two* input configurations: the previous
    (initialization) one and the current (launch) one.  A fault appears
    in a row when its launch condition held under the previous pattern
    and its equivalent one-cycle stuck-at error reaches the outputs
    under the current pattern.
    """

    REMOTE_METHODS = ("fault_list", "detection_table")
    __test__ = False  # not a pytest test class despite the name

    def __init__(self, netlist: Netlist,
                 fault_list: Optional[TransitionFaultList] = None,
                 gate_eval_cost: float = 40e-6):
        # Imported lazily: repro.compiled depends on this package.
        from ..compiled import simulator_for
        self.netlist = netlist
        self.faults = fault_list or TransitionFaultList(netlist.name,
                                                        netlist=netlist)
        self.simulator = simulator_for(None, netlist)
        # One stuck-at object per fault: the compiled simulator resolves
        # each fault object's site once and keeps it.
        self._stuck_at: Dict[str, Tuple[TransitionFault, StuckAtFault]] = {}
        for name in self.faults.names():
            fault = self.faults.fault(name)
            self._stuck_at[name] = (fault, fault.equivalent_stuck_at())
        self.gate_eval_cost = gate_eval_cost

    def fault_list(self) -> Tuple[str, ...]:
        """Phase 1: the symbolic transition fault list."""
        return self.faults.names()

    def detection_table(self, previous_bits: Sequence[Logic],
                        current_bits: Sequence[Logic],
                        undetected: Sequence[str]) -> DetectionTable:
        """Phase 2: the two-pattern transition detection table.

        The launched faults' equivalent stuck-at faults run as the
        lanes of one ``detection_outputs`` call, grouped as in
        :func:`~repro.faults.detection.build_detection_table`.
        """
        if len(previous_bits) != len(self.netlist.inputs) or \
                len(current_bits) != len(self.netlist.inputs):
            raise FaultSimulationError(
                f"component {self.netlist.name!r} expects "
                f"{len(self.netlist.inputs)} input bits")
        previous = dict(zip(self.netlist.inputs, previous_bits))
        current = dict(zip(self.netlist.inputs, current_bits))
        initial_values = self.simulator.evaluate(previous)
        launched: List[str] = []
        stuck_at: List[StuckAtFault] = []
        for name in undetected:
            if name not in self._stuck_at:
                self.faults.fault(name)  # refuses the unknown name
            fault, equivalent = self._stuck_at[name]
            if initial_values[fault.net] is fault.initial_value:
                launched.append(name)
                stuck_at.append(equivalent)
        fault_free, outputs = self.simulator.detection_outputs(current,
                                                               stuck_at)
        rows: Dict[Tuple[Logic, ...], set] = {}
        for name, faulty in zip(launched, outputs):
            if faulty is not fault_free:
                rows.setdefault(faulty, set()).add(name)
        context = current_server_context()
        if context is not None:
            context.charge(self.gate_eval_cost * (1 + len(launched))
                           * self.netlist.gate_count())
        input_pattern = tuple(current[net] for net in self.netlist.inputs)
        return DetectionTable(self.netlist.name, input_pattern,
                              fault_free, rows)


class SerialTransitionSimulator:
    """Flat full-knowledge transition-fault simulation (baseline).

    Pattern ``i`` pairs with pattern ``i-1``; the first pattern only
    initializes and detects nothing.
    """

    def __init__(self, netlist: Netlist,
                 fault_list: Optional[TransitionFaultList] = None):
        self.netlist = netlist
        self.simulator = NetlistSimulator(netlist)
        self.fault_list = fault_list or TransitionFaultList(
            netlist.name, netlist=netlist)

    def run(self, patterns: Sequence[Mapping[str, Logic]]
            ) -> FaultSimReport:
        """Simulate consecutive pairs with fault dropping."""
        previous: Optional[Mapping[str, Logic]] = None

        def detect(pattern: Mapping[str, Logic],
                   remaining: Sequence[str]) -> List[str]:
            nonlocal previous
            initialization, previous = previous, pattern
            if initialization is None:
                return []
            initial_values = self.simulator.evaluate(initialization)
            fault_free = self.simulator.outputs(pattern)
            hits = []
            for name in remaining:
                fault = self.fault_list.fault(name)
                if initial_values[fault.net] is not fault.initial_value:
                    continue  # transition not launched by this pair
                faulty = self.simulator.outputs(
                    pattern, fault=fault.equivalent_stuck_at())
                if faulty != fault_free:
                    hits.append(name)
            return hits

        return run_campaign(self.fault_list.names(), patterns, detect)


class VirtualTransitionSimulator(VirtualFaultSimulator):
    """Client side of the transition protocol over the backplane.

    Identical to the stuck-at protocol except that the detection-table
    request carries the block's previous *and* current input
    configurations, and the table cache keys on the pair.
    """

    _previous_bits: Dict[str, Tuple[Logic, ...]]

    def _reset_tables(self) -> None:
        super()._reset_tables()
        self._previous_bits = {}

    def _table_for(self, block: IPBlockClient,
                   input_bits: Tuple[Logic, ...],
                   undetected: Sequence[str]) -> Optional[DetectionTable]:
        previous_bits = self._previous_bits.get(block.name)
        self._previous_bits[block.name] = input_bits
        if previous_bits is None or not all(
                bit.is_known for bit in previous_bits + input_bits):
            return None
        return block.cached_table(
            (previous_bits, input_bits),
            lambda: block.stub.detection_table(
                list(previous_bits), list(input_bits), list(undetected)))
