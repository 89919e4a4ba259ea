"""The transition servant's detection table as it was before it ran on
the compiled kernel, kept verbatim as the golden reference.

One interpreted ``NetlistSimulator.outputs(current, fault=...)`` per
launched fault.  The compiled body (one ``detection_outputs`` call over
the launched faults' equivalent stuck-at faults) must build these
tables and charge these evaluations (``test_transition.py``).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.core.errors import FaultSimulationError
from repro.core.signal import Logic
from repro.faults.detection import DetectionTable
from repro.faults.transition import TransitionTestabilityServant
from repro.gates.simulator import NetlistSimulator
from repro.rmi.server import current_server_context


class ReferenceTransitionServant(TransitionTestabilityServant):
    """``TransitionTestabilityServant`` over the interpreted simulator."""

    def __init__(self, netlist, fault_list=None, gate_eval_cost=40e-6):
        super().__init__(netlist, fault_list, gate_eval_cost)
        self.simulator = NetlistSimulator(netlist)

    def detection_table(self, previous_bits: Sequence[Logic],
                        current_bits: Sequence[Logic],
                        undetected: Sequence[str]) -> DetectionTable:
        """Phase 2: the two-pattern transition detection table."""
        if len(previous_bits) != len(self.netlist.inputs) or \
                len(current_bits) != len(self.netlist.inputs):
            raise FaultSimulationError(
                f"component {self.netlist.name!r} expects "
                f"{len(self.netlist.inputs)} input bits")
        previous = dict(zip(self.netlist.inputs, previous_bits))
        current = dict(zip(self.netlist.inputs, current_bits))
        initial_values = self.simulator.evaluate(previous)
        fault_free = self.simulator.outputs(current)
        rows: Dict[Tuple[Logic, ...], set] = {}
        evaluations = 1
        for name in undetected:
            fault = self.faults.fault(name)
            if initial_values[fault.net] is not fault.initial_value:
                continue  # transition not launched by this pair
            faulty = self.simulator.outputs(
                current, fault=fault.equivalent_stuck_at())
            evaluations += 1
            if faulty != fault_free:
                rows.setdefault(faulty, set()).add(name)
        context = current_server_context()
        if context is not None:
            context.charge(self.gate_eval_cost * evaluations
                           * self.netlist.gate_count())
        input_pattern = tuple(current[net] for net in self.netlist.inputs)
        return DetectionTable(self.netlist.name, input_pattern,
                              fault_free, rows)
