"""Netlist simulators: levelized full evaluation and event-driven updates.

Both simulators support single stuck-at fault injection through a
duck-typed fault object (see :class:`repro.faults.model.StuckAtFault`)
exposing ``is_stem``, ``net``, ``gate_name``, ``pin`` and ``value``.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Mapping, Sequence, Set, Tuple

from ..core.errors import SimulationError
from ..core.signal import Logic
from .netlist import Gate, Netlist


def input_value(input_values: Mapping[str, Logic], net: str) -> Logic:
    """``input_values[net]``, or the error every engine raises when a
    primary input is missing or not a :class:`Logic` value."""
    try:
        value = input_values[net]
    except KeyError:
        raise SimulationError(
            f"missing value for primary input {net!r}") from None
    if type(value) is not Logic:
        raise SimulationError(
            f"primary input {net!r} is {value!r}, not a Logic value")
    return value


class NetlistSimulator:
    """Levelized (full-evaluation) simulator for a combinational netlist."""

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self._order: Tuple[Gate, ...] = netlist.levelize()

    def evaluate(self, input_values: Mapping[str, Logic],
                 fault: Any = None) -> Dict[str, Logic]:
        """Evaluate every net for the given primary-input values.

        ``fault``, when given, injects a single stuck-at fault (stem or
        branch).  Returns a dict of all net values.
        """
        # Resolve the fault once: the net a stem fault forces, or the
        # (gate name, pin) a branch fault forces; None matches no name.
        stem = branch_gate = None
        if fault is not None:
            if fault.is_stem:
                stem = fault.net
            else:
                branch_gate = fault.gate_name
        values: Dict[str, Logic] = {}
        for net in self.netlist.inputs:
            value = input_value(input_values, net)
            values[net] = fault.value if net == stem else value
        for gate in self._order:
            pins = [values[source] for source in gate.inputs]
            if gate.name == branch_gate and 0 <= fault.pin < len(pins):
                pins[fault.pin] = fault.value
            output = gate.cell.evaluate(*pins)
            values[gate.output] = (fault.value if gate.output == stem
                                   else output)
        return values

    def outputs(self, input_values: Mapping[str, Logic],
                fault: Any = None) -> Tuple[Logic, ...]:
        """Primary-output values only, in declaration order."""
        values = self.evaluate(input_values, fault=fault)
        return tuple(values[net] for net in self.netlist.outputs)

    def outputs_for_faults(self, input_values: Mapping[str, Logic],
                           faults: Sequence[Any]
                           ) -> List[Tuple[Logic, ...]]:
        """Faulty primary outputs of one input pattern, one per fault."""
        return [self.outputs(input_values, fault=fault) for fault in faults]

    def detection_outputs(self, input_values: Mapping[str, Logic],
                          faults: Sequence[Any]
                          ) -> Tuple[Tuple[Logic, ...],
                                     List[Tuple[Logic, ...]]]:
        """The fault-free primary outputs and each fault's; a fault that
        leaves them unchanged gets the fault-free tuple itself."""
        fault_free = self.outputs(input_values)
        return fault_free, [
            fault_free if faulty == fault_free else faulty
            for faulty in self.outputs_for_faults(input_values, faults)]

    def evaluate_int(self, input_word: int,
                     fault: Any = None) -> Dict[str, Logic]:
        """Evaluate from an integer whose bit ``i`` drives input ``i``."""
        inputs = {
            net: Logic((input_word >> i) & 1)
            for i, net in enumerate(self.netlist.inputs)
        }
        return self.evaluate(inputs, fault=fault)


class EventDrivenState:
    """Incremental event-driven evaluation state over one netlist.

    After :meth:`apply`, only the fan-out cone of the changed inputs is
    re-evaluated, and the set of nets that actually toggled is returned.
    This mirrors the backplane's event-driven semantics at the netlist
    level and provides the toggle stream consumed by the gate-level power
    estimator; ``evaluated_gates`` counts the work done (for virtual CPU
    accounting) and ``switched_energy`` is the sum of the driving cells'
    per-toggle energies (fJ) over the nets the last ``apply`` toggled.

    The wave runs on the netlist's shared :class:`EventTable`, where
    nets and gates are ints; a state owns only its list of values.
    """

    def __init__(self, simulator: NetlistSimulator):
        self.simulator = simulator
        self.netlist = simulator.netlist
        self._table = table = self.netlist.event_table()
        self._values: List[Logic] = [Logic.X] * len(table.names)
        self.evaluated_gates = 0
        self.switched_energy = 0.0

    @property
    def values(self) -> Dict[str, Logic]:
        """Current value of every net."""
        return dict(zip(self._table.names, self._values))

    def value_of(self, net: str) -> Logic:
        """Current value of a single net."""
        return self._values[self._table.net_id[net]]

    def output_values(self) -> Tuple[Logic, ...]:
        """Current primary-output values, in declaration order."""
        return tuple(self._values[net] for net in self._table.outputs)

    def apply(self, input_changes: Mapping[str, Logic]) -> Set[str]:
        """Apply new input values; return the set of nets that toggled.

        A key that is not a primary input raises before anything is
        written, so a rejected call leaves the state as it was.
        """
        names, net_id, n_inputs, _, rows, readers, energy = self._table
        for net in input_changes:
            if net_id.get(net, n_inputs) >= n_inputs:
                raise SimulationError(f"{net!r} is not a primary input")
        values, push, pop = self._values, heapq.heappush, heapq.heappop
        # A heap of gate indices: a gate's index is its levelized
        # position, so popping the smallest settles every driver before
        # its readers and evaluates each gate at most once per wave.
        # The ``queued`` flags keep heap entries unique.
        wave: List[int] = []
        queued = bytearray(len(rows))
        changed: List[int] = []
        for name, value in input_changes.items():
            net = net_id[name]
            if values[net] is not value:
                values[net] = value
                changed.append(net)
                for reader in readers[net]:
                    if not queued[reader]:
                        queued[reader] = 1
                        push(wave, reader)
        evaluated = 0
        while wave:
            gate = pop(wave)
            queued[gate] = 0
            pins, net, table, evaluate = rows[gate]
            evaluated += 1
            if table is None:
                value = evaluate(*[values[pin] for pin in pins])
            elif len(pins) == 2:
                value = table[values[pins[0]]][values[pins[1]]]
            else:
                value = table[values[pins[0]]]
            if values[net] is not value:
                values[net] = value
                changed.append(net)
                for reader in readers[net]:
                    if not queued[reader]:
                        queued[reader] = 1
                        push(wave, reader)
        self.evaluated_gates += evaluated
        self.switched_energy = sum(map(energy.__getitem__, changed), 0.0)
        return {names[net] for net in changed}
