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


def _stem_forces(fault: Any, net: str) -> bool:
    return fault is not None and fault.is_stem and fault.net == net


def _branch_forces(fault: Any, gate: Gate, pin: int) -> bool:
    return (fault is not None and not fault.is_stem
            and fault.gate_name == gate.name and fault.pin == pin)


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
        values: Dict[str, Logic] = {}
        for net in self.netlist.inputs:
            try:
                value = input_values[net]
            except KeyError:
                raise SimulationError(
                    f"missing value for primary input {net!r}") from None
            if _stem_forces(fault, net):
                value = fault.value
            values[net] = value
        for gate in self._order:
            pins = []
            for pin, source in enumerate(gate.inputs):
                value = values[source]
                if _branch_forces(fault, gate, pin):
                    value = fault.value
                pins.append(value)
            output = gate.cell.evaluate(*pins)
            if _stem_forces(fault, gate.output):
                output = fault.value
            values[gate.output] = output
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
    accounting).
    """

    def __init__(self, simulator: NetlistSimulator):
        self.simulator = simulator
        self.netlist = simulator.netlist
        self._values: Dict[str, Logic] = {
            net: Logic.X for net in self.netlist.nets()}
        self.evaluated_gates = 0
        # The netlist's shared tables: a state owns only its values.
        self._readers = self.netlist.reader_gates()
        self._gate_level = self.netlist.gate_levels()

    @property
    def values(self) -> Dict[str, Logic]:
        """Current value of every net."""
        return dict(self._values)

    def value_of(self, net: str) -> Logic:
        """Current value of a single net."""
        return self._values[net]

    def output_values(self) -> Tuple[Logic, ...]:
        """Current primary-output values, in declaration order."""
        return tuple(self._values[net] for net in self.netlist.outputs)

    def apply(self, input_changes: Mapping[str, Logic]) -> Set[str]:
        """Apply new input values; return the set of nets that toggled."""
        toggled: Set[str] = set()
        dirty_gates: Dict[str, Gate] = {}
        # Level-keyed heap over the dirty set: popping the lowest-level
        # gate first guarantees every driver settles before its readers,
        # so each gate is evaluated at most once per wave.  The dict
        # doubles as the membership test that keeps heap entries unique.
        wave: List[Tuple[int, str]] = []
        levels = self._gate_level

        def note_change(net: str, value: Logic) -> None:
            if self._values[net] is value:
                return
            self._values[net] = value
            toggled.add(net)
            for gate in self._readers[net]:
                if gate.name not in dirty_gates:
                    dirty_gates[gate.name] = gate
                    heapq.heappush(wave, (levels[gate.name], gate.name))

        is_input = self.netlist.is_input
        for net, value in input_changes.items():
            if not is_input(net):
                raise SimulationError(f"{net!r} is not a primary input")
            note_change(net, value)

        while wave:
            _, name = heapq.heappop(wave)
            gate = dirty_gates.pop(name, None)
            if gate is None:  # pragma: no cover - defensive
                continue
            pins = [self._values[source] for source in gate.inputs]
            self.evaluated_gates += 1
            note_change(gate.output, gate.cell.evaluate(*pins))
        return toggled
