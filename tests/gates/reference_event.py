"""The event wave ``repro.gates.simulator.EventDrivenState`` ran before
it became integer-indexed, kept verbatim as the golden reference.

A heap of ``(level, name)`` tuples over a dirty-gate dict, one
``note_change`` closure call per written net, ``cell.evaluate(*pins)``
per gate.  Slow and obviously right, which is the point: the integer
wave must report these toggled sets, these net values and this
``evaluated_gates`` count (``test_event_reference.py``), because gate
evaluations feed the virtual clock and toggles feed Table 2's powers.
``Netlist.reader_gates()`` / ``gate_levels()`` went with the old wave;
the two private builders below are their bodies.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Set, Tuple

from repro.core.errors import SimulationError
from repro.core.signal import Logic
from repro.gates.netlist import Gate, Netlist
from repro.gates.simulator import NetlistSimulator
from repro.power.toggle import SiliconReference, ToggleCountModel


def _reader_gates(netlist: Netlist) -> Mapping[str, Tuple[Gate, ...]]:
    """Every net's reading gates, one entry per reading pin."""
    return {net: tuple(gate for gate, _pin in netlist.fanout_of(net))
            for net in netlist.nets()}


def _gate_levels(netlist: Netlist) -> Mapping[str, int]:
    """Each gate name's position in the levelized order."""
    return {gate.name: index
            for index, gate in enumerate(netlist.levelize())}


class ReferenceEventDrivenState:
    """Incremental event-driven evaluation state over one netlist."""

    def __init__(self, simulator: NetlistSimulator):
        self.simulator = simulator
        self.netlist = simulator.netlist
        self._values: Dict[str, Logic] = {
            net: Logic.X for net in self.netlist.nets()}
        self.evaluated_gates = 0
        self._readers = _reader_gates(self.netlist)
        self._gate_level = _gate_levels(self.netlist)

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


def _settled(model: ToggleCountModel) -> ReferenceEventDrivenState:
    """``ToggleCountModel._ensure_state`` over the reference wave."""
    if model._state is None:
        model._state = ReferenceEventDrivenState(model.simulator)
        model._state.apply({net: Logic.ZERO for net in model.netlist.inputs})
    return model._state


class ReferenceToggleCountModel(ToggleCountModel):
    """``ToggleCountModel`` as it was: the reference wave, and the
    switched energy summed by name over the toggled set."""

    def energy_of_pattern(self, inputs: Dict[str, Logic]) -> float:
        energy = 0.0
        for net in _settled(self).apply(inputs):
            driver = self.netlist.driver_of(net)
            if driver is not None:
                energy += driver.cell.energy
        return energy


class ReferenceSiliconReference(SiliconReference):
    """``SiliconReference`` (body unchanged) over the reference wave."""

    def _ensure_state(self) -> ReferenceEventDrivenState:
        return _settled(self)
