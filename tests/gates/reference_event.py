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
import random
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.errors import SimulationError
from repro.core.signal import Logic
from repro.gates.netlist import Gate, Netlist
from repro.gates.simulator import EventDrivenState, NetlistSimulator
from repro.power.toggle import PowerModel


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


def _settled(model) -> ReferenceEventDrivenState:
    """The old ``ToggleCountModel._ensure_state`` over the reference wave."""
    if model._state is None:
        model._state = ReferenceEventDrivenState(model.simulator)
        model._state.apply({net: Logic.ZERO for net in model.netlist.inputs})
    return model._state


class ReferenceToggleCountModel(PowerModel):
    """``ToggleCountModel`` as it was: the reference wave, settled at
    all-zero, and the switched energy summed by name over the toggled
    set."""

    def __init__(self, netlist: Netlist, frequency: float = 50e6):
        super().__init__(netlist, frequency)
        self.simulator = NetlistSimulator(netlist)
        self._state = None

    def reset(self) -> None:
        self._state = None

    @property
    def evaluated_gates(self) -> int:
        return self._state.evaluated_gates if self._state else 0

    def energies(self, patterns) -> List[float]:
        return [self.energy_of_pattern(inputs) for inputs in patterns]

    def energy_of_pattern(self, inputs: Dict[str, Logic]) -> float:
        energy = 0.0
        for net in _settled(self).apply(inputs):
            driver = self.netlist.driver_of(net)
            if driver is not None:
                energy += driver.cell.energy
        return energy


class ReferenceSiliconReference(PowerModel):
    """``SiliconReference`` as it was before it read kernel lanes: the
    event wave settled at all-zero, one ``apply`` per pattern and the
    glitch draws over ``sorted(toggled)``.  The body is verbatim; the
    packed model must equal it (``tests/power/test_packed_oracle.py``)."""

    def __init__(self, netlist: Netlist, frequency: float = 50e6,
                 seed: int = 2099, variation: float = 0.18,
                 short_circuit: float = 0.12, glitch: float = 0.25,
                 transition_jitter: float = 0.18,
                 leakage_fj: float = 40.0):
        super().__init__(netlist, frequency)
        self.simulator = NetlistSimulator(netlist)
        self._state: Optional[EventDrivenState] = None
        rng = random.Random(seed)
        self._gate_factor: Dict[str, float] = {
            gate.name: 1.0 + rng.uniform(-variation, variation)
            for gate in netlist.gates
        }
        self.short_circuit = short_circuit
        self.glitch = glitch
        self.transition_jitter = transition_jitter
        self.leakage_fj = leakage_fj
        self._seed = seed
        self._glitch_rng = random.Random(seed + 1)

    def reset(self) -> None:
        """Restart the sequence; silicon replays deterministically."""
        self._state = None
        self._glitch_rng = random.Random(self._seed + 1)

    def _ensure_state(self) -> EventDrivenState:
        if self._state is None:
            self._state = EventDrivenState(self.simulator)
            # Settle at all-zero so the first pattern's energy is the
            # transition from a defined state.
            self._state.apply({net: Logic.ZERO
                               for net in self.netlist.inputs})
        return self._state

    @property
    def evaluated_gates(self) -> int:
        """Gate evaluations performed so far (cost accounting)."""
        return self._state.evaluated_gates if self._state else 0

    def energies(self, patterns: Sequence[Mapping[str, Logic]]
                 ) -> List[float]:
        return [self.energy_of_pattern(inputs) for inputs in patterns]

    def energy_of_pattern(self, inputs: Mapping[str, Logic]) -> float:
        state = self._ensure_state()
        toggled = state.apply(inputs)
        dynamic = 0.0
        for net in sorted(toggled):
            driver = self.netlist.driver_of(net)
            if driver is None:
                continue
            base = driver.cell.energy * self._gate_factor[driver.name]
            base *= 1.0 + self.short_circuit
            if len(driver.inputs) > 1:
                # Glitching: reconvergent multi-input cells occasionally
                # switch more than once per transition.
                base *= 1.0 + self.glitch * self._glitch_rng.random()
            dynamic += base
        # Glitch waves are correlated across the whole array for a given
        # transition; a zero-delay toggle count cannot see them, which is
        # what keeps even the gate-level estimator around the paper's
        # ~10% error band.
        dynamic *= 1.0 + self.transition_jitter * self._glitch_rng.uniform(
            -1.0, 1.0)
        return self.leakage_fj + dynamic
