"""Gate-level toggle-count power model: the PPP stand-in.

The paper's most accurate power estimator runs PPP, a gate-level power
simulator, on the provider's server, because it needs the IP component's
undisclosed netlist.  Here the same role is played by a toggle-count
model over our own netlists: per input transition, the switched energy
is the sum of the driving cells' per-toggle energies over the nets that
change, and average power is energy x pattern frequency.

:class:`ToggleCountModel` evaluates a whole buffer of patterns in one
run of the compiled fault-free kernel (:mod:`repro.compiled`), one
pattern per bit lane, and reads every transition off adjacent lanes.
It reports exactly what stepping
:class:`~repro.gates.simulator.EventDrivenState` one pattern at a time
would -- the same energies and the same per-pattern count of gates the
event wave evaluates, which feeds the provider's virtual clock -- and
the wave stays in the tests as its oracle.

A :class:`SiliconReference` adds the physical effects a pure toggle
count misses (short-circuit currents, glitching, leakage, per-gate
process variation), providing the "true" power against which Table 1's
three estimators are scored.  It keeps its own event-driven state: its
seeded glitch draws follow the wave's toggled nets one by one.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..compiled import CompiledKernel, compile_netlist
from ..core.errors import SimulationError
from ..core.signal import Logic
from ..gates.netlist import Netlist
from ..gates.simulator import EventDrivenState, NetlistSimulator

FJ_TO_MW = 1e-12
"""fJ per pattern at 1 MHz pattern rate -> mW conversion helper
(energy[fJ] * f[Hz] * 1e-15 gives W; at f = 1e6, mW = fJ * 1e-6).
We keep frequency explicit instead."""

LANES = 64
"""Lanes per kernel run: one ``uint64`` word per net.  Lane 0 holds the
pattern before the run's first one, so longer buffers chain runs."""

_WORD = np.dtype("<u8")
_ONE = np.uint64(1)


class PowerModel:
    """A per-pattern switched-energy model over a pattern sequence.

    Subclasses remember the last pattern (consecutive patterns are what
    switch) and supply :meth:`reset` and :meth:`energies`; the power
    helpers are shared.
    """

    def __init__(self, netlist: Netlist, frequency: float = 50e6):
        self.netlist = netlist
        self.frequency = frequency

    def reset(self) -> None:
        """Forget the previous pattern (start of a new sequence)."""
        raise NotImplementedError

    def energies(self, patterns: Sequence[Mapping[str, Logic]]
                 ) -> List[float]:
        """Switched energy (fJ) of each transition, in order."""
        raise NotImplementedError

    def energy_of_pattern(self, inputs: Mapping[str, Logic]) -> float:
        """Switched energy (fJ) of transitioning to ``inputs``."""
        return self.energies([inputs])[0]

    def power_of_energy(self, energy_fj: float) -> float:
        """Average power (mW) of a transition repeating at ``frequency``."""
        return energy_fj * 1e-15 * self.frequency * 1e3

    def power_of_pattern(self, inputs: Mapping[str, Logic]) -> float:
        """Average power (mW) if this transition repeats at ``frequency``."""
        return self.power_of_energy(self.energy_of_pattern(inputs))

    def power_of_sequence(self, patterns: Sequence[Mapping[str, Logic]]
                          ) -> List[float]:
        """Per-pattern power (mW) of a whole stimulus sequence."""
        self.reset()
        return [self.power_of_energy(energy)
                for energy in self.energies(patterns)]


class _Plan(NamedTuple):
    """What the packed model reads off a kernel run, per netlist.

    Nets are numbered as in the kernel: inputs, then gate outputs in
    levelized order (so gate ``g`` drives net ``len(inputs) + g``).
    """

    inputs: Tuple[str, ...]
    input_set: frozenset
    units: np.ndarray
    """Per net: the driving cell's energy per toggle x ``scale``."""
    scale: int
    """A power of two making every cell energy an integer: a sum of
    such energies is exact in any order, so it equals the wave's."""
    pins: np.ndarray
    """Every gate's distinct input nets, gate after gate."""
    starts: np.ndarray
    """Each gate's first entry in ``pins``."""


def _plan(netlist: Netlist) -> _Plan:
    netlist.validate()
    order = netlist.levelize()
    inputs = netlist.inputs
    number = {net: index for index, net in enumerate(inputs)}
    number.update((gate.output, len(inputs) + index)
                  for index, gate in enumerate(order))
    energies = [0.0] * len(inputs) + [gate.cell.energy for gate in order]
    scale = max(energy.as_integer_ratio()[1] for energy in energies) \
        if energies else 1
    pins: List[int] = []
    starts: List[int] = []
    for gate in order:
        starts.append(len(pins))
        pins.extend(dict.fromkeys(number[source] for source in gate.inputs))
    return _Plan(inputs, frozenset(inputs),
                 np.array([int(energy * scale) for energy in energies],
                          np.int64),
                 scale, np.array(pins, np.intp), np.array(starts, np.intp))


def _lane_bits(words: np.ndarray, lanes: int) -> np.ndarray:
    """One row per word, one 0/1 column per lane."""
    return np.unpackbits(words.view(np.uint8).reshape(-1, 8), axis=1,
                         count=lanes, bitorder="little")


class ToggleCountModel(PowerModel):
    """Packed toggle-count power evaluation over a netlist.

    ``evaluated_gates`` counts what the event wave would have evaluated
    so far: per transition, every gate with a changed input, once.
    """

    def __init__(self, netlist: Netlist, frequency: float = 50e6):
        super().__init__(netlist, frequency)
        self._plan: _Plan = netlist._cached("toggle_plan",
                                            lambda: _plan(netlist))
        self.evaluated_gates = 0
        self._previous: Optional[Tuple[Logic, ...]] = None

    @cached_property
    def kernel(self) -> CompiledKernel:
        """Taken from the process-wide cache on first use."""
        return compile_netlist(self.netlist)

    def reset(self) -> None:
        self._previous = None

    def energies(self, patterns: Sequence[Mapping[str, Logic]]
                 ) -> List[float]:
        return [energy for energy, _ in self.transitions(patterns)]

    def transitions(self, patterns: Sequence[Mapping[str, Logic]]
                    ) -> List[Tuple[float, int]]:
        """``(switched energy fJ, gates evaluated)`` per pattern.

        A pattern may name only some inputs; the rest keep their value.
        The first pattern of a sequence moves from the all-``X`` state
        through an all-zero settle, and its gate count includes the
        settle's.  Every pattern is checked before any is applied, so
        a rejected buffer leaves the sequence where it was.
        """
        plan = self._plan
        rows: List[Tuple[Logic, ...]] = []
        row = self._previous or (Logic.ZERO,) * len(plan.inputs)
        for inputs in patterns:
            if not inputs.keys() <= plan.input_set:
                bad = next(net for net in inputs if net not in plan.input_set)
                raise SimulationError(f"{bad!r} is not a primary input")
            row = tuple(map(inputs.get, plan.inputs, row))
            rows.append(row)
        results: List[Tuple[float, int]] = []
        while len(results) < len(rows):
            if self._previous is None:
                lead = [(Logic.X,) * len(plan.inputs),
                        (Logic.ZERO,) * len(plan.inputs)]
            else:
                lead = [self._previous]
            block = rows[len(results):len(results) + LANES - len(lead)]
            energies, gates = self._run(lead + block)
            self.evaluated_gates += sum(gates)
            if len(lead) == 2:
                gates[2] += gates[1]
            results.extend(zip(energies[len(lead):], gates[len(lead):]))
            self._previous = block[-1]
        return results

    def _run(self, lanes: Sequence[Tuple[Logic, ...]]
             ) -> Tuple[List[float], List[int]]:
        """Energy and gate count of each lane's move from the lane
        before it (zero for lane 0), from one kernel run."""
        plan = self._plan
        count = len(plan.inputs)
        iv, ic, iz = [0] * count, [0] * count, [0] * count
        for lane, row in enumerate(lanes):
            bit = 1 << lane
            for index, value in enumerate(row):
                if value is Logic.ONE:
                    iv[index] |= bit
                    ic[index] |= bit
                elif value is Logic.ZERO:
                    ic[index] |= bit
                elif value is Logic.Z:
                    iz[index] |= bit
        words = self.kernel.run_good(iv, ic)
        planes = np.fromiter(words, _WORD, len(words))
        value, care = planes[0::2], planes[1::2]
        # Bit i of a net's toggle word: lane i differs from lane i - 1.
        toggles = (value ^ (value << _ONE)) | (care ^ (care << _ONE))
        # The kernel packs Z like X; a primary input's Z <-> X still
        # changes its value, so its readers still evaluate.
        z = np.array(iz, _WORD)
        toggles[:count] |= z ^ (z << _ONE)
        toggles &= np.uint64(((1 << len(lanes)) - 1) & ~1)
        energies = (plan.units @ _lane_bits(toggles, len(lanes))) / plan.scale
        if len(plan.starts):
            read = np.bitwise_or.reduceat(toggles[plan.pins], plan.starts)
            gates = _lane_bits(read, len(lanes)).sum(axis=0).tolist()
        else:
            gates = [0] * len(lanes)
        return energies.tolist(), gates


def calibrate_toggle_model(model: PowerModel, reference: PowerModel,
                           patterns: Sequence[Mapping[str, Logic]]) -> float:
    """Provider-side calibration of the toggle model against silicon.

    Gate-level toggle counting tracks data-dependent activity but has a
    systematic bias against measured power (short-circuit currents,
    glitching).  Providers remove the bias by scaling with the ratio of
    mean measured to mean estimated power over a training sequence; the
    returned scale multiplies the model's raw output.
    """
    model_powers = model.power_of_sequence(patterns)
    reference_powers = reference.power_of_sequence(patterns)
    model_mean = sum(model_powers) / len(model_powers)
    reference_mean = sum(reference_powers) / len(reference_powers)
    if model_mean == 0.0:
        return 1.0
    return reference_mean / model_mean


class SiliconReference(PowerModel):
    """The "true" power: toggle count plus second-order physical effects.

    Adds, deterministically from ``seed``:

    * a per-gate process-variation factor on switched energy,
    * a short-circuit contribution proportional to switched energy,
    * input-slope-dependent glitch energy on multi-input cells,
    * a constant leakage floor.

    The gate-level toggle-count estimator approximates this closely but
    not exactly (the paper's 10% average error band); the regression and
    constant estimators sit progressively further away.
    """

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
