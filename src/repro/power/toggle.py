"""Gate-level toggle-count power model: the PPP stand-in.

The paper's most accurate power estimator runs PPP, a gate-level power
simulator, on the provider's server, because it needs the IP component's
undisclosed netlist.  Here the same role is played by an event-driven
toggle-count model over our own netlists: per input transition, the
switched energy is the sum of the driving cells' per-toggle energies,
and average power is energy x pattern frequency.

A :class:`SiliconReference` adds the physical effects a pure toggle
count misses (short-circuit currents, glitching, leakage, per-gate
process variation), providing the "true" power against which Table 1's
three estimators are scored.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..core.signal import Logic
from ..gates.netlist import Netlist
from ..gates.simulator import EventDrivenState, NetlistSimulator

FJ_TO_MW = 1e-12
"""fJ per pattern at 1 MHz pattern rate -> mW conversion helper
(energy[fJ] * f[Hz] * 1e-15 gives W; at f = 1e6, mW = fJ * 1e-6).
We keep frequency explicit instead."""


class ToggleCountModel:
    """Event-driven toggle-count power evaluation over a netlist."""

    def __init__(self, netlist: Netlist, frequency: float = 50e6):
        self.netlist = netlist
        self.frequency = frequency
        self.simulator = NetlistSimulator(netlist)
        self._state: Optional[EventDrivenState] = None

    def reset(self) -> None:
        """Forget the previous pattern (start of a new sequence)."""
        self._state = None

    def _ensure_state(self) -> EventDrivenState:
        if self._state is None:
            self._state = EventDrivenState(self.simulator)
            # Settle at all-zero so the first pattern's energy is the
            # transition from a defined state.
            self._state.apply({net: Logic.ZERO
                               for net in self.netlist.inputs})
        return self._state

    def energy_of_pattern(self, inputs: Dict[str, Logic]) -> float:
        """Switched energy (fJ) of transitioning to ``inputs``."""
        state = self._ensure_state()
        state.apply(inputs)
        return state.switched_energy

    def power_of_pattern(self, inputs: Dict[str, Logic]) -> float:
        """Average power (mW) if this transition repeats at ``frequency``."""
        energy_fj = self.energy_of_pattern(inputs)
        return energy_fj * 1e-15 * self.frequency * 1e3

    def power_of_sequence(self, patterns: Sequence[Dict[str, Logic]]
                          ) -> List[float]:
        """Per-pattern power (mW) of a whole stimulus sequence."""
        self.reset()
        return [self.power_of_pattern(pattern) for pattern in patterns]

    @property
    def evaluated_gates(self) -> int:
        """Gate evaluations performed so far (cost accounting)."""
        return self._state.evaluated_gates if self._state else 0


def calibrate_toggle_model(model: ToggleCountModel,
                           reference: "ToggleCountModel",
                           patterns: Sequence[Dict[str, Logic]]) -> float:
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


class SiliconReference(ToggleCountModel):
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
        super().reset()
        self._glitch_rng = random.Random(self._seed + 1)

    def energy_of_pattern(self, inputs: Dict[str, Logic]) -> float:
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
