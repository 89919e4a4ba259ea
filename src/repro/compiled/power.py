"""Toggle-count power estimation on top of the compiled kernel.

:class:`CompiledToggleModel` is a drop-in for
:class:`~repro.power.toggle.ToggleCountModel`: same constructor, same
``reset`` / ``energy_of_pattern`` / ``power_of_*`` surface, same
toggled-net semantics (a net toggles when its settled value changes
between consecutive patterns, starting from an all-zero settle).  The
settled values come from one straight-line kernel evaluation per
pattern instead of an event-driven wave, so the provider-side PPP
stand-in can ride the ``--engine compiled`` flag too.

Two deliberate, documented divergences from the event-driven model:

* ``evaluated_gates`` counts one full-netlist evaluation per applied
  pattern (the kernel has no partial-cone notion), so virtual-cost
  accounting with a nonzero ``gate_eval_cost`` differs;
* switched energy sums the same per-net energies but possibly in a
  different float accumulation order, so totals agree to float
  round-off, not bit-exactly.
"""

from __future__ import annotations

from typing import Dict, Mapping

from ..core.errors import SimulationError
from ..core.signal import Logic
from ..gates.netlist import Netlist
from ..power.toggle import ToggleCountModel
from .ppsfp import CompiledSimulator


class CompiledToggleModel(ToggleCountModel):
    """Toggle-count power evaluation backed by the compiled kernel."""

    def __init__(self, netlist: Netlist, frequency: float = 50e6):
        super().__init__(netlist, frequency)
        self._compiled = CompiledSimulator(netlist)
        self._prev: Dict[str, Logic] = {}
        self._input_state: Dict[str, Logic] = {}
        self._evaluations = 0

    def reset(self) -> None:
        """Forget the previous pattern (start of a new sequence)."""
        self._prev = {}
        self._input_state = {}

    def _settle(self) -> None:
        if not self._prev:
            self._input_state = {
                net: Logic.ZERO for net in self.netlist.inputs}
            self._prev = self._compiled.evaluate(self._input_state)
            self._evaluations += 1

    def energy_of_pattern(self, inputs: Mapping[str, Logic]) -> float:
        """Switched energy (fJ) of transitioning to ``inputs``."""
        self._settle()
        changed = False
        for net, value in inputs.items():
            if not self.netlist.is_input(net):
                raise SimulationError(f"{net!r} is not a primary input")
            if self._input_state[net] is not value:
                self._input_state[net] = value
                changed = True
        if not changed:
            return 0.0
        values = self._compiled.evaluate(self._input_state)
        self._evaluations += 1
        previous = self._prev
        self._prev = values
        energy = 0.0
        for net, value in values.items():
            if value is not previous[net]:
                driver = self.netlist.driver_of(net)
                if driver is not None:
                    energy += driver.cell.energy
        return energy

    @property
    def evaluated_gates(self) -> int:
        """Gate evaluations performed so far (cost accounting)."""
        return self._evaluations * self._compiled.kernel.gate_count
