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
It reports exactly what stepping the interpreted event wave
(:mod:`repro.gates.simulator`) one pattern at a time would -- the same
energies and the same per-pattern count of gates the wave evaluates,
which feeds the provider's virtual clock -- and the wave stays in the
tests as its oracle.

A :class:`SiliconReference` adds the physical effects a pure toggle
count misses (short-circuit currents, glitching, leakage, per-gate
process variation), providing the "true" power against which Table 1's
three estimators are scored.  It reads the same kernel lanes: its
seeded glitch draws follow each transition's toggled gate-driven nets
in name order (the wave's ``sorted(toggled)``), which the toggle words
give exactly, so it equals the wave too.
"""

from __future__ import annotations

import random
from array import array
from functools import cached_property, lru_cache
from typing import (Any, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from ..compiled import CompiledKernel, compile_netlist
from ..core.errors import SimulationError, check_positive
from ..core.signal import Logic
from ..gates.netlist import Netlist

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
        check_positive("frequency", frequency)
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
    """Per net: the driving cell's energy per toggle x ``scale``, a
    whole number held as a float (sums of them are exact below 2**53)."""
    scale: int
    """A power of two making every cell energy a whole number: a sum of
    such numbers is exact in any order, so it equals the wave's."""
    pins: np.ndarray
    """Row ``k``, column ``j``: the ``k``-th distinct input net of the
    ``j``-th gate by descending fan-in (only counts of gates are read,
    in no order)."""
    wide: np.ndarray
    """The remaining rows of the first ``wide.shape[1]`` gates, those
    wider than ``pins`` has rows: a few very wide gates (``alu32``'s
    32-input NOR) do not pad every other gate to their width."""


_MATRIX_CELLS = 4096
"""What ``wide`` costs (three more whole-array calls) in gathered cells
of ``pins``: ``alu32``'s one 32-input NOR gets rows of its own,
``ecc32``'s 33 six-input gates do not."""


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
    reads = sorted((list(dict.fromkeys(number[source]
                                       for source in gate.inputs))
                    for gate in order), key=len, reverse=True)
    widest = len(reads[0]) if reads else 1

    def cost(rows: int) -> int:
        wider = sum(len(read) > rows for read in reads)
        return (rows * len(reads) + (widest - rows) * wider
                + (_MATRIX_CELLS if wider else 0))

    rows = min(range(1, widest + 1), key=cost)
    return _Plan(inputs, frozenset(inputs),
                 np.array([energy * scale for energy in energies],
                          np.float64),
                 scale, _pin_rows(reads, range(rows)),
                 _pin_rows([read for read in reads if len(read) > rows],
                           range(rows, widest)))


def _pin_rows(reads: List[List[int]], rows: range) -> np.ndarray:
    """Rows ``rows`` of a pins x gates matrix: a gate with fewer pins
    repeats its first (OR-ing it twice changes nothing)."""
    return np.array([[read[k] if k < len(read) else read[0]
                      for read in reads] for k in rows],
                    np.intp).reshape(len(rows), len(reads))


_DIGITS = tuple(bytes.maketrans(b"\0\1\2\3", digits)
                for digits in (b"0100", b"1100", b"0001"))
"""Per plane (value, care, ``Z``): each :class:`Logic` code's bit as a
binary digit."""

_BYTE_LANES = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                            axis=1, bitorder="little").astype(np.int64)
"""Row ``b``: the eight lane bits of byte value ``b``."""


@lru_cache(maxsize=1 << 12)
def _column(values: Tuple[Logic, ...]) -> Tuple[int, int, int]:
    """One input's value, care and ``Z`` words, bit ``i`` from
    ``values[i]``.  Runs repeat columns (a two-lane run has at most 16
    kinds), so each is packed once."""
    lanes = bytes(values)[::-1]
    value, care, z = (int(lanes.translate(digits), 2) for digits in _DIGITS)
    return value, care, z


def _lane_sums(words: np.ndarray, weights: Optional[np.ndarray],
               lanes: int) -> List[Any]:
    """Per lane ``0 .. lanes - 1``: how many ``words`` have its bit set,
    or with ``weights`` the sum of theirs.

    One histogram of each byte of lanes over its 256 values, which
    ``_BYTE_LANES`` spreads over its eight lanes.
    """
    octets = words.view(np.uint8).reshape(-1, 8)
    return np.concatenate([
        np.bincount(octets[:, byte], weights, 256) @ _BYTE_LANES
        for byte in range((lanes + 7) // 8)])[:lanes].tolist()


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
            toggles, gates = self._run(lead + block)
            self.evaluated_gates += sum(gates)
            if len(lead) == 2:
                gates[2] += gates[1]
            energies = self._energies(toggles, len(lead),
                                      len(lead) + len(block))
            results.extend(zip(energies, gates[len(lead):]))
            self._previous = block[-1]
        return results

    def _energies(self, toggles: np.ndarray, first: int, lanes: int
                  ) -> List[float]:
        """Switched energy of lanes ``first`` .. ``lanes - 1``."""
        plan = self._plan
        return [energy / plan.scale for energy in
                _lane_sums(toggles, plan.units, lanes)[first:]]

    def _run(self, lanes: Sequence[Tuple[Logic, ...]]
             ) -> Tuple[np.ndarray, List[int]]:
        """One kernel run: every net's toggle word (bit ``i``: lane
        ``i`` differs from lane ``i - 1``; bit 0 clear) and each lane's
        gate count."""
        plan = self._plan
        # Per input, its (value, care, Z) words; none without inputs.
        iv, ic, iz = list(zip(*map(_column, zip(*lanes)))) or [()] * 3
        words = self.kernel.run_good(iv, ic)
        # Every word fits 64 bits: one buffer copy, no per-word call.
        planes = np.frombuffer(array("Q", words), np.uint64)
        planes = planes ^ (planes << _ONE)
        toggles = planes[0::2] | planes[1::2]  # value or care flips
        # The kernel packs Z like X; a primary input's Z <-> X still
        # changes its value, so its readers still evaluate.
        z = np.array(iz, _WORD)
        toggles[:len(z)] |= z ^ (z << _ONE)
        toggles &= np.uint64(((1 << len(lanes)) - 1) & ~1)
        read = np.bitwise_or.reduce(toggles[plan.pins], axis=0)
        if plan.wide.size:
            read[:plan.wide.shape[1]] |= np.bitwise_or.reduce(
                toggles[plan.wide], axis=0)
        return toggles, _lane_sums(read, None, len(lanes))


def calibrate_toggle_model(model: PowerModel,
                           reference_powers: Sequence[float],
                           patterns: Sequence[Mapping[str, Logic]]) -> float:
    """Provider-side calibration of the toggle model against silicon.

    Gate-level toggle counting tracks data-dependent activity but has a
    systematic bias against measured power (short-circuit currents,
    glitching).  Providers remove the bias by scaling with the ratio of
    mean measured to mean estimated power over a training sequence;
    ``reference_powers`` is the silicon's power of each of ``patterns``
    (its :meth:`~PowerModel.power_of_sequence`).  The returned scale
    multiplies the model's raw output.
    """
    model_powers = model.power_of_sequence(patterns)
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

    Transitions come off the toggle model's kernel runs; per lane, the
    toggled gate-driven nets are walked in name order, each drawing its
    glitch in turn, then the transition draws its jitter.  Draws and
    float additions happen in the order of the event wave's
    ``sorted(toggled)`` walk, so energies equal it exactly.
    ``evaluated_gates`` counts from the last :meth:`reset`.
    """

    def __init__(self, netlist: Netlist, frequency: float = 50e6,
                 seed: int = 2099, variation: float = 0.18,
                 short_circuit: float = 0.12, glitch: float = 0.25,
                 transition_jitter: float = 0.18,
                 leakage_fj: float = 40.0):
        for name, value in (("variation", variation),
                            ("short_circuit", short_circuit),
                            ("glitch", glitch),
                            ("transition_jitter", transition_jitter),
                            ("leakage_fj", leakage_fj)):
            check_positive(name, value, zero=True)
        super().__init__(netlist, frequency)
        rng = random.Random(seed)
        gate_factor: Dict[str, float] = {
            gate.name: 1.0 + rng.uniform(-variation, variation)
            for gate in netlist.gates
        }
        self.short_circuit = short_circuit
        self.glitch = glitch
        self.transition_jitter = transition_jitter
        self.leakage_fj = leakage_fj
        self._seed = seed
        self._glitch_rng = random.Random(seed + 1)
        # Gate-driven nets in name order: their kernel net numbers, each
        # driver's switched energy with variation and short circuit, and
        # whether it glitches (more than one input pin).
        order = netlist.levelize()
        first = len(self._plan.inputs)
        nets, bases, glitches = [], [], []
        for index in sorted(range(len(order)),
                            key=lambda index: order[index].output):
            gate = order[index]
            base = gate.cell.energy * gate_factor[gate.name]
            base *= 1.0 + short_circuit
            nets.append(first + index)
            bases.append(base)
            glitches.append(len(gate.inputs) > 1)
        self._by_name = np.array(nets, np.intp)
        self._bases: List[float] = bases
        self._glitches: List[bool] = glitches

    def reset(self) -> None:
        """Restart the sequence; silicon replays deterministically."""
        super().reset()
        self.evaluated_gates = 0
        self._glitch_rng = random.Random(self._seed + 1)

    def _energies(self, toggles: np.ndarray, first: int, lanes: int
                  ) -> List[float]:
        bits = _lane_bits(toggles[self._by_name], lanes).T
        bases, glitches = self._bases, self._glitches
        draw, jitter = self._glitch_rng.random, self._glitch_rng.uniform
        energies: List[float] = []
        for lane in range(first, lanes):
            dynamic = 0.0
            for index in np.flatnonzero(bits[lane]).tolist():
                base = bases[index]
                if glitches[index]:
                    # Glitching: reconvergent multi-input cells
                    # occasionally switch more than once per transition.
                    base *= 1.0 + self.glitch * draw()
                dynamic += base
            # Glitch waves are correlated across the whole array for a
            # given transition; a zero-delay toggle count cannot see
            # them, which is what keeps even the gate-level estimator
            # around the paper's ~10% error band.
            dynamic *= 1.0 + self.transition_jitter * jitter(-1.0, 1.0)
            energies.append(self.leakage_fj + dynamic)
        return energies
