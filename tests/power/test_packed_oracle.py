"""The packed power models against their oracle, the event wave.

``ToggleCountModel`` runs a buffer of patterns through the compiled
fault-free kernel, one pattern per lane.  Stepping
``EventDrivenState`` one pattern at a time is what it replaced, and
what it must still equal: per pattern, the switched energy and the
gates the wave evaluates (that count feeds the provider's virtual
clock).  The first pattern of a sequence counts the all-zero settle's
gates too, as the provider always charged it.

``SiliconReference`` reads the same kernel runs and must equal the
wave-stepping body it replaced (``ReferenceSiliconReference``): every
energy, ``evaluated_gates`` and the glitch generator's state after
every block, so the provider's published datasheet cannot move.
"""

import os
import random
import subprocess
import sys
import textwrap
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.core.signal import Logic
from repro.gates import (EventDrivenState, Netlist, NetlistSimulator,
                         array_multiplier, load_bench, random_netlist)
from repro.ip import IPProvider
from repro.power import SiliconReference, ToggleCountModel
from repro.power.activity import pair_activity
from repro.power.constant import operands_to_inputs
from repro.power import toggle
from repro.power.toggle import LANES

from ..gates.reference_event import ReferenceSiliconReference

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def wave(netlist, blocks):
    """(energy, gates) per pattern from the event wave; ``None`` in
    ``blocks`` is a reset."""
    results, state = [], None
    for block in blocks:
        if block is None:
            state = None
            continue
        for pattern in block:
            if state is None:
                state = EventDrivenState(NetlistSimulator(netlist))
                state.apply({net: Logic.ZERO for net in netlist.inputs})
                before = 0
            else:
                before = state.evaluated_gates
            state.apply(pattern)
            results.append((state.switched_energy,
                            state.evaluated_gates - before))
    return results


def packed(netlist, blocks, singles=()):
    """The model's results over ``blocks``; a block whose index is in
    ``singles`` goes one single-pattern call at a time."""
    model, results = ToggleCountModel(netlist), []
    for index, block in enumerate(blocks):
        if block is None:
            model.reset()
        elif index in singles:
            for pattern in block:
                results.extend(model.transitions([pattern]))
        else:
            results.extend(model.transitions(block))
    return results


def random_patterns(inputs, count, seed, known=0.0):
    """Full and partial patterns over all four values, with runs of
    ``X`` <-> ``Z`` flips on the primary inputs.  With probability
    ``known`` a pattern starts a run of one to eight full patterns over
    {0, 1}, which the kernel runs two-valued."""
    rng = random.Random(seed)
    patterns, run = [], 0
    for _ in range(count):
        if known and not run and rng.random() < known:
            run = rng.randint(1, 8)
        if run:
            run -= 1
            pattern = {net: Logic(rng.getrandbits(1)) for net in inputs}
        elif patterns and rng.random() < 0.3:
            swap = {Logic.X: Logic.Z, Logic.Z: Logic.X}
            pattern = {net: swap.get(value, value)
                       for net, value in patterns[-1].items()}
        else:
            pattern = {net: rng.choice(list(Logic)) for net in inputs
                       if rng.random() < 0.9}
        patterns.append(pattern)
    return patterns


def read_twice(netlist):
    """Add gates that read one net on two pins: each must count once
    when that net changes."""
    first, last = netlist.inputs[0], netlist.gates[-1].output
    netlist.add_gate("AND", [first, first], "twice_and", name="twice0")
    netlist.add_gate("XOR", [last, first, last], "twice_xor",
                     name="twice1")


def read_wide(netlist):
    """Add a gate reading every net so far, wider than every other
    gate."""
    nets = [*netlist.inputs, *(gate.output for gate in netlist.gates)]
    netlist.add_gate("OR", (nets * 2)[:max(len(nets), 4)], "wide_or",
                     name="wide0")


def split(patterns, sizes, reset_at):
    blocks, start = [], 0
    for index, size in enumerate(sizes):
        if index == reset_at:
            blocks.append(None)
        blocks.append(patterns[start:start + size])
        start += size
    return blocks


class TestPackedEqualsTheWave:
    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 10_000), inputs=st.integers(1, 6),
           gates=st.integers(1, 40),
           sizes=st.lists(st.one_of(st.sampled_from([1, 63, 64, 200]),
                                    st.integers(1, 70)),
                          min_size=1, max_size=4),
           reset_at=st.one_of(st.none(), st.integers(1, 3)),
           singles=st.sets(st.integers(0, 4)),
           known=st.sampled_from([0.0, 0.3, 1.0]), twice=st.booleans(),
           wide=st.booleans(), pattern_seed=st.integers(0, 2 ** 32))
    def test_on_random_netlists(self, seed, inputs, gates, sizes, reset_at,
                                singles, known, twice, wide, pattern_seed):
        """Runs of full {0, 1} patterns take the kernel's two-valued
        flavour; single-pattern calls among them switch between it and
        X/Z lanes inside one session."""
        netlist = random_netlist(inputs, gates, 3, seed=seed)
        if twice:
            read_twice(netlist)
        if wide:
            read_wide(netlist)
        patterns = random_patterns(netlist.inputs, sum(sizes), pattern_seed,
                                   known)
        blocks = split(patterns, sizes, reset_at)
        # However small the netlist, its widest gates get rows of their
        # own (``_Plan.wide``).
        with mock.patch.object(toggle, "_MATRIX_CELLS",
                               0 if wide else toggle._MATRIX_CELLS):
            assert packed(netlist, blocks, singles) == wave(netlist, blocks)

    def test_mult16_in_blocks_of_1_5_and_20(self):
        netlist = load_bench("mult16")
        rng = random.Random(1)
        patterns = [{net: Logic(rng.getrandbits(1)) for net in netlist.inputs}
                    for _ in range(100)]
        expected = wave(netlist, [patterns])
        for size in (1, 5, 20):
            blocks = [patterns[i:i + size] for i in range(0, 100, size)]
            assert packed(netlist, blocks) == expected

    def test_blocks_longer_than_a_run_chain_through_lane_zero(self):
        netlist = load_bench("c17")
        patterns = random_patterns(netlist.inputs, 3 * LANES + 5, 3)
        assert packed(netlist, [patterns]) == wave(netlist, [patterns])

    def test_a_primary_input_z_x_flip_evaluates_its_readers(self):
        netlist = Netlist("buf")
        netlist.add_input("a")
        netlist.add_output("o")
        netlist.add_gate("BUF", ["a"], "o", name="g")
        netlist.validate()
        steps = [{"a": Logic.X}, {"a": Logic.Z}, {"a": Logic.X},
                 {"a": Logic.X}, {"a": Logic.ONE}]
        assert packed(netlist, [steps]) == wave(netlist, [steps]) == [
            (5.0, 2), (0.0, 1), (0.0, 1), (0.0, 0), (5.0, 1)]

    def test_one_wide_gate_does_not_pad_every_gate(self):
        """``alu32`` has one 32-input NOR among 388 gates of at most four
        distinct inputs: it is read on rows of its own."""
        netlist = load_bench("alu32")
        plan = ToggleCountModel(netlist)._plan
        assert (plan.pins.shape, plan.wide.shape) == ((4, 388), (28, 1))
        patterns = random_patterns(netlist.inputs, 20, 2, known=0.5)
        patterns.append({net: Logic.ONE if net[0] == "b" else Logic.ZERO
                         for net in netlist.inputs})
        # One high result bit at a time: only the NOR's own rows see it.
        patterns += [{f"a{bit}": Logic.ONE} for bit in range(4, 32)]
        expected = wave(netlist, [patterns])
        for size in (1, 7):
            blocks = [patterns[i:i + size]
                      for i in range(0, len(patterns), size)]
            assert packed(netlist, blocks) == expected

    def test_energies_are_floats_and_totals_add_up(self):
        netlist = load_bench("c17")
        patterns = random_patterns(netlist.inputs, 30, 5, known=0.5)
        model = ToggleCountModel(netlist)
        results = model.transitions(patterns)
        results += [result for pattern in patterns
                    for result in model.transitions([pattern])]
        assert all(type(energy) is float and type(gates) is int
                   for energy, gates in results)
        assert model.evaluated_gates == sum(gates for _, gates in results)



def silicon(model, blocks, singles=()):
    """Per block: its energies, then ``evaluated_gates`` and the glitch
    generator's state after it; ``None`` in ``blocks`` is a reset.  A
    block whose index is in ``singles`` goes one ``energy_of_pattern``
    at a time, the others as one ``energies`` buffer."""
    results = []
    for index, block in enumerate(blocks):
        if block is None:
            model.reset()
            continue
        if index in singles:
            energies = [model.energy_of_pattern(p) for p in block]
        else:
            energies = model.energies(block)
        results.append((energies, model.evaluated_gates,
                        model._glitch_rng.getstate()))
    return results


def both_silicons(netlist, blocks, singles=(), seed=2099):
    return (silicon(SiliconReference(netlist, seed=seed), blocks, singles),
            silicon(ReferenceSiliconReference(netlist, seed=seed), blocks,
                    singles))


def training_inputs(width, seed=2099, count=300):
    """``IPProvider.publish_multiplier``'s training sequence."""
    rng = random.Random(seed)
    training = [(rng.getrandbits(width), rng.getrandbits(width))
                for _ in range(count)]
    return training, [operands_to_inputs(p, ("a", "b"), (width, width))
                      for p in training]


class TestPackedSiliconEqualsTheWave:
    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 10_000), inputs=st.integers(1, 6),
           gates=st.integers(1, 40),
           sizes=st.lists(st.one_of(st.sampled_from([1, 63, 64, 200]),
                                    st.integers(1, 70)),
                          min_size=1, max_size=4),
           reset_at=st.one_of(st.none(), st.integers(1, 3)),
           singles=st.sets(st.integers(0, 4)),
           pattern_seed=st.integers(0, 2 ** 32),
           silicon_seed=st.integers(0, 2 ** 16))
    def test_on_random_netlists(self, seed, inputs, gates, sizes, reset_at,
                                singles, pattern_seed, silicon_seed):
        netlist = random_netlist(inputs, gates, 3, seed=seed)
        patterns = random_patterns(netlist.inputs, sum(sizes), pattern_seed)
        packed_runs, wave_runs = both_silicons(
            netlist, split(patterns, sizes, reset_at), singles, silicon_seed)
        assert packed_runs == wave_runs

    def test_mult16_training_sequence_in_any_blocks(self):
        netlist = load_bench("mult16")
        _, inputs = training_inputs(16)
        expected = silicon(ReferenceSiliconReference(netlist), [inputs])
        energies, gates, state = expected[0]
        assert len(energies) == 300 and gates > 0
        for sizes in ([300], [1, 62, 63, 100, 74], [64] * 4 + [44]):
            runs = silicon(SiliconReference(netlist),
                           split(inputs, sizes, None), singles={1})
            assert [e for block, _, _ in runs for e in block] == energies
            assert runs[-1][1:] == (gates, state)

    def test_blocks_longer_than_a_run_chain_through_lane_zero(self):
        netlist = load_bench("c17")
        patterns = random_patterns(netlist.inputs, 3 * LANES + 5, 3)
        packed_runs, wave_runs = both_silicons(
            netlist, [patterns[:LANES + 1], None, patterns], singles={0})
        assert packed_runs == wave_runs

    def test_an_empty_buffer_draws_nothing(self):
        netlist = load_bench("c17")
        patterns = random_patterns(netlist.inputs, 5, 9)
        packed_runs, wave_runs = both_silicons(netlist,
                                               [[], patterns, [], patterns])
        assert packed_runs == wave_runs


def wave_fits(width, seed=2099):
    """``publish_multiplier``'s three fits as they were: each over a
    fresh wave silicon, stepped pattern by pattern.  Returns the
    constant, the regression's intercept and slope, and the toggle
    model's calibration."""
    netlist = array_multiplier(width, name="MultFastLowPower-impl")
    training, inputs = training_inputs(width, seed)

    def wave_powers():
        model = ReferenceSiliconReference(netlist, seed=seed)
        model.reset()
        return [model.power_of_pattern(p) for p in inputs]

    powers = wave_powers()
    constant = sum(powers) / len(powers)
    activities, previous = [], (0, 0)
    for pattern in training:
        activities.append(float(pair_activity(previous, pattern)))
        previous = tuple(pattern)
    design = np.column_stack([np.ones(len(activities)),
                              np.array(activities)])
    (intercept, slope), *_ = np.linalg.lstsq(
        design, np.array(wave_powers()), rcond=None)
    model_powers = ToggleCountModel(netlist).power_of_sequence(inputs)
    reference_powers = ReferenceSiliconReference(
        netlist, seed=seed).power_of_sequence(inputs)
    model_mean = sum(model_powers) / len(model_powers)
    reference_mean = sum(reference_powers) / len(reference_powers)
    return (constant, float(intercept), float(slope),
            reference_mean / model_mean)


@pytest.mark.parametrize("width", [8, 16])
def test_the_published_datasheet_equals_the_wave_fits(width):
    provider = IPProvider()
    name = provider.publish_multiplier(width)
    sheet = provider.catalog.describe(name)
    calibration = provider.server.registry.lookup(
        f"{name}.power").servant.calibration
    assert (sheet["power_constant_mw"], sheet["linreg_intercept"],
            sheet["linreg_slope"], calibration) == wave_fits(width)

@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc")
class TestFootprint:
    def test_power_compiles_a_small_good_kernel_only(self):
        """The chunked ``run_good`` compiles in a few megabytes where one
        straight line of ``mult16`` took about 65, and a power model
        never builds ``run_fault``.  The peak is ``VmHWM``, not
        ``ru_maxrss``: the latter keeps the forking test runner's peak
        across ``exec`` and would hide the growth."""
        script = textwrap.dedent("""
            from repro.core.signal import Logic
            from repro.gates import load_bench
            from repro.power import ToggleCountModel

            def peak_kb():
                with open("/proc/self/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            return int(line.split()[1])

            netlist = load_bench("mult16")
            netlist.levelize()
            before = peak_kb()
            model = ToggleCountModel(netlist)
            model.power_of_pattern({net: Logic.ONE
                                    for net in netlist.inputs})
            print(bool({"_fault2", "_fault3"} & vars(model.kernel).keys()),
                  (peak_kb() - before) / 1024)
        """)
        result = subprocess.run([sys.executable, "-c", script], text=True,
                                capture_output=True,
                                env={**os.environ, "PYTHONPATH": SRC})
        assert result.returncode == 0, result.stderr
        built, grown_mb = result.stdout.split()
        assert built == "False"
        assert float(grown_mb) < 8.0
