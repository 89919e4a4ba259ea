"""The packed toggle model against its oracle, the event wave.

``ToggleCountModel`` runs a buffer of patterns through the compiled
fault-free kernel, one pattern per lane.  Stepping
``EventDrivenState`` one pattern at a time is what it replaced, and
what it must still equal: per pattern, the switched energy and the
gates the wave evaluates (that count feeds the provider's virtual
clock).  The first pattern of a sequence counts the all-zero settle's
gates too, as the provider always charged it.
"""

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signal import Logic
from repro.gates import (EventDrivenState, Netlist, NetlistSimulator,
                         load_bench, random_netlist)
from repro.power import ToggleCountModel
from repro.power.toggle import LANES

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


def packed(netlist, blocks):
    model, results = ToggleCountModel(netlist), []
    for block in blocks:
        if block is None:
            model.reset()
        else:
            results.extend(model.transitions(block))
    return results


def random_patterns(inputs, count, seed):
    """Full and partial patterns over all four values, with runs of
    ``X`` <-> ``Z`` flips on the primary inputs."""
    rng = random.Random(seed)
    patterns = []
    for _ in range(count):
        if patterns and rng.random() < 0.3:
            swap = {Logic.X: Logic.Z, Logic.Z: Logic.X}
            pattern = {net: swap.get(value, value)
                       for net, value in patterns[-1].items()}
        else:
            pattern = {net: rng.choice(list(Logic)) for net in inputs
                       if rng.random() < 0.9}
        patterns.append(pattern)
    return patterns


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
           pattern_seed=st.integers(0, 2 ** 32))
    def test_on_random_netlists(self, seed, inputs, gates, sizes, reset_at,
                                pattern_seed):
        netlist = random_netlist(inputs, gates, 3, seed=seed)
        patterns = random_patterns(netlist.inputs, sum(sizes), pattern_seed)
        blocks = split(patterns, sizes, reset_at)
        assert packed(netlist, blocks) == wave(netlist, blocks)

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

    def test_energies_are_floats_and_totals_add_up(self):
        netlist = load_bench("c17")
        patterns = random_patterns(netlist.inputs, 30, 5)
        model = ToggleCountModel(netlist)
        results = model.transitions(patterns)
        assert all(type(energy) is float for energy, _ in results)
        assert model.evaluated_gates == sum(gates for _, gates in results)


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
