"""Golden-reference differential: the integer-indexed event wave against
the name-keyed one it replaced (``reference_event.py``).

Gate evaluations feed the virtual clock and toggles feed Table 2's
powers, so after every ``apply`` the two must agree on the toggled set,
every net value, the primary outputs and ``evaluated_gates``; and the
two power models built on the wave must agree on every energy.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.core.signal import Logic
from repro.gates import (EventDrivenState, Netlist, NetlistSimulator,
                         load_bench, random_netlist)
from repro.power import SiliconReference, ToggleCountModel

from .reference_event import (ReferenceEventDrivenState,
                              ReferenceSiliconReference,
                              ReferenceToggleCountModel)

logic_values = st.sampled_from(list(Logic))

BENCHES = ("c17", "mult8", "alu32")
"""2-input only, 1-/2-input, and 3-/4-/32-input gates (the ``evaluate``
fallback) respectively."""


def same_net_twice() -> Netlist:
    """Every cell, with one net on two pins of one gate."""
    netlist = Netlist("twice")
    netlist.add_input("a")
    netlist.add_input("b")
    for index, cell in enumerate(("AND", "OR", "NAND", "NOR", "XOR",
                                  "XNOR")):
        netlist.add_gate(cell, ["a", "a"], f"d{index}")
        netlist.add_gate(cell, [f"d{index}", "b", f"d{index}"], f"t{index}")
        netlist.add_output(f"t{index}")
    netlist.add_gate("NOT", ["t0"], "n")
    netlist.add_gate("BUF", ["n"], "o")
    netlist.add_output("o")
    netlist.validate()
    return netlist


def stimuli(netlist):
    """A sequence of partial and full input maps over all four values."""
    partial = st.dictionaries(st.sampled_from(netlist.inputs), logic_values)
    full = st.fixed_dictionaries({net: logic_values
                                  for net in netlist.inputs})
    return st.lists(st.one_of(partial, full), min_size=1, max_size=8)


def assert_same_run(netlist, steps):
    simulator = NetlistSimulator(netlist)
    fast = EventDrivenState(simulator)
    slow = ReferenceEventDrivenState(simulator)
    for step in steps:
        assert fast.apply(step) == slow.apply(step)
        assert fast.values == slow.values
        assert list(fast.values) == list(slow.values)  # nets() order
        assert all(fast.value_of(net) is value
                   for net, value in slow.values.items())
        assert fast.output_values() == slow.output_values()
        assert fast.evaluated_gates == slow.evaluated_gates


class TestWaveEqualsTheReference:
    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000), inputs=st.integers(1, 6),
           gates=st.integers(1, 40), picks=st.data())
    def test_on_random_netlists(self, seed, inputs, gates, picks):
        netlist = random_netlist(inputs, gates, 3, seed=seed)
        assert_same_run(netlist, picks.draw(stimuli(netlist)))

    @settings(deadline=None)
    @given(picks=st.data())
    def test_with_one_net_on_two_pins_of_a_gate(self, picks):
        netlist = same_net_twice()
        assert_same_run(netlist, picks.draw(stimuli(netlist)))

    @pytest.mark.parametrize("bench", BENCHES)
    @settings(max_examples=10, deadline=None)
    @given(picks=st.data())
    def test_on_the_corpus(self, bench, picks):
        netlist = load_bench(bench)
        assert_same_run(netlist, picks.draw(stimuli(netlist)))

    def test_the_corpus_reaches_every_evaluation_path(self):
        pins = {len(row[0]): row[2] is not None for bench in BENCHES
                for row in load_bench(bench).event_table().rows}
        assert pins[1] and pins[2]            # truth-table lookups
        assert {3, 4, 32} <= set(pins)        # ... and evaluate(*pins)
        assert not (pins[3] or pins[4] or pins[32])


class TestModelEnergiesEqualTheReference:
    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000), gates=st.integers(1, 40),
           words=st.lists(st.integers(0, 2 ** 6 - 1), min_size=1,
                          max_size=8))
    def test_on_random_netlists(self, seed, gates, words):
        self.check(random_netlist(6, gates, 3, seed=seed), words)

    @pytest.mark.parametrize("bench", BENCHES)
    def test_on_the_corpus(self, bench):
        netlist = load_bench(bench)
        rng = random.Random(7)
        self.check(netlist, [rng.getrandbits(len(netlist.inputs))
                             for _ in range(6)])

    @staticmethod
    def check(netlist, words):
        patterns = [{net: Logic((word >> bit) & 1)
                     for bit, net in enumerate(netlist.inputs)}
                    for word in words]
        for fast, slow in ((ToggleCountModel, ReferenceToggleCountModel),
                           (SiliconReference, ReferenceSiliconReference)):
            fast, slow = fast(netlist), slow(netlist)
            energies = [fast.energy_of_pattern(p) for p in patterns]
            assert energies == [slow.energy_of_pattern(p) for p in patterns]
            assert all(type(energy) is float for energy in energies)
            assert fast.evaluated_gates == slow.evaluated_gates


class TestPinnedWorkCounts:
    """Counts, not timings: they bind on any runner speed.  Recorded
    from the name-keyed wave at the commit before the integer one."""

    TOGGLED = [305, 420, 418, 384, 526, 494, 396, 519, 537, 642, 645, 486]
    ENERGY_FJ = [3619.0, 4946.0, 4765.5, 4373.5, 5698.0, 5341.0, 4536.0,
                 5531.0, 5765.0, 6815.5, 6769.5, 5281.0]
    EVALUATED_GATES = 11808

    def test_mult16_toggle_model_over_a_seeded_sequence(self):
        netlist = load_bench("mult16")
        rng = random.Random(21)
        patterns = []
        for _ in self.TOGGLED:
            word = rng.getrandbits(len(netlist.inputs))
            patterns.append({net: Logic((word >> bit) & 1)
                             for bit, net in enumerate(netlist.inputs)})
        model = ToggleCountModel(netlist)
        assert [model.energy_of_pattern(p) for p in patterns] \
            == self.ENERGY_FJ
        assert model.evaluated_gates == self.EVALUATED_GATES
        # The model's state, rebuilt by hand: settled at all-zero.
        state = EventDrivenState(NetlistSimulator(netlist))
        state.apply({net: Logic.ZERO for net in netlist.inputs})
        assert [len(state.apply(p)) for p in patterns] == self.TOGGLED
        assert state.evaluated_gates == self.EVALUATED_GATES


class TestApplyIsAtomic:
    """A rejected ``apply`` used to keep the writes made before the bad
    key and drop the wave they queued, and nothing later repaired it."""

    def and_gate(self):
        netlist = Netlist("and")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_output("o")
        netlist.add_gate("AND", ["a", "b"], "o")
        netlist.validate()
        return netlist

    @pytest.mark.parametrize("bad", ["o", "no-such-net"])
    def test_a_rejected_apply_changes_nothing(self, bad):
        simulator = NetlistSimulator(self.and_gate())
        state = EventDrivenState(simulator)
        state.apply({"a": Logic.ZERO, "b": Logic.ONE})
        values, evaluated = state.values, state.evaluated_gates
        with pytest.raises(SimulationError, match="not a primary input"):
            state.apply({"a": Logic.ONE, bad: Logic.ONE})
        assert state.values == values
        assert state.evaluated_gates == evaluated
        assert state.apply({"a": Logic.ONE}) == {"a", "o"}
        assert state.values == simulator.evaluate(
            {"a": Logic.ONE, "b": Logic.ONE})
