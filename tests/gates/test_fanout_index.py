"""The netlist's derived cache: fan-out index, invalidation, linear builds.

``fanout_of`` used to scan every gate on every call, which made each of
its per-net callers (fault-list build, event-state build, kernel
compile) quadratic.  The property below pins the index to that scan;
the call-count guard pins the callers to a bounded number of pin-list
reads per gate, whatever the netlist's size.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import CompiledKernel
from repro.core.signal import Logic
from repro.faults import build_fault_list
from repro.gates import (EventDrivenState, NetlistSimulator, load_bench,
                         random_netlist)
from repro.gates.netlist import Gate


def scanned_fanout(netlist, net):
    """The pre-index implementation: every gate, every pin, every call."""
    return tuple((gate, pin) for gate in netlist.gates
                 for pin, source in enumerate(gate.inputs) if source == net)


def assert_index_matches_scan(netlist):
    nets = netlist.nets()
    assert nets == netlist.inputs + tuple(g.output for g in netlist.gates)
    for net in nets + ("no-such-net",):
        assert netlist.fanout_of(net) == scanned_fanout(netlist, net)
        assert netlist.has_net(net) == (net in nets)
        assert netlist.is_input(net) == (net in netlist.inputs)


class TestIndexedFanout:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), inputs=st.integers(1, 6),
           gates=st.integers(1, 30), picks=st.data())
    def test_equals_the_gate_scan_before_and_after_add_gate(
            self, seed, inputs, gates, picks):
        netlist = random_netlist(inputs, gates, 2, seed=seed)
        assert_index_matches_scan(netlist)
        before = netlist.gates
        sources = [picks.draw(st.sampled_from(netlist.nets()))
                   for _ in range(2)]
        added = netlist.add_gate("AND", sources, "extra", name="extra_gate")
        assert netlist.gates == before + (added,)
        assert (added, 0) in netlist.fanout_of(sources[0])
        assert_index_matches_scan(netlist)

    def test_add_input_and_add_output_invalidate_too(self):
        netlist = random_netlist(2, 3, 1, seed=1)
        assert not netlist.is_input("late")
        netlist.add_input("late")
        assert netlist.is_input("late") and netlist.has_net("late")
        assert netlist.inputs[-1] == netlist.nets()[2] == "late"
        outputs = netlist.outputs
        netlist.add_output("n0")
        assert netlist.outputs == outputs + ("n0",)

    def test_accessors_hand_out_the_shared_tuples(self):
        netlist = load_bench("c17")
        assert netlist.gates is netlist.gates
        assert netlist.inputs is netlist.inputs
        assert netlist.nets() is netlist.nets()

    def test_states_of_one_netlist_share_one_event_table(self):
        netlist = load_bench("c17")
        table = netlist.event_table()
        first = EventDrivenState(NetlistSimulator(netlist))
        second = EventDrivenState(NetlistSimulator(netlist))
        assert netlist.event_table() is table  # the states built no other
        first.apply({net: Logic.ONE for net in netlist.inputs})
        assert second.values == {net: Logic.X for net in netlist.nets()}
        assert first.values != second.values
        netlist.add_output(netlist.internal_nets()[0])
        assert netlist.event_table() is not table  # any add_* drops it

    def test_pickling_ships_no_derived_tables(self):
        netlist = load_bench("c17")
        netlist.event_table()
        clone = pickle.loads(pickle.dumps(netlist))
        assert clone._derived == {}
        assert [g.name for g in clone.levelize()] == \
            [g.name for g in netlist.levelize()]
        assert clone.event_table() == netlist.event_table()


class _CountedPins:
    """Data descriptor standing in for ``Gate.inputs``: counts reads."""

    def __init__(self):
        self.reads = 0

    def __get__(self, gate, owner=None):
        if gate is None:
            return self
        self.reads += 1
        return gate.__dict__["inputs"]

    def __set__(self, gate, value):
        gate.__dict__["inputs"] = value


BUILDS = {
    "build_fault_list": build_fault_list,
    "EventDrivenState": lambda netlist: EventDrivenState(
        NetlistSimulator(netlist)),
    "kernel compile": CompiledKernel,
}


class TestBuildsAreLinearInGates:
    @pytest.mark.parametrize("what", sorted(BUILDS))
    def test_pin_reads_per_gate_do_not_grow_with_the_netlist(
            self, what, monkeypatch):
        """A counter, not a timer: the scan read every gate's pins once
        per net (1444 x ~4.5k on mult16), the index reads them once."""
        per_gate = {}
        for bench in ("mult8", "mult16"):
            netlist = load_bench(bench)
            counter = _CountedPins()
            monkeypatch.setattr(Gate, "inputs", counter, raising=False)
            BUILDS[what](netlist)
            monkeypatch.undo()
            per_gate[bench] = counter.reads / netlist.gate_count()
        assert per_gate["mult8"] >= 1
        assert per_gate["mult16"] <= 1.25 * per_gate["mult8"]
        assert per_gate["mult16"] <= 8
