"""Detection tables, compiled against interpreted: equal tables, equal
bytes on the wire.

The compiled builder (``CompiledSimulator.detection_outputs``) unpacks
only the (lane, output) bits a fault changed and gives every other
lane the fault-free tuple itself; the interpreted one
(``NetlistSimulator``) simulates each fault whole.  Both must build the
same :class:`DetectionTable` and marshal it to the same bytes, over
{0, 1, X, Z} inputs, a primary input echoed as an output, faults
spread over several hooked runs, and the extremes where no fault or
every fault reaches an output.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import build_embedded
from repro.compiled import CompiledSimulator, ppsfp
from repro.core import Logic
from repro.faults import (SerialTransitionSimulator, TransitionFaultList,
                          TransitionTestabilityServant,
                          VirtualTransitionSimulator, build_fault_list,
                          enumerate_transition_faults, reports_agree)
from repro.faults.detection import _table_to_wire, build_detection_table
from repro.gates import Netlist, NetlistSimulator, parity_tree
from repro.gates.generators import random_netlist
from repro.rmi.marshal import marshal

LOGIC = st.sampled_from(list(Logic))


def assert_same_tables(netlist, fault_list, stimulus, only=None):
    """Both engines' tables for one stimulus; returns the compiled one."""
    interpreted = build_detection_table(netlist, fault_list, stimulus,
                                        only=only)
    compiled = build_detection_table(netlist, fault_list, stimulus,
                                     only=only,
                                     simulator=CompiledSimulator(netlist))
    assert compiled == interpreted
    assert marshal(_table_to_wire(compiled)) \
        == marshal(_table_to_wire(interpreted))
    return compiled


def echo_netlist():
    """``y = AND(a, b)`` with the primary input ``a`` also an output: an
    undriven ``a`` echoes ``Z`` where the kernel sees ``X``."""
    netlist = Netlist("echo")
    for net in ("a", "b"):
        netlist.add_input(net)
    netlist.add_gate("AND", ["a", "b"], "y", name="g0")
    netlist.add_output("y")
    netlist.add_output("a")
    netlist.validate()
    return netlist


class TestCompiledEqualsInterpreted:
    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(2, 6, 1), (4, 20, 3), (5, 30, 4)]),
           seed=st.integers(0, 10_000), data=st.data())
    def test_random_netlists_with_unknown_inputs(self, shape, seed, data):
        netlist = random_netlist(*shape, seed=seed)
        fault_list = build_fault_list(netlist, collapse="none")
        stimulus = {net: data.draw(LOGIC) for net in netlist.inputs}
        assert_same_tables(netlist, fault_list, stimulus)

    @pytest.mark.parametrize("bits", [(a, b) for a in Logic for b in Logic],
                             ids=lambda bits: "-".join(b.name for b in bits))
    def test_an_echoed_input(self, bits):
        netlist = echo_netlist()
        fault_list = build_fault_list(netlist, collapse="none")
        table = assert_same_tables(netlist, fault_list,
                                   dict(zip(netlist.inputs, bits)))
        assert table.fault_free[1] is bits[0]  # the raw echo, Z too

    def test_an_echoed_z_is_no_detection(self):
        """With ``a`` undriven, a fault that moves only ``y`` keeps the
        ``Z`` echo in its row, and a fault that moves neither output
        is in no row."""
        netlist = echo_netlist()
        fault_list = build_fault_list(netlist, collapse="none")
        table = assert_same_tables(netlist, fault_list,
                                   {"a": Logic.Z, "b": Logic.ONE})
        assert table.fault_free == (Logic.X, Logic.Z)
        assert table.rows[(Logic.ONE, Logic.Z)] == {"ysa1"}
        assert "bsa1" not in table.covered_faults()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_rows_spanning_hooked_runs(self, seed, data):
        """Eight lanes a run: a table's faults spread over several
        runs, and equal rows of different runs still merge."""
        netlist = random_netlist(4, 24, 3, seed=seed)
        fault_list = build_fault_list(netlist, collapse="none")
        assert len(fault_list) > 3 * 8
        stimulus = {net: data.draw(LOGIC) for net in netlist.inputs}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ppsfp, "SUPERWORD_BITS", 8)
            assert_same_tables(netlist, fault_list, stimulus)

    def test_no_fault_detected(self):
        """``y = AND(a, b)`` at ``a = b = 0``: only ``y`` stuck at one
        reaches the output, so the other five make an empty table."""
        netlist = Netlist("and2")
        for net in ("a", "b"):
            netlist.add_input(net)
        netlist.add_gate("AND", ["a", "b"], "y", name="g0")
        netlist.add_output("y")
        netlist.validate()
        fault_list = build_fault_list(netlist, collapse="none")
        only = [name for name in fault_list.names() if name != "ysa1"]
        table = assert_same_tables(
            netlist, fault_list, {"a": Logic.ZERO, "b": Logic.ZERO},
            only=only)
        assert table.rows == {}

    @pytest.mark.parametrize("lanes", [8, ppsfp.SUPERWORD_BITS])
    def test_every_fault_detected(self, lanes):
        """In an XOR tree every fault whose stuck value differs from
        its net's fault-free value reaches the output."""
        netlist = parity_tree(16)
        fault_list = build_fault_list(netlist, collapse="none")
        rng = random.Random(lanes)
        stimulus = {net: Logic(rng.getrandbits(1))
                    for net in netlist.inputs}
        good = NetlistSimulator(netlist).evaluate(stimulus)
        only = [name for name in fault_list.names()
                if fault_list.fault(name).value
                is not good[fault_list.fault(name).net]]
        assert len(only) > 2 * 8
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ppsfp, "SUPERWORD_BITS", lanes)
            table = assert_same_tables(netlist, fault_list, stimulus,
                                       only=only)
        assert table.covered_faults() == set(only)


def test_transition_campaign_matches_its_serial_oracle():
    """Figure 5 over the transition protocol: the client's touched-output
    check and changed-port injection reproduce the flat serial report."""
    ip_netlist = random_netlist(6, 40, 5, seed=11)
    experiment = build_embedded(ip_netlist, block_name="IP")
    internal = set(ip_netlist.nets()) - set(ip_netlist.inputs)
    faults = {fault.name: fault
              for fault in enumerate_transition_faults(ip_netlist)
              if fault.net in internal}
    client = experiment.virtual.ip_blocks[0]
    client.stub = TransitionTestabilityServant(
        ip_netlist, TransitionFaultList(ip_netlist.name, faults))
    virtual = VirtualTransitionSimulator(
        experiment.virtual.circuit, experiment.virtual.inputs,
        experiment.virtual.outputs, [client])
    serial = SerialTransitionSimulator(
        experiment.serial.netlist,
        TransitionFaultList(ip_netlist.name, faults))
    patterns = experiment.random_patterns(24, seed=3)
    virtual_report = virtual.run(patterns)
    serial_report = serial.run(experiment.patterns_as_logic(patterns))
    assert virtual_report.detected
    assert reports_agree(virtual_report, serial_report,
                         rename=lambda name: name.split(":", 1)[1])
