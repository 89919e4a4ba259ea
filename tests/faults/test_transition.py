"""Transition (gross-delay) faults: model, servant, serial vs virtual."""

import random

import pytest

from repro.bench import build_embedded
from repro.core import FaultSimulationError, Logic
from repro.faults import (SerialTransitionSimulator, TransitionFault,
                          TransitionFaultList,
                          TransitionTestabilityServant,
                          VirtualTransitionSimulator,
                          enumerate_transition_faults, reports_agree)
from repro.gates import Netlist, ip1_block, parity_tree


def buffer_netlist():
    netlist = Netlist("buf")
    netlist.add_input("a")
    netlist.add_output("o")
    netlist.add_gate("BUF", ["a"], "o")
    netlist.validate()
    return netlist


class TestModel:
    def test_names(self):
        assert TransitionFault("n1", slow_to_rise=True).name == "n1STR"
        assert TransitionFault("n1", slow_to_rise=False).name == "n1STF"

    def test_equivalent_stuck_at(self):
        str_fault = TransitionFault("n", True)
        assert str_fault.equivalent_stuck_at().value is Logic.ZERO
        stf_fault = TransitionFault("n", False)
        assert stf_fault.equivalent_stuck_at().value is Logic.ONE

    def test_enumeration(self):
        faults = enumerate_transition_faults(buffer_netlist())
        assert {f.name for f in faults} == {"aSTR", "aSTF", "oSTR",
                                            "oSTF"}

    def test_unknown_name(self):
        fault_list = TransitionFaultList("ip", netlist=buffer_netlist())
        with pytest.raises(FaultSimulationError):
            fault_list.fault("ghost")


class TestSerialTransition:
    def test_buffer_pair_detection(self):
        simulator = SerialTransitionSimulator(buffer_netlist())
        # 0 -> 1 launches and detects the slow-to-rise faults.
        report = simulator.run([{"a": Logic.ZERO}, {"a": Logic.ONE}])
        assert "aSTR" in report.detected
        assert "oSTR" in report.detected
        assert "aSTF" not in report.detected

    def test_first_pattern_detects_nothing(self):
        simulator = SerialTransitionSimulator(buffer_netlist())
        report = simulator.run([{"a": Logic.ONE}])
        assert report.detected == {}

    def test_static_sequence_detects_nothing(self):
        simulator = SerialTransitionSimulator(buffer_netlist())
        report = simulator.run([{"a": Logic.ONE}] * 5)
        assert report.detected == {}

    def test_both_polarities_need_both_transitions(self):
        simulator = SerialTransitionSimulator(buffer_netlist())
        report = simulator.run([{"a": Logic.ZERO}, {"a": Logic.ONE},
                                {"a": Logic.ZERO}])
        assert {"aSTR", "aSTF", "oSTR", "oSTF"} <= set(report.detected)
        assert report.coverage == 1.0


class TestServant:
    def test_launch_condition_filters(self):
        netlist = buffer_netlist()
        servant = TransitionTestabilityServant(netlist)
        # previous a=0, current a=1: only STR faults can appear.
        table = servant.detection_table([Logic.ZERO], [Logic.ONE],
                                        servant.fault_list())
        assert table.covered_faults() == frozenset({"aSTR", "oSTR"})

    def test_no_transition_empty_table(self):
        servant = TransitionTestabilityServant(buffer_netlist())
        table = servant.detection_table([Logic.ONE], [Logic.ONE],
                                        servant.fault_list())
        assert table.rows == {}

    def test_arity_check(self):
        servant = TransitionTestabilityServant(ip1_block())
        with pytest.raises(FaultSimulationError):
            servant.detection_table([Logic.ONE], [Logic.ONE, Logic.ZERO],
                                    servant.fault_list())


def transition_experiment(ip_netlist, block_name="IP"):
    """``(experiment, virtual, serial)`` over one embedded IP block."""
    experiment = build_embedded(ip_netlist, block_name=block_name)
    # Rewire for the transition protocol: transition servant on the
    # same netlist, restricted to internal nets like the embedded
    # stuck-at list.
    internal_nets = set(ip_netlist.nets()) - set(ip_netlist.inputs)
    faults = {fault.name: fault
              for fault in enumerate_transition_faults(ip_netlist)
              if fault.net in internal_nets}
    fault_list = TransitionFaultList(ip_netlist.name, faults)
    servant = TransitionTestabilityServant(ip_netlist, fault_list)
    client = experiment.virtual.ip_blocks[0]
    client.stub = servant
    client._table_cache.clear()
    virtual = VirtualTransitionSimulator(
        experiment.virtual.circuit, experiment.virtual.inputs,
        experiment.virtual.outputs, [client])
    serial = SerialTransitionSimulator(
        experiment.serial.netlist,
        TransitionFaultList(ip_netlist.name, faults))
    return experiment, virtual, serial


class TestVirtualTransition:
    make_experiment = staticmethod(transition_experiment)

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_matches_serial_baseline(self, seed):
        from repro.gates import random_netlist
        ip_netlist = random_netlist(4, 12, 2, seed=seed)
        experiment, virtual, serial = self.make_experiment(ip_netlist)
        patterns = experiment.random_patterns(14, seed=seed + 100)
        virtual_report = virtual.run(patterns)
        serial_report = serial.run(
            experiment.patterns_as_logic(patterns))
        assert reports_agree(virtual_report, serial_report,
                             rename=lambda q: q.split(":", 1)[1])

    def test_parity_block_transitions(self):
        experiment, virtual, serial = self.make_experiment(parity_tree(4))
        patterns = experiment.random_patterns(16, seed=5)
        virtual_report = virtual.run(patterns)
        serial_report = serial.run(
            experiment.patterns_as_logic(patterns))
        assert virtual_report.detected_count > 0
        assert reports_agree(virtual_report, serial_report,
                             rename=lambda q: q.split(":", 1)[1])

    def test_table_cache_keys_on_pattern_pair(self):
        experiment, virtual, _serial = self.make_experiment(
            parity_tree(4))
        client = virtual.ip_blocks[0]
        pattern = {name: 1 for name in experiment.input_names}
        other = dict(pattern, i0=0)
        virtual.run([pattern, other, pattern, other, pattern])
        # pairs seen: (p,o), (o,p), (p,o)... -> at most 2 fetches after
        # the first (no-predecessor) pattern.
        assert client.remote_table_fetches <= 2

    def test_disjoint_only_halves_merge_to_the_unsharded_report(self):
        """The shard interface of the stuck-at protocol holds for the
        transition one (it used to die on ``run(..., only=)``)."""
        from repro.parallel import merge_reports
        experiment, virtual, serial = self.make_experiment(parity_tree(4))
        patterns = experiment.random_patterns(16, seed=5)
        whole = virtual.run(patterns)
        names = tuple(virtual.build_fault_list())
        halves = [virtual.run(patterns, only=names[0::2]),
                  virtual.run(patterns, only=names[1::2])]
        assert halves[0].total_faults + halves[1].total_faults \
            == whole.total_faults
        merged = merge_reports(halves)
        assert merged.detected == whole.detected
        assert merged.per_pattern == whole.per_pattern
        assert whole.detected_count > 0
        assert reports_agree(merged, serial.run(
            experiment.patterns_as_logic(patterns)),
            rename=lambda q: q.split(":", 1)[1])
