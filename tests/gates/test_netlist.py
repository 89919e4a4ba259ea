"""Netlist container: structure, validation, levelization, summary."""

import pytest

from repro.core.errors import DesignError
from repro.gates import Netlist, ripple_carry_adder


def tiny():
    netlist = Netlist("tiny")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_gate("AND", ["a", "b"], "n1", name="g1")
    netlist.add_output("o")
    netlist.add_gate("NOT", ["n1"], "o", name="g2")
    netlist.validate()
    return netlist


class TestConstruction:
    def test_duplicate_input(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        with pytest.raises(DesignError):
            netlist.add_input("a")

    def test_duplicate_output(self):
        netlist = Netlist("n")
        netlist.add_output("o")
        with pytest.raises(DesignError):
            netlist.add_output("o")

    def test_two_drivers_rejected(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        netlist.add_gate("BUF", ["a"], "n1")
        with pytest.raises(DesignError, match="two drivers"):
            netlist.add_gate("BUF", ["a"], "n1")

    def test_driving_primary_input_rejected(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        netlist.add_input("b")
        with pytest.raises(DesignError):
            netlist.add_gate("BUF", ["b"], "a")

    def test_arity_checked_at_gate_creation(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        with pytest.raises(DesignError):
            netlist.add_gate("NOT", ["a", "a"], "n1")
        with pytest.raises(DesignError):
            netlist.add_gate("AND", ["a"], "n2")


class TestValidation:
    def test_undriven_gate_input(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        netlist.add_gate("AND", ["a", "ghost"], "n1")
        with pytest.raises(DesignError, match="'ghost'"):
            netlist.validate()

    def test_undriven_output(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        netlist.add_output("o")
        with pytest.raises(DesignError, match="undriven"):
            netlist.validate()

    def test_combinational_loop_detected(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        netlist.add_gate("AND", ["a", "n2"], "n1")
        netlist.add_gate("BUF", ["n1"], "n2")
        with pytest.raises(DesignError, match="loop"):
            netlist.validate()


class TestTopology:
    def test_levelize_is_topological(self):
        netlist = ripple_carry_adder(4)
        position = {gate.name: index
                    for index, gate in enumerate(netlist.levelize())}
        inputs = set(netlist.inputs)
        for gate in netlist.gates:
            for source in gate.inputs:
                if source not in inputs:
                    driver = netlist.driver_of(source)
                    assert position[driver.name] < position[gate.name]

    def test_levelize_result_is_cached(self):
        netlist = ripple_carry_adder(4)
        first = netlist.levelize()
        assert netlist.levelize() is first

    def test_add_gate_invalidates_levelize_cache(self):
        netlist = ripple_carry_adder(2)
        first = netlist.levelize()
        netlist.add_gate("NOT", [netlist.inputs[0]], "extra")
        second = netlist.levelize()
        assert second is not first
        assert len(second) == len(first) + 1

    def test_driver_of(self):
        netlist = tiny()
        assert netlist.driver_of("n1").name == "g1"
        assert netlist.driver_of("a") is None

    def test_fanout_of(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        netlist.add_gate("NOT", ["a"], "n1", name="g1")
        netlist.add_gate("AND", ["a", "n1"], "n2", name="g2")
        readers = netlist.fanout_of("a")
        assert {(gate.name, pin) for gate, pin in readers} == \
            {("g1", 0), ("g2", 0)}

    def test_nets_and_internal_nets(self):
        netlist = tiny()
        assert set(netlist.nets()) == {"a", "b", "n1", "o"}
        assert netlist.internal_nets() == ("n1",)


class TestSummary:
    def test_counts(self):
        netlist = tiny()
        assert netlist.gate_count() == 2
        assert netlist.area == netlist.area  # stable
        assert netlist.area() > 0

    def test_depth(self):
        assert tiny().depth() == 2
        adder = ripple_carry_adder(4)
        assert adder.depth() > 4  # carries ripple

    def test_critical_path_delay_grows_with_width(self):
        assert ripple_carry_adder(8).critical_path_delay() > \
            ripple_carry_adder(2).critical_path_delay()
