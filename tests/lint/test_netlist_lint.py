"""Netlist lint: a netlist's own findings (undriven nets, loops) and
phantom fault sites."""

import os

import pytest

from repro.core.errors import DesignError
from repro.core.signal import Logic
from repro.faults.faultlist import FaultList, build_fault_list
from repro.faults.model import StuckAtFault
from repro.gates.io import c17, read_bench
from repro.gates.netlist import Netlist
from repro.lint import lint_fault_list
from repro.lint.runner import run_lint

DATA = os.path.join(os.path.dirname(__file__), "data")


def load_fixture(name):
    with open(os.path.join(DATA, name)) as handle:
        return read_bench(handle.read(), name=name, validate=False)


def codes(findings):
    return sorted(f.code for f in findings)


class TestCleanNetlists:
    def test_c17_is_clean(self):
        assert c17().findings() == ()

    def test_valid_fault_list_is_clean(self):
        netlist = c17()
        assert lint_fault_list(build_fault_list(netlist), netlist) == []


class TestCombinationalLoop:
    def test_jcd006_names_the_cycle(self):
        findings = load_fixture("loop.bench").findings()
        [loop] = [f for f in findings if f.code == "JCD006"]
        assert "q -> " in loop.message and "-> q" in loop.message

    def test_loop_built_in_memory(self):
        netlist = Netlist("ring")
        netlist.add_input("a")
        netlist.add_gate("AND", ["a", "r"], "q")
        netlist.add_gate("BUF", ["q"], "r")
        netlist.add_output("q")
        assert "JCD006" in codes(netlist.findings())


class TestUndrivenNets:
    def test_jcd007_reports_every_site(self):
        findings = load_fixture("undriven.bench").findings()
        undriven = [f for f in findings if f.code == "JCD007"]
        messages = " | ".join(f.message for f in undriven)
        assert "ghost" in messages          # phantom gate input
        assert "'z' is undriven" in messages  # phantom primary output
        assert len(undriven) == 2

    def test_run_lint_dispatches_netlists(self):
        findings = run_lint(load_fixture("undriven.bench"))
        assert "JCD007" in codes(findings)


class TestFaultSites:
    def test_jcd008_unknown_net(self):
        netlist = c17()
        faults = FaultList("c17", {
            "bogus": StuckAtFault("no_such_net", Logic.ZERO)})
        findings = lint_fault_list(faults, netlist)
        assert codes(findings) == ["JCD008"]
        assert "no_such_net" in findings[0].message

    def test_jcd008_unknown_gate(self):
        netlist = c17()
        faults = FaultList("c17", {
            "bogus": StuckAtFault("1", Logic.ONE, gate_name="g99",
                                  pin=0)})
        findings = lint_fault_list(faults, netlist)
        assert codes(findings) == ["JCD008"]
        assert "g99" in findings[0].message

    def test_jcd008_pin_out_of_range(self):
        netlist = c17()
        gate = netlist.gates[0]
        faults = FaultList("c17", {
            "bogus": StuckAtFault(gate.inputs[0], Logic.ONE,
                                  gate_name=gate.name, pin=7)})
        findings = lint_fault_list(faults, netlist)
        assert codes(findings) == ["JCD008"]
        assert "pin 7" in findings[0].message

    def test_jcd008_pin_reads_other_net(self):
        netlist = c17()
        gate = netlist.gates[0]
        other = next(n for n in netlist.nets()
                     if n not in gate.inputs)
        faults = FaultList("c17", {
            "bogus": StuckAtFault(other, Logic.ONE,
                                  gate_name=gate.name, pin=0)})
        findings = lint_fault_list(faults, netlist)
        assert codes(findings) == ["JCD008"]

    def test_run_lint_accepts_fault_list(self):
        netlist = c17()
        faults = FaultList("c17", {
            "bogus": StuckAtFault("nowhere", Logic.ZERO)})
        assert "JCD008" in codes(run_lint(netlist, fault_list=faults))


class TestLevelizeDiagnostic:
    """Satellite: the levelize error names the actual cycle."""

    def test_loop_error_names_cycle(self):
        netlist = Netlist("ring")
        netlist.add_input("a")
        netlist.add_gate("AND", ["a", "r"], "q")
        netlist.add_gate("BUF", ["q"], "r")
        netlist.add_output("q")
        with pytest.raises(DesignError, match="combinational "
                                              "loop: .*q.*->.*q"):
            netlist.levelize()

    def test_finder_returns_none_on_clean(self):
        assert c17().find_combinational_cycle() is None

    def test_finder_cycle_is_closed_and_alternating(self):
        netlist = Netlist("ring")
        netlist.add_input("a")
        netlist.add_gate("AND", ["a", "r"], "q")
        netlist.add_gate("BUF", ["q"], "r")
        netlist.add_output("q")
        cycle = netlist.find_combinational_cycle()
        assert cycle[0] == cycle[-1]
        gates = {g.name for g in netlist.gates}
        kinds = ["gate" if item in gates else "net" for item in cycle]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))

    def test_fixture_loop_path_is_pinned(self):
        cycle = load_fixture("loop.bench").find_combinational_cycle()
        assert cycle == ["q", "g1_r", "r", "g0_q", "q"]

    def test_self_loop_behind_a_gate_is_closed(self):
        """Reached through another gate's output, a gate reading its own
        output is the whole loop (the recursive finder returned the
        walk that led there, unclosed)."""
        netlist = Netlist("self")
        netlist.add_input("a")
        netlist.add_gate("NOT", ["a"], "x")
        netlist.add_gate("AND", ["x", "q"], "q")
        assert netlist.find_combinational_cycle() == ["q", "g1_q", "q"]


DEPTH = 2000


def buffer_chain(depth):
    """``a -> c1 -> ... -> c<depth>``, one BUF per link."""
    netlist = Netlist("chain")
    netlist.add_input("a")
    previous = "a"
    for index in range(1, depth + 1):
        netlist.add_gate("BUF", [previous], f"c{index}")
        previous = f"c{index}"
    netlist.add_output(previous)
    return netlist


class TestDeepNetlists:
    """The cycle finder walks with an explicit stack: its depth is not
    bounded by the interpreter's recursion limit."""

    def test_a_deep_clean_chain_has_no_findings(self):
        netlist = buffer_chain(DEPTH)
        assert netlist.find_combinational_cycle() is None
        assert netlist.findings() == ()
        netlist.validate()

    def test_a_loop_behind_a_deep_chain_is_named(self):
        netlist = buffer_chain(DEPTH)
        netlist.add_gate("AND", [f"c{DEPTH}", "r"], "q")
        netlist.add_gate("BUF", ["q"], "r")
        with pytest.raises(DesignError,
                           match="combinational loop: q -> .* -> q$"):
            netlist.validate()
        [loop] = netlist.findings()
        assert loop.code == "JCD006"
        assert loop.target == "chain.q"
