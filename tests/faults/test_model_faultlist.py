"""Stuck-at fault model, enumeration and collapsing."""

import pytest

from repro.core import FaultSimulationError, Logic
from repro.faults import (FaultList, StuckAtFault, build_fault_list,
                          compose_design_fault_list, enumerate_faults)
from repro.gates import Netlist, ip1_block, parity_tree


class TestStuckAtFault:
    def test_stem_naming(self):
        assert StuckAtFault.stem("I3", 0).name == "I3sa0"
        assert StuckAtFault.stem("I3", 1).name == "I3sa1"

    def test_branch_naming(self):
        fault = StuckAtFault.branch("a", "g1", 2, 1)
        assert fault.name == "a->g1.2sa1"
        assert not fault.is_stem

    def test_value_validation(self):
        with pytest.raises(FaultSimulationError):
            StuckAtFault("n", Logic.X)

    def test_branch_needs_gate_and_pin(self):
        with pytest.raises(FaultSimulationError):
            StuckAtFault("n", Logic.ZERO, gate_name="g")
        with pytest.raises(FaultSimulationError):
            StuckAtFault("n", Logic.ZERO, pin=0)

    def test_frozen_and_hashable(self):
        a = StuckAtFault.stem("n", 0)
        assert a == StuckAtFault.stem("n", 0)
        assert hash(a) == hash(StuckAtFault.stem("n", 0))


class TestEnumeration:
    def test_counts_on_fanout_free_netlist(self):
        netlist = Netlist("chain")
        netlist.add_input("a")
        netlist.add_gate("NOT", ["a"], "n1")
        netlist.add_output("o")
        netlist.add_gate("NOT", ["n1"], "o")
        netlist.validate()
        faults = enumerate_faults(netlist)
        # 3 nets x 2 polarities, no fanout -> no branch faults.
        assert len(faults) == 6
        assert all(fault.is_stem for fault in faults)

    def test_branches_only_on_fanout_nets(self):
        netlist = ip1_block()
        faults = enumerate_faults(netlist)
        branch_nets = {fault.net for fault in faults
                       if not fault.is_stem}
        # I1, I2 (fanout 3) and I3 (fanout 2) are the fanout stems.
        assert branch_nets == {"I1", "I2", "I3"}

    def test_ip1_universe_size(self):
        # 10 nets x 2 + (3+3+2 branch pins) x 2 = 36.
        assert len(enumerate_faults(ip1_block())) == 36


class TestCollapsing:
    def test_equivalence_merges_nand_input_sa0_with_output_sa1(self):
        netlist = Netlist("nand")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_output("o")
        netlist.add_gate("NAND", ["a", "b"], "o")
        netlist.validate()
        collapsed = build_fault_list(netlist, collapse="equivalence")
        # A class containing asa0, bsa0 and osa1 exists.
        for name in collapsed.names():
            members = {fault.name for fault
                       in collapsed.class_of(name)}
            if "osa1" in members:
                assert {"asa0", "bsa0", "osa1"} <= members
                break
        else:
            pytest.fail("merged NAND class not found")

    def test_equivalence_chains_through_buffers(self):
        netlist = Netlist("bufchain")
        netlist.add_input("a")
        netlist.add_gate("BUF", ["a"], "n1")
        netlist.add_output("o")
        netlist.add_gate("NOT", ["n1"], "o")
        netlist.validate()
        collapsed = build_fault_list(netlist, collapse="equivalence")
        # asa0 == n1sa0 == osa1: whole chain is two classes.
        assert len(collapsed) == 2

    def test_xor_has_no_equivalences(self):
        collapsed = build_fault_list(parity_tree(4),
                                     collapse="equivalence")
        full = build_fault_list(parity_tree(4), collapse="none")
        assert len(collapsed) == len(full)

    def test_dominance_drops_output_faults(self):
        equivalence = build_fault_list(ip1_block(),
                                       collapse="equivalence")
        dominance = build_fault_list(ip1_block(), collapse="dominance")
        assert len(dominance) < len(equivalence)

    def test_dominance_keeps_primary_output_faults(self):
        netlist = Netlist("po")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_output("o")
        netlist.add_gate("AND", ["a", "b"], "o")
        netlist.validate()
        dominance = build_fault_list(netlist, collapse="dominance")
        all_members = {fault.name for name in dominance.names()
                       for fault in dominance.class_of(name)}
        assert "osa1" in all_members  # boundary fault retained

    def test_universe_is_preserved_by_classes(self):
        netlist = ip1_block()
        for mode in ("none", "equivalence"):
            collapsed = build_fault_list(netlist, collapse=mode)
            assert collapsed.universe_size() == 36

    def test_unknown_mode_rejected(self):
        with pytest.raises(FaultSimulationError):
            build_fault_list(ip1_block(), collapse="magic")


class TestSymbolicExport:
    def test_obfuscation_hides_net_names(self):
        collapsed = build_fault_list(ip1_block(), obfuscate=True)
        assert collapsed.names() == tuple(
            f"f{index}" for index in range(len(collapsed)))
        # The provider can still resolve each symbol to a real fault.
        for name in collapsed.names():
            assert collapsed.fault(name).net

    def test_unknown_symbol_rejected(self):
        collapsed = build_fault_list(ip1_block())
        with pytest.raises(FaultSimulationError):
            collapsed.fault("nonexistent")

    def test_contains_and_len(self):
        collapsed = build_fault_list(ip1_block(), collapse="none")
        assert "I3sa0" in collapsed
        assert "bogus" not in collapsed
        assert len(collapsed) == 36

    def test_compose_design_fault_list(self):
        lists = {
            "IP1": FaultList("IP1", {"f0": StuckAtFault.stem("x", 0)}),
            "IP2": FaultList("IP2", {"f0": StuckAtFault.stem("y", 1)}),
        }
        composed = compose_design_fault_list(lists)
        assert set(composed) == {"IP1:f0", "IP2:f0"}
        assert composed["IP1:f0"] == ("IP1", "f0")
