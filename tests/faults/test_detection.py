"""Detection tables: construction, queries, marshalling."""

import pytest

from repro.core import Logic
from repro.faults import (DetectionTable, build_detection_table,
                          build_fault_list)
from repro.gates import ip1_block
from repro.rmi import marshal, unmarshal


@pytest.fixture(scope="module")
def ip1():
    netlist = ip1_block()
    return netlist, build_fault_list(netlist, collapse="none")


def table_for(ip1, a, b, only=None):
    netlist, faults = ip1
    return build_detection_table(
        netlist, faults, {"IIP1": Logic(a), "IIP2": Logic(b)}, only=only)


class TestConstruction:
    def test_paper_rows_for_input_10(self, ip1):
        table = table_for(ip1, 1, 0)
        assert table.fault_free == (Logic.ONE, Logic.ZERO)
        assert "I6sa1" in table.faults_causing((Logic.ONE, Logic.ONE))
        row_00 = table.faults_causing((Logic.ZERO, Logic.ZERO))
        assert {"I3sa0", "I4sa1"} <= row_00

    def test_rows_partition_by_output_pattern(self, ip1):
        table = table_for(ip1, 1, 0)
        seen = set()
        for names in table.rows.values():
            assert not names & seen  # a fault appears in one row only
            seen |= names

    def test_fault_free_pattern_never_a_row(self, ip1):
        table = table_for(ip1, 1, 1)
        assert table.fault_free not in table.rows

    def test_undetectable_faults_absent(self, ip1):
        netlist, faults = ip1
        table = table_for(ip1, 0, 0)
        covered = table.covered_faults()
        # Faults absent from every row are not excitable/propagatable by
        # this input; e.g. I6sa0 needs I6=1, impossible at (0,0).
        assert "I6sa0" not in covered

    def test_only_restricts(self, ip1):
        table = table_for(ip1, 1, 0, only=["I3sa0"])
        assert table.covered_faults() == frozenset({"I3sa0"})

    def test_output_for_fault(self, ip1):
        table = table_for(ip1, 1, 0)
        assert table.output_for_fault("I3sa0") == (Logic.ZERO, Logic.ZERO)
        assert table.output_for_fault("nonexistent") is None

    def test_same_input_same_table(self, ip1):
        """The paper's caching argument: identical input configurations
        lead to the same detection table."""
        assert table_for(ip1, 1, 0) == table_for(ip1, 1, 0)
        assert table_for(ip1, 1, 0) != table_for(ip1, 0, 1)


class TestMarshalling:
    def test_roundtrip_preserves_rows(self, ip1):
        table = table_for(ip1, 1, 0)
        restored = unmarshal(marshal(table))
        assert isinstance(restored, DetectionTable)
        assert restored == table
        assert restored.rows == table.rows

    def test_logic_bits_survive_the_wire(self, ip1):
        restored = unmarshal(marshal(table_for(ip1, 1, 0)))
        for pattern in restored.rows:
            assert all(isinstance(bit, Logic) for bit in pattern)
        assert all(isinstance(bit, Logic)
                   for bit in restored.input_pattern)

    def test_obfuscated_table_reveals_no_structure(self):
        """With obfuscated symbolic names (what a protective provider
        exports) the wire image contains no net or gate names at all."""
        netlist = ip1_block()
        faults = build_fault_list(netlist, obfuscate=True)
        table = build_detection_table(
            netlist, faults, {"IIP1": Logic.ONE, "IIP2": Logic.ZERO})
        wire = marshal(table).decode()
        for leak in ("NAND", "gI3", "I3sa0", "I6", "->"):
            assert leak not in wire
        # Yet the table is still fully usable: rows map erroneous
        # outputs to symbolic handles the provider can resolve.
        assert table.rows
