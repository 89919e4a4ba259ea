"""The builtin benchmark corpus: registry, generators, bench loading."""

import random

import pytest

from repro.core import DesignError, Logic
from repro.faults import build_fault_list
from repro.gates import (NetlistSimulator, SequentialBench, alu,
                         corpus_entries, corpus_entry, corpus_names,
                         load_bench, secded, sequential_wrap)
from repro.gates.generators import parity_tree

# The ISCAS size class each corpus entry is calibrated against: a
# floor on gate count keeps the generators honest about their scale.
GATE_FLOORS = {
    "alu8": 90, "ecc32": 300, "alu32": 350, "mult8": 300,
    "mult16": 1000, "salu8": 100, "secc32": 400,
}


class TestRegistry:
    def test_new_combinational_names_registered(self):
        names = corpus_names(kind="combinational")
        for name in ("alu8", "ecc32", "alu32", "mult8", "mult16"):
            assert name in names

    def test_sequential_names_registered(self):
        names = corpus_names(kind="sequential")
        for name in ("s27", "salu8", "secc32"):
            assert name in names

    def test_legacy_names_still_present(self):
        names = corpus_names()
        for name in ("c17", "figure4", "chatty"):
            assert name in names

    def test_unknown_name_lists_the_corpus(self):
        with pytest.raises(DesignError, match="alu8.*s27"):
            corpus_entry("c9999")

    def test_entry_kinds_match_built_type(self):
        for entry in corpus_entries():
            bench = entry.build()
            assert isinstance(bench, SequentialBench) == entry.sequential

    def test_gate_count_floors(self):
        for name, floor in GATE_FLOORS.items():
            bench = corpus_entry(name).build()
            core = bench.core if isinstance(bench, SequentialBench) \
                else bench
            assert core.gate_count() >= floor, name

    def test_sequential_entries_have_flip_flops(self):
        for entry in corpus_entries():
            if entry.sequential:
                assert entry.build().ff_count() > 0, entry.name

    def test_corpus_is_lint_clean(self):
        for entry in corpus_entries():
            bench = entry.build()
            core = bench.core if isinstance(bench, SequentialBench) \
                else bench
            assert core.findings() == (), entry.name


class TestAluGenerator:
    OPS = {0: lambda a, b: a & b, 1: lambda a, b: a | b,
           2: lambda a, b: a ^ b}

    @pytest.mark.parametrize("width", [4, 8])
    def test_matches_reference_semantics(self, width):
        netlist = alu(width)
        simulator = NetlistSimulator(netlist)
        rng = random.Random(7)
        mask = (1 << width) - 1
        for _ in range(20):
            a, b = rng.getrandbits(width), rng.getrandbits(width)
            op = rng.randrange(4)
            inputs = {f"a{i}": Logic((a >> i) & 1) for i in range(width)}
            inputs.update({f"b{i}": Logic((b >> i) & 1)
                           for i in range(width)})
            inputs.update({"op0": Logic(op & 1), "op1": Logic(op >> 1),
                           "op2": Logic.ZERO})
            values = dict(zip(netlist.outputs,
                              simulator.outputs(inputs)))
            if op < 3:
                expected = self.OPS[op](a, b)
            else:
                expected = (a + b) & mask
                assert values["cout"] == Logic((a + b) >> width)
            result = sum(int(values[f"r{i}"]) << i
                         for i in range(width))
            assert result == expected, (a, b, op)
            assert values["zero"] == Logic(int(expected == 0))


class TestSecdedGenerator:
    def _run(self, width, data, errors=()):
        netlist = secded(width)
        simulator = NetlistSimulator(netlist)
        inputs = {f"d{i}": Logic((data >> i) & 1) for i in range(width)}
        for net in netlist.inputs:
            if net.startswith("e"):
                inputs[net] = Logic.ZERO
        for net in errors:
            inputs[net] = Logic.ONE
        return dict(zip(netlist.outputs, simulator.outputs(inputs)))

    def test_clean_channel_passes_data_through(self):
        data = 0xDEADBEEF
        values = self._run(32, data)
        decoded = sum(int(values[f"q{i}"]) << i for i in range(32))
        assert decoded == data
        assert values["derr"] == Logic.ZERO

    def test_single_data_error_corrected(self):
        data = 0x12345678
        values = self._run(32, data, errors=("e3",))
        decoded = sum(int(values[f"q{i}"]) << i for i in range(32))
        assert decoded == data
        assert values["derr"] == Logic.ZERO

    def test_double_error_flagged_uncorrectable(self):
        values = self._run(32, 0x0F0F0F0F, errors=("e1", "e5"))
        assert values["derr"] == Logic.ONE


class TestSequentialWrap:
    def test_wrap_registers_every_core_output(self):
        core = parity_tree(3)
        bench = sequential_wrap(core, name="sp")
        assert bench.ff_count() == len(core.outputs)
        assert bench.gate_count() > core.gate_count()

    def test_wrap_validates(self):
        bench = sequential_wrap(alu(4), name="sa")
        bench.core.validate()
        assert set(bench.registers) == \
            set(bench.core.inputs) - set(bench.primary_inputs)


class TestLoadBench:
    def test_builtin_combinational(self):
        netlist = load_bench("alu8")
        assert netlist.gate_count() >= 90

    def test_builtin_sequential(self):
        bench = load_bench("s27")
        assert isinstance(bench, SequentialBench)
        assert bench.ff_count() == 3

    def test_file_combinational(self, tmp_path):
        from repro.gates.io import C17_BENCH
        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        netlist = load_bench(str(path))
        assert netlist.gate_count() == 6

    def test_file_sniffed_as_sequential(self, tmp_path):
        from repro.gates.io import S27_BENCH
        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        bench = load_bench(str(path))
        assert isinstance(bench, SequentialBench)
        assert bench.ff_count() == 3

    def test_unknown_spec_raises(self):
        with pytest.raises(DesignError, match="neither a file"):
            load_bench("not-a-bench")


class TestFaultUniverse:
    """Fault-site counts anchor the docs/corpus.md table."""

    def test_mult16_reaches_four_digit_faults(self):
        assert len(build_fault_list(load_bench("mult16"))) >= 1000

    def test_sequential_cores_have_fault_sites(self):
        for name in corpus_names(kind="sequential"):
            bench = load_bench(name)
            assert len(build_fault_list(bench.core)) > 0, name
