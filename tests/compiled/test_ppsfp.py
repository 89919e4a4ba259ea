"""PPSFP runner semantics: packing, blocks, dropping, telemetry."""

import random

import pytest

from repro.compiled import (SUPERWORD_BITS, WORD_BITS,
                            CompiledFaultSimulator, CompiledSimulator,
                            pack_patterns)
from repro.core.errors import SimulationError
from repro.core.signal import Logic
from repro.faults.faultlist import build_fault_list
from repro.faults.serial import SerialFaultSimulator
from repro.gates.simulator import NetlistSimulator
from repro.parallel.remote import resolve_bench
from repro.telemetry import TELEMETRY, telemetry_session


@pytest.fixture(autouse=True)
def _clean_telemetry():
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


def figure4_patterns(count, seed=0):
    netlist = resolve_bench("figure4")
    rng = random.Random(seed)
    return netlist, [{net: Logic(rng.getrandbits(1))
                      for net in netlist.inputs}
                     for _ in range(count)]


class TestPacking:
    def test_bit_i_is_pattern_i(self):
        patterns = [{"a": Logic.ONE}, {"a": Logic.ZERO}, {"a": Logic.X},
                    {"a": Logic.Z}, {"a": Logic.ONE}]
        iv, ic = pack_patterns(("a",), patterns)
        assert iv == [0b10001]
        # X and Z both pack as don't-care (care bit clear).
        assert ic == [0b10011]

    def test_canonical_invariant(self):
        rng = random.Random(3)
        values = [Logic.ZERO, Logic.ONE, Logic.X, Logic.Z]
        patterns = [{"a": rng.choice(values), "b": rng.choice(values)}
                    for _ in range(WORD_BITS)]
        iv, ic = pack_patterns(("a", "b"), patterns)
        for v, c in zip(iv, ic):
            assert v & ~c == 0

    def test_missing_input_matches_interpreted_error(self):
        with pytest.raises(SimulationError,
                           match="missing value for primary input 'b'"):
            pack_patterns(("a", "b"), [{"a": Logic.ONE}])


class TestCompiledSimulator:
    def test_z_input_is_echoed_raw(self):
        netlist, _ = figure4_patterns(0)
        pattern = {net: Logic.Z for net in netlist.inputs}
        compiled = CompiledSimulator(netlist).evaluate(pattern)
        interpreted = NetlistSimulator(netlist).evaluate(pattern)
        assert compiled == interpreted
        assert compiled[netlist.inputs[0]] is Logic.Z

    def test_stem_fault_overrides_input_echo(self):
        netlist, patterns = figure4_patterns(1)
        fault_list = build_fault_list(netlist, collapse="none")
        interpreted = NetlistSimulator(netlist)
        compiled = CompiledSimulator(netlist)
        for name in fault_list.names():
            fault = fault_list.fault(name)
            assert compiled.evaluate(patterns[0], fault=fault) \
                == interpreted.evaluate(patterns[0], fault=fault), name

    def test_outputs_in_declaration_order(self):
        netlist, patterns = figure4_patterns(1)
        assert CompiledSimulator(netlist).outputs(patterns[0]) \
            == NetlistSimulator(netlist).outputs(patterns[0])


class TestMultiBlockCampaign:
    def test_partial_and_full_blocks_match_serial(self):
        # 150 patterns = two full 64-pattern words plus a 22-bit tail.
        netlist, patterns = figure4_patterns(2 * WORD_BITS + 22)
        fault_list = build_fault_list(netlist)
        for drop in (True, False):
            serial = SerialFaultSimulator(netlist, fault_list).run(
                patterns, drop_detected=drop)
            compiled = CompiledFaultSimulator(netlist, fault_list).run(
                patterns, drop_detected=drop)
            assert compiled.detected == serial.detected
            assert list(compiled.detected) == list(serial.detected)
            assert compiled.per_pattern == serial.per_pattern
            assert compiled.coverage_history() == serial.coverage_history()

    def test_empty_pattern_list(self):
        netlist, _ = figure4_patterns(0)
        report = CompiledFaultSimulator(netlist).run([])
        assert report.detected == {}
        assert report.per_pattern == []


class TestSinglePatternProbes:
    def test_detects_matches_serial(self):
        netlist, patterns = figure4_patterns(8)
        fault_list = build_fault_list(netlist)
        serial = SerialFaultSimulator(netlist, fault_list)
        compiled = CompiledFaultSimulator(netlist, fault_list)
        for pattern in patterns:
            for name in fault_list.names():
                assert compiled.detects(pattern, name) \
                    == serial.detects(pattern, name)

    def test_detecting_preserves_query_order(self):
        netlist, patterns = figure4_patterns(4)
        fault_list = build_fault_list(netlist)
        names = list(fault_list.names())[::-1]
        compiled = CompiledFaultSimulator(netlist, fault_list)
        hits = compiled.detecting(patterns[0], names)
        assert hits == [name for name in names
                        if compiled.detects(patterns[0], name)]


class TestTelemetry:
    def test_campaign_counters(self):
        netlist, patterns = figure4_patterns(70)
        with telemetry_session():
            CompiledFaultSimulator(netlist).run(patterns)
            metrics = TELEMETRY.metrics
            assert metrics.counter("compiled.blocks").value == 2
            assert metrics.counter("compiled.gate_evals").value > 0
            assert metrics.counter("compiled.eval_seconds").value > 0
            assert metrics.gauge(
                "compiled.gate_evals_per_second").value > 0

    def test_work_counters_are_exact(self):
        """The logical work (``gate_evals``) does not depend on how the
        faults are packed; the kernel invocations (``kernel_runs``) do:
        one fault-free run plus one hooked run per superword of faults.
        """
        netlist = resolve_bench("mult8")
        fault_list = build_fault_list(netlist)
        assert len(fault_list) == 1344
        rng = random.Random(1)
        patterns = [{net: Logic(rng.getrandbits(1))
                     for net in netlist.inputs}
                    for _ in range(WORD_BITS)]
        lanes = SUPERWORD_BITS // WORD_BITS
        with telemetry_session():
            CompiledFaultSimulator(netlist, fault_list).run(patterns)
            metrics = TELEMETRY.metrics
            assert metrics.counter("compiled.gate_evals").value \
                == 29_267_200
            assert metrics.counter("compiled.blocks").value == 1
            assert metrics.counter("compiled.kernel_runs").value \
                == 1 + -(-1344 // lanes)

    def test_probe_counters(self):
        netlist, patterns = figure4_patterns(1)
        simulator = CompiledFaultSimulator(netlist)
        names = simulator.fault_list.names()
        gates = simulator.kernel.gate_count
        with telemetry_session():
            simulator.detecting(patterns[0], names)
            metrics = TELEMETRY.metrics
            assert metrics.counter("compiled.gate_evals").value \
                == gates * (1 + len(names))
            assert metrics.counter("compiled.kernel_runs").value == 2

    def test_silent_when_disabled(self):
        netlist, patterns = figure4_patterns(4)
        CompiledFaultSimulator(netlist).run(patterns)
        assert TELEMETRY.metrics.names() == ()
