"""PPSFP runner semantics: packing, blocks, dropping, telemetry."""

import random

import pytest

from repro.compiled import (SUPERWORD_BITS, WORD_BITS,
                            CompiledFaultSimulator, CompiledSimulator,
                            pack_patterns, ppsfp)
from repro.core.errors import SimulationError
from repro.core.signal import Logic
from repro.faults.faultlist import build_fault_list
from repro.faults.serial import SerialFaultSimulator
from repro.gates.corpus import load_bench
from repro.gates.io import c17
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

    @pytest.mark.parametrize("value", [1, 0, True, "1", None])
    def test_non_logic_value_names_the_input(self, value):
        patterns = [{"a": Logic.ONE, "b": Logic.ZERO},
                    {"a": Logic.X, "b": value}]
        with pytest.raises(SimulationError,
                           match=f"primary input 'b' is {value!r}, "
                                 f"not a Logic value"):
            pack_patterns(("a", "b"), patterns)


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

    @pytest.mark.parametrize("engine", [CompiledSimulator, NetlistSimulator])
    def test_non_logic_input_raises_naming_it(self, engine):
        netlist = c17()
        pattern = {net: Logic.ZERO for net in netlist.inputs}
        pattern[netlist.inputs[2]] = 1
        with pytest.raises(SimulationError,
                           match="primary input '3' is 1, not a Logic value"):
            engine(netlist).outputs(pattern)

    def test_outputs_in_declaration_order(self):
        netlist, patterns = figure4_patterns(1)
        assert CompiledSimulator(netlist).outputs(patterns[0]) \
            == NetlistSimulator(netlist).outputs(patterns[0])


class TestMultiBlockCampaign:
    def test_partial_and_full_blocks_match_serial(self, monkeypatch):
        # A one-word superword: without dropping, 150 patterns are two
        # full 64-pattern blocks plus a 22-pattern tail; with it, the
        # blocks are 64 // live patterns wide.
        monkeypatch.setattr(ppsfp, "SUPERWORD_BITS", WORD_BITS)
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

    @pytest.mark.parametrize("bad", [None, 1])
    def test_bad_pattern_after_the_last_live_fault_raises(
            self, monkeypatch, bad):
        """Nothing is left to simulate once every fault has dropped,
        but a missing or non-Logic input later on still raises, as the
        serial oracle's fault-free pass does."""
        netlist, patterns = figure4_patterns(40)
        fault_list = build_fault_list(netlist)
        fault_list = fault_list.subset(
            [name for name in fault_list.names()
             if name in SerialFaultSimulator(netlist, fault_list).run(
                 patterns[:1]).detected])
        # The first block, all of whose faults pattern 0 detects, ends
        # well before the last pattern.
        monkeypatch.setattr(ppsfp, "SUPERWORD_BITS", WORD_BITS)
        assert WORD_BITS // len(fault_list) < len(patterns) - 1
        net = netlist.inputs[-1]
        if bad is None:
            del patterns[-1][net]
        else:
            patterns[-1][net] = bad
        for simulator in (SerialFaultSimulator, CompiledFaultSimulator):
            with pytest.raises(SimulationError, match=repr(net)):
                simulator(netlist, fault_list).run(patterns)

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


def replayed_work(simulator, patterns, report, drop_detected=True,
                  ramp=True):
    """(blocks, kernel runs, gate evaluations) that the block rule
    implies for a campaign whose report is ``report``: a block is
    ``SUPERWORD_BITS // live`` patterns (floor 1 with dropping,
    ``WORD_BITS`` without, capped at the patterns left and, with
    dropping, at the ramp's 8, 64, 512, ... patterns) and takes one
    fault-free run plus one hooked run per ``SUPERWORD_BITS // width``
    live faults.  ``ramp=False`` replays the rule without the ramp."""
    names = simulator.fault_list.names()
    gates = simulator.kernel.gate_count
    blocks = runs = evals = start = 0
    cap = ppsfp.RAMP_FIRST_PATTERNS
    while start < len(patterns):
        live = [name for name in names if not drop_detected
                or report.detected.get(name, start) >= start]
        if not live:
            break
        width = min(max(SUPERWORD_BITS // len(live),
                        1 if drop_detected else WORD_BITS),
                    len(patterns) - start)
        if drop_detected and ramp:
            width = min(width, cap)
            cap *= ppsfp.RAMP_GROWTH
        blocks += 1
        runs += 1 + -(-len(live) // (SUPERWORD_BITS // width))
        evals += gates * width * (1 + len(live))
        start += width
    return blocks, runs, evals


def work_counts():
    metrics = TELEMETRY.metrics
    return (metrics.counter("compiled.blocks").value,
            metrics.counter("compiled.kernel_runs").value,
            metrics.counter("compiled.gate_evals").value)


class TestTelemetry:
    """Work counts repeat exactly on any machine; CI gates on this
    class."""

    def test_campaign_counters(self):
        netlist, patterns = figure4_patterns(70)
        simulator = CompiledFaultSimulator(netlist)
        with telemetry_session():
            report = simulator.run(patterns)
            metrics = TELEMETRY.metrics
            # A handful of faults: the ramp's 8-pattern block, then
            # one block for the other 62 patterns.
            assert metrics.counter("compiled.blocks").value == 2
            assert work_counts() \
                == replayed_work(simulator, patterns, report)
            assert metrics.counter("compiled.eval_seconds").value > 0
            assert metrics.gauge(
                "compiled.gate_evals_per_second").value > 0

    @staticmethod
    def mult8_counts(drop):
        """Work counts of ``mult8``'s 1344 collapsed faults x 64
        patterns, checked against the block rule's replay."""
        netlist = resolve_bench("mult8")
        fault_list = build_fault_list(netlist)
        assert len(fault_list) == 1344
        rng = random.Random(1)
        patterns = [{net: Logic(rng.getrandbits(1))
                     for net in netlist.inputs}
                    for _ in range(WORD_BITS)]
        simulator = CompiledFaultSimulator(netlist, fault_list)
        with telemetry_session():
            report = simulator.run(patterns, drop_detected=drop)
            counts = work_counts()
        assert replayed_work(simulator, patterns, report, drop) == counts
        return counts

    def test_work_counters_are_exact(self):
        """The logical work (``gate_evals``) does not depend on how the
        faults are packed; the kernel invocations (``kernel_runs``) do:
        one fault-free run plus one hooked run per superword of faults,
        per block.  1344 live faults open with the ramp's 8-pattern
        block (12 patterns without the ramp: 7 149 520 evaluations).
        """
        assert self.mult8_counts(drop=True) == (2, 4, 6_704_800)

    def test_no_drop_work_counters(self):
        # 340 gates x 64 patterns x (1 fault-free + 1344 faults) in one
        # 64-pattern block, carried by 1 + ceil(1344 / 256 lanes) runs.
        assert self.mult8_counts(drop=False) == (1, 7, 29_267_200)

    def test_harness_campaign_counts(self):
        """The ``compiled_campaign`` benchmark's campaign: 479 faults
        enter the ramp's 8-pattern block, the 50 left a 64-pattern one
        and the one no pattern detects the other 184 (without the ramp, a
        34-pattern block of 479 faults took 2 blocks, 4 runs and
        25 489 488 evaluations; fixed 64-pattern blocks took 4 blocks,
        9 runs and 44 914 176)."""
        netlist = load_bench("mult16")
        full = build_fault_list(netlist, collapse="equivalence")
        fault_list = full.subset(full.names()[::12])
        rng = random.Random(1)
        patterns = [{net: Logic(rng.getrandbits(1))
                     for net in netlist.inputs}
                    for _ in range(256)]
        simulator = CompiledFaultSimulator(netlist, fault_list)
        with telemetry_session():
            report = simulator.run(patterns)
            assert work_counts() == (3, 6, 10_789_568)
            # Random 0/1 patterns: every run takes the value-only kernel.
            assert TELEMETRY.metrics.counter(
                "compiled.two_valued_runs").value == 6
        assert replayed_work(simulator, patterns, report) \
            == (3, 6, 10_789_568)
        assert replayed_work(simulator, patterns, report, ramp=False) \
            == (2, 4, 25_489_488)

    @pytest.mark.parametrize("live", [1, 60, 255, 256, 1344])
    def test_ramp_worst_case(self, monkeypatch, live):
        """A campaign that drops nothing early gains nothing from the
        ramp and pays at most one extra block for each ramp cap below
        the block the superword rule alone would run: the same gate
        evaluations, and at most one extra block once 256 or more
        faults are live (that rule then holds blocks to 64 patterns,
        so only the first cap bites).  The block loop is shown no
        detection, so no fault ever drops."""
        real = CompiledFaultSimulator._detection_words

        def blind(self, *block_and_faults):
            _hits, runs = real(self, *block_and_faults)
            return [], runs

        monkeypatch.setattr(CompiledFaultSimulator, "_detection_words",
                            blind)
        netlist = resolve_bench("mult8")
        fault_list = build_fault_list(netlist)
        fault_list = fault_list.subset(fault_list.names()[:live])
        rng = random.Random(1)
        patterns = [{net: Logic(rng.getrandbits(1))
                     for net in netlist.inputs}
                    for _ in range(256)]
        simulator = CompiledFaultSimulator(netlist, fault_list)
        with telemetry_session():
            report = simulator.run(patterns)
            blocks, runs, evals = work_counts()
        assert not report.detected
        assert (blocks, runs, evals) \
            == replayed_work(simulator, patterns, report)
        old_blocks, _, old_evals = replayed_work(
            simulator, patterns, report, ramp=False)
        assert evals == old_evals
        widest = min(SUPERWORD_BITS // live, len(patterns))
        caps = [ppsfp.RAMP_FIRST_PATTERNS * ppsfp.RAMP_GROWTH ** k
                for k in range(8)]
        assert blocks <= old_blocks + sum(cap < widest for cap in caps)
        if live >= SUPERWORD_BITS // WORD_BITS:
            assert blocks <= old_blocks + 1

    def test_x_pattern_campaign_runs_three_valued(self):
        """A block with an ``X`` input keeps the care words: neither
        run of the first block, whose pattern 0 has one, is two-valued;
        both of the all-binary second block's are.  The work counts
        are the block rule's."""
        netlist, patterns = figure4_patterns(70)
        patterns[0][netlist.inputs[0]] = Logic.X
        simulator = CompiledFaultSimulator(netlist)
        with telemetry_session():
            report = simulator.run(patterns)
            assert work_counts() \
                == replayed_work(simulator, patterns, report)
            metrics = TELEMETRY.metrics
            assert metrics.counter("compiled.kernel_runs").value == 4
            assert metrics.counter("compiled.two_valued_runs").value == 2

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
