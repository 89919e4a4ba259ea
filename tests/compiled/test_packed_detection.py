"""Lane-packed fault probing: many faults per kernel run, same answers.

``CompiledSimulator.outputs_for_faults`` packs distinct faults into
distinct bit lanes of one replicated pattern, so detection-table
construction (and everything above it: TestabilityServant, ATPG's
random phase) stops probing one pattern per call.  The contract is
exact equality with the per-fault probing path on every stimulus,
including unknown (X/Z) inputs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import CompiledSimulator, ppsfp, simulator_for
from repro.core import Logic
from repro.faults import TestabilityServant, build_fault_list
from repro.faults.atpg import generate_test_set
from repro.faults.detection import build_detection_table
from repro.gates import NetlistSimulator, load_bench
from repro.gates.generators import random_netlist

BENCHES = ["c17", "figure4", "alu8"]


def random_stimulus(netlist, rng, with_unknowns=False):
    choices = ([Logic.ZERO, Logic.ONE, Logic.X, Logic.Z]
               if with_unknowns else [Logic.ZERO, Logic.ONE])
    return {net: rng.choice(choices) for net in netlist.inputs}


class TestOutputsForFaults:
    @pytest.mark.parametrize("bench", BENCHES)
    @pytest.mark.parametrize("with_unknowns", [False, True])
    def test_matches_per_fault_probing(self, bench, with_unknowns):
        netlist = load_bench(bench)
        fault_list = build_fault_list(netlist)
        names = fault_list.names()[:96]
        faults = [fault_list.fault(name) for name in names]
        compiled = CompiledSimulator(netlist)
        rng = random.Random(hash(bench) & 0xFFFF)
        for _ in range(4):
            stimulus = random_stimulus(netlist, rng, with_unknowns)
            packed = compiled.outputs_for_faults(stimulus, faults)
            for fault, outputs in zip(faults, packed):
                assert outputs == compiled.outputs(stimulus,
                                                   fault=fault)

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 19])
    @pytest.mark.parametrize("with_unknowns", [False, True])
    def test_run_boundaries_match_event_engine(self, monkeypatch, count,
                                               with_unknowns):
        """A block of one pattern puts ``SUPERWORD_BITS`` faults in one
        kernel run; shrunk to 8, the boundaries fall inside alu8's
        list and the interpreted simulator can referee them."""
        monkeypatch.setattr(ppsfp, "SUPERWORD_BITS", 8)
        netlist = load_bench("alu8")
        fault_list = build_fault_list(netlist)
        rng = random.Random(count)
        faults = [fault_list.fault(name)
                  for name in rng.sample(fault_list.names(), count)]
        stimulus = random_stimulus(netlist, rng, with_unknowns)
        event = NetlistSimulator(netlist)
        assert CompiledSimulator(netlist).outputs_for_faults(
            stimulus, faults) == [event.outputs(stimulus, fault=fault)
                                  for fault in faults]

    def test_event_engine_agrees(self):
        netlist = load_bench("c17")
        fault_list = build_fault_list(netlist)
        faults = [fault_list.fault(name)
                  for name in fault_list.names()]
        compiled = CompiledSimulator(netlist)
        event = NetlistSimulator(netlist)
        stimulus = {net: Logic.ONE for net in netlist.inputs}
        packed = compiled.outputs_for_faults(stimulus, faults)
        for fault, outputs in zip(faults, packed):
            assert outputs == event.outputs(stimulus, fault=fault)


class TestLaneSharedRows:
    """Lanes whose outputs equal lane 0's share lane 0's tuple; the
    returned list is still the per-fault one, whichever fault lands in
    lane 0 and however the last chunk is filled."""

    NETLIST = load_bench("alu8")
    FAULTS = build_fault_list(NETLIST)

    @pytest.mark.parametrize("engine", ["event", "compiled"])
    @pytest.mark.parametrize("count", [1, 63, 64, 65])
    @settings(max_examples=20, deadline=None)
    @given(bits=st.lists(st.sampled_from(list(Logic)),
                         min_size=len(NETLIST.inputs),
                         max_size=len(NETLIST.inputs)),
           seed=st.integers(0, 10_000))
    def test_equals_per_fault_outputs(self, engine, count, bits, seed):
        names = random.Random(seed).sample(self.FAULTS.names(), count)
        faults = [self.FAULTS.fault(name) for name in names]
        stimulus = dict(zip(self.NETLIST.inputs, bits))
        simulator = simulator_for(engine, self.NETLIST)
        assert simulator.outputs_for_faults(stimulus, faults) == [
            simulator.outputs(stimulus, fault=fault) for fault in faults]


    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(2, 6, 1), (4, 20, 3), (3, 30, 2)]),
           seed=st.integers(0, 10_000), data=st.data())
    def test_generated_netlists_across_superwords(self, shape, seed,
                                                  data):
        """Every distinct row is unpacked once per kernel run and its
        lanes share the tuple, on random netlists with X/Z inputs and
        several superwords of faults."""
        netlist = random_netlist(*shape, seed=seed)
        fault_list = build_fault_list(netlist, collapse="none")
        faults = [fault_list.fault(name) for name in fault_list.names()]
        stimulus = {net: data.draw(st.sampled_from(list(Logic)))
                    for net in netlist.inputs}
        compiled = CompiledSimulator(netlist)
        lanes = 8
        assert len(faults) > 2 * lanes
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ppsfp, "SUPERWORD_BITS", lanes)
            packed = compiled.outputs_for_faults(stimulus, faults)
        assert packed == [compiled.outputs(stimulus, fault=fault)
                          for fault in faults]
        for first in range(0, len(packed), lanes):
            run = packed[first:first + lanes]
            assert len({id(row) for row in run}) == len(set(run))


class TestDetectionTableParity:
    @pytest.mark.parametrize("bench", BENCHES)
    def test_tables_identical_across_engines(self, bench):
        netlist = load_bench(bench)
        fault_list = build_fault_list(netlist)
        rng = random.Random(5)
        stimulus = random_stimulus(netlist, rng)
        event = build_detection_table(netlist, fault_list, stimulus)
        compiled = build_detection_table(
            netlist, fault_list, stimulus,
            simulator=CompiledSimulator(netlist))
        assert compiled == event
        assert compiled.rows == event.rows


class TestServantSiteCache:
    """A servant's simulator resolves each fault's kernel site once:
    its later tables, over a shrinking undetected list, equal tables
    built by fresh (uncached) servants and by the event engine."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), data=st.data())
    def test_cached_tables_equal_uncached_as_the_list_shrinks(self, seed,
                                                              data):
        netlist = random_netlist(5, 30, 3, seed=seed)
        fault_list = build_fault_list(netlist, collapse="none")
        cached = TestabilityServant(netlist, fault_list)
        undetected = list(fault_list.names())
        rng = random.Random(seed)
        for _ in range(4):
            bits = [data.draw(st.sampled_from(list(Logic)))
                    for _ in netlist.inputs]
            table = cached.detection_table(bits, undetected)
            assert table == TestabilityServant(
                netlist, fault_list).detection_table(bits, undetected)
            assert table == TestabilityServant(
                netlist, fault_list, engine="event").detection_table(
                    bits, undetected)
            undetected = sorted(rng.sample(undetected,
                                           len(undetected) // 2))

    def test_each_site_is_resolved_once_per_servant(self, monkeypatch):
        netlist = load_bench("alu8")
        fault_list = build_fault_list(netlist)
        servant = TestabilityServant(netlist, fault_list)
        resolved = []
        injection = ppsfp._injection

        def counted(kernel, fault):
            resolved.append(fault)
            return injection(kernel, fault)

        monkeypatch.setattr(ppsfp, "_injection", counted)
        names = list(fault_list.names())
        rng = random.Random(3)
        for undetected in (names, names[::2], names[1::3]):
            bits = [Logic(rng.getrandbits(1)) for _ in netlist.inputs]
            servant.detection_table(bits, undetected)
        assert len(resolved) == len(names)
        assert set(resolved) == {fault_list.fault(name) for name in names}
        # A second servant keeps a memo of its own.
        TestabilityServant(netlist, fault_list).detection_table(
            bits, names[:5])
        assert len(resolved) == len(names) + 5


class TestAtpgByteIdentity:
    @pytest.mark.parametrize("bench", ["c17", "figure4"])
    def test_test_sets_identical_across_engines(self, bench):
        netlist = load_bench(bench)
        event = generate_test_set(netlist, random_patterns=16, seed=1,
                                  engine="event")
        compiled = generate_test_set(netlist, random_patterns=16,
                                     seed=1, engine="compiled")
        assert compiled.patterns == event.patterns
        assert compiled.detected == event.detected
        assert list(compiled.detected) == list(event.detected)
        assert compiled.untestable == event.untestable

    def test_corpus_bench_identical_under_backtrack_budget(self):
        """alu8 has random-resistant faults; a tight budget keeps the
        run quick and the aborted list must agree across engines too."""
        netlist = load_bench("alu8")
        event = generate_test_set(netlist, random_patterns=64, seed=1,
                                  max_backtracks=50, engine="event")
        compiled = generate_test_set(netlist, random_patterns=64,
                                     seed=1, max_backtracks=50,
                                     engine="compiled")
        assert compiled.patterns == event.patterns
        assert compiled.detected == event.detected
        assert list(compiled.detected) == list(event.detected)
        assert compiled.untestable == event.untestable
        assert compiled.aborted == event.aborted
