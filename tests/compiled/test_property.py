"""Property test: the compiled kernel vs the interpreted simulator.

Random acyclic netlists from :func:`repro.gates.generators.random_netlist`
(every cell type, fanout, reconvergence), random four-valued input
patterns (including ``Logic.X`` and ``Logic.Z``), and every collapsed
stem/branch fault: :class:`CompiledSimulator` must agree with
:class:`NetlistSimulator` on every net, and
:class:`CompiledFaultSimulator` must reproduce the serial campaign
report exactly.

The lane tests at the end hold the fault x pattern superword packing
(:func:`repro.compiled.ppsfp._fault_lanes`) to the same oracles: every
lane boundary against the serial simulator, shared-site packings, and a
K-lane kernel run against K one-lane runs, word for word.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import (SUPERWORD_BITS, WORD_BITS,
                            CompiledFaultSimulator, CompiledSimulator,
                            compile_netlist, pack_patterns, ppsfp)
from repro.compiled.ppsfp import _fault_lanes, _injection
from repro.core.errors import SimulationError
from repro.core.signal import Logic
from repro.faults.faultlist import build_fault_list
from repro.faults.serial import SerialFaultSimulator
from repro.gates.generators import random_netlist
from repro.gates.netlist import Netlist
from repro.gates.simulator import NetlistSimulator

SHAPES = [
    (2, 6, 1),    # tiny: every net observable
    (4, 20, 3),   # medium fanout
    (6, 45, 4),   # wide, reconvergent
    (3, 30, 2),   # deep and narrow
]

FOUR_VALUES = (Logic.ZERO, Logic.ONE, Logic.X, Logic.Z)


def three_valued_patterns(netlist, count, rng):
    """Mostly binary patterns with a sprinkling of X/Z inputs."""
    patterns = []
    for _ in range(count):
        pattern = {}
        for net in netlist.inputs:
            if rng.random() < 0.2:
                pattern[net] = rng.choice(FOUR_VALUES)
            else:
                pattern[net] = Logic(rng.getrandbits(1))
        patterns.append(pattern)
    return patterns


@pytest.mark.parametrize("seed", range(6))
def test_fault_free_evaluation_matches(seed):
    shape = SHAPES[seed % len(SHAPES)]
    netlist = random_netlist(*shape, seed=seed)
    rng = random.Random(seed + 100)
    interpreted = NetlistSimulator(netlist)
    compiled = CompiledSimulator(netlist)
    for pattern in three_valued_patterns(netlist, 25, rng):
        assert compiled.evaluate(pattern) \
            == interpreted.evaluate(pattern), (shape, seed, pattern)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 10 ** 6),
       data=st.data())
def test_fault_free_outputs_match(shape, seed, data):
    """``outputs`` without a fault unpacks only the output nets; it
    must still read exactly what the interpreted simulator reads."""
    netlist = random_netlist(*shape, seed=seed)
    pattern = {net: data.draw(st.sampled_from(FOUR_VALUES))
               for net in netlist.inputs}
    assert CompiledSimulator(netlist).outputs(pattern) \
        == NetlistSimulator(netlist).outputs(pattern)


@pytest.mark.parametrize("value", FOUR_VALUES)
def test_an_output_that_is_an_input_keeps_its_echo(value):
    """An undriven ``Z`` primary input that is also a primary output
    reads ``Z`` on both engines, beside a gate output that sees it as
    unknown."""
    netlist = Netlist("echo")
    for net in ("a", "b"):
        netlist.add_input(net)
    netlist.add_output("a")
    netlist.add_output("y")
    netlist.add_gate("AND", ["a", "b"], "y")
    netlist.validate()
    pattern = {"a": value, "b": Logic.ONE}
    expected = NetlistSimulator(netlist).outputs(pattern)
    assert expected[0] is value
    assert CompiledSimulator(netlist).outputs(pattern) == expected
    assert CompiledSimulator(netlist).outputs(pattern)[0] is value


def test_fault_free_outputs_raise_the_engines_input_errors():
    netlist = random_netlist(*SHAPES[0], seed=3)
    for pattern in ({}, {net: 1 for net in netlist.inputs}):
        with pytest.raises(SimulationError) as compiled:
            CompiledSimulator(netlist).outputs(pattern)
        with pytest.raises(SimulationError) as interpreted:
            NetlistSimulator(netlist).outputs(pattern)
        assert str(compiled.value) == str(interpreted.value)


@pytest.mark.parametrize("seed", range(4))
def test_faulty_evaluation_matches(seed):
    shape = SHAPES[seed % len(SHAPES)]
    netlist = random_netlist(*shape, seed=seed + 40)
    fault_list = build_fault_list(netlist, collapse="none")
    rng = random.Random(seed + 200)
    interpreted = NetlistSimulator(netlist)
    compiled = CompiledSimulator(netlist)
    patterns = three_valued_patterns(netlist, 6, rng)
    for name in fault_list.names():
        fault = fault_list.fault(name)
        for pattern in patterns:
            assert compiled.evaluate(pattern, fault=fault) \
                == interpreted.evaluate(pattern, fault=fault), \
                (shape, seed, name, pattern)


@pytest.mark.parametrize("bench", ["alu8", "ecc32", "mult8"])
def test_corpus_evaluation_matches(bench):
    """The parity property holds on the structured ISCAS-class corpus
    generators, not just on random netlists."""
    from repro.gates.corpus import load_bench

    netlist = load_bench(bench)
    rng = random.Random(len(bench))
    interpreted = NetlistSimulator(netlist)
    compiled = CompiledSimulator(netlist)
    for pattern in three_valued_patterns(netlist, 8, rng):
        assert compiled.evaluate(pattern) \
            == interpreted.evaluate(pattern), (bench, pattern)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("drop", [True, False])
def test_campaign_report_matches_serial(seed, drop):
    shape = SHAPES[seed % len(SHAPES)]
    netlist = random_netlist(*shape, seed=seed + 80)
    fault_list = build_fault_list(netlist)
    rng = random.Random(seed + 300)
    patterns = three_valued_patterns(netlist, 40, rng)
    serial = SerialFaultSimulator(netlist, fault_list).run(
        patterns, drop_detected=drop)
    compiled = CompiledFaultSimulator(netlist, fault_list).run(
        patterns, drop_detected=drop)
    assert compiled.total_faults == serial.total_faults
    assert compiled.detected == serial.detected
    assert list(compiled.detected) == list(serial.detected)
    assert compiled.per_pattern == serial.per_pattern
    assert compiled.coverage_history() == serial.coverage_history()


# ----------------------------------------------------------------------
# Lanes: many faults per hooked kernel run
# ----------------------------------------------------------------------

LANES = 4
"""Lanes per full block under :func:`four_lanes`."""


@pytest.fixture
def four_lanes(monkeypatch):
    """Shrink the superword so the lane boundaries sit at a handful of
    faults, where the interpreted serial oracle is still quick."""
    monkeypatch.setattr(ppsfp, "SUPERWORD_BITS", LANES * WORD_BITS)


def assert_same_report(compiled, serial):
    assert compiled.total_faults == serial.total_faults
    assert list(compiled.detected.items()) == list(serial.detected.items())
    assert compiled.per_pattern == serial.per_pattern


@pytest.mark.parametrize("drop", [True, False])
@pytest.mark.parametrize("pattern_count", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("fault_count",
                         [1, LANES - 1, LANES, LANES + 1, 2 * LANES + 3])
def test_lane_boundaries_match_serial(four_lanes, fault_count,
                                      pattern_count, drop):
    netlist = random_netlist(4, 20, 3, seed=7)
    full = build_fault_list(netlist, collapse="none")
    rng = random.Random(1000 * fault_count + pattern_count)
    fault_list = full.subset(rng.sample(full.names(), fault_count))
    patterns = three_valued_patterns(netlist, pattern_count, rng)
    assert_same_report(
        CompiledFaultSimulator(netlist, fault_list).run(
            patterns, drop_detected=drop),
        SerialFaultSimulator(netlist, fault_list).run(
            patterns, drop_detected=drop))


def test_full_width_lane_boundary_matches_serial():
    """One fault more than a superword holds, at the real constant:
    without dropping a block is ``WORD_BITS`` wide, so its faults take
    two hooked runs."""
    lanes = SUPERWORD_BITS // WORD_BITS
    netlist = random_netlist(6, 45, 4, seed=3)
    full = build_fault_list(netlist, collapse="none")
    fault_list = full.subset(full.names()[:lanes + 1])
    assert len(fault_list) == lanes + 1
    patterns = three_valued_patterns(netlist, WORD_BITS + 1,
                                     random.Random(11))
    assert_same_report(
        CompiledFaultSimulator(netlist, fault_list).run(
            patterns, drop_detected=False),
        SerialFaultSimulator(netlist, fault_list).run(
            patterns, drop_detected=False))


@pytest.mark.parametrize("drop", [True, False])
@pytest.mark.parametrize("fault_count", [255, 256, 257, 515])
def test_packed_campaign_equals_one_fault_per_run(monkeypatch,
                                                  fault_count, drop):
    """The real superword against one shrunk to a single word (one
    fault per run of 64-pattern blocks without dropping, one-pattern
    blocks of 64 lanes with it) on a corpus bench too large for the
    interpreted oracle."""
    from repro.gates.corpus import load_bench

    netlist = load_bench("mult8")
    full = build_fault_list(netlist)
    rng = random.Random(fault_count)
    fault_list = full.subset(rng.sample(full.names(), fault_count))
    patterns = three_valued_patterns(netlist, 2 * WORD_BITS + 2, rng)
    simulator = CompiledFaultSimulator(netlist, fault_list)
    packed = simulator.run(patterns, drop_detected=drop)
    monkeypatch.setattr(ppsfp, "SUPERWORD_BITS", WORD_BITS)
    assert_same_report(packed,
                       simulator.run(patterns, drop_detected=drop))


def faults_by_net(netlist):
    """The uncollapsed fault list and its names grouped by faulted net:
    sa0 and sa1 of the stem, then the branch faults if it fans out."""
    full = build_fault_list(netlist, collapse="none")
    by_net = {}
    for name in full.names():
        by_net.setdefault(full.fault(name).net, []).append(name)
    return full, by_net


@pytest.mark.parametrize("seed", range(3))
def test_both_polarities_of_one_site_share_a_superword(seed):
    """sa0 and sa1 of one site: one ``fm`` word, two ``fv`` lanes."""
    netlist = random_netlist(4, 20, 3, seed=seed + 60)
    full, by_net = faults_by_net(netlist)
    kernel = compile_netlist(netlist)
    rng = random.Random(seed)
    patterns = three_valued_patterns(netlist, 20, rng)
    for net, names in by_net.items():
        stems = [name for name in names if full.fault(name).is_stem]
        assert len(stems) == 2
        sites = {kernel.site_for(full.fault(name)) for name in stems}
        assert len(sites) == 1
        fault_list = full.subset(stems)
        for drop in (True, False):
            assert_same_report(
                CompiledFaultSimulator(netlist, fault_list).run(
                    patterns, drop_detected=drop),
                SerialFaultSimulator(netlist, fault_list).run(
                    patterns, drop_detected=drop))
        faults = [full.fault(name) for name in stems]
        compiled = CompiledSimulator(netlist)
        assert compiled.outputs_for_faults(patterns[0], faults) == [
            NetlistSimulator(netlist).outputs(patterns[0], fault=fault)
            for fault in faults]


@pytest.mark.parametrize("seed", range(3))
def test_stem_and_branch_faults_of_one_net_share_a_superword(seed):
    netlist = random_netlist(4, 20, 3, seed=seed + 60)
    full, by_net = faults_by_net(netlist)
    rng = random.Random(seed + 1)
    patterns = three_valued_patterns(netlist, 20, rng)
    fanned_out = [names for names in by_net.values() if len(names) > 2]
    assert fanned_out
    for names in fanned_out:
        fault_list = full.subset(names)
        assert_same_report(
            CompiledFaultSimulator(netlist, fault_list).run(
                patterns, drop_detected=False),
            SerialFaultSimulator(netlist, fault_list).run(
                patterns, drop_detected=False))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("width", [1, 22, WORD_BITS])
def test_k_lane_run_equals_k_one_lane_runs(seed, width):
    """Lanes do not interact: lane ``k`` of every word of a packed run
    is the word the fault alone produces."""
    netlist = random_netlist(*SHAPES[seed % len(SHAPES)], seed=seed + 120)
    kernel = compile_netlist(netlist)
    fault_list = build_fault_list(netlist, collapse="none")
    injections = [_injection(kernel, fault_list.fault(name))
                  for name in fault_list.names()]
    patterns = three_valued_patterns(netlist, width,
                                     random.Random(seed + 400))
    iv, ic = pack_patterns(kernel.inputs, patterns)
    mask = (1 << width) - 1
    checked = 0
    for count, _, words in _fault_lanes(kernel, iv, ic, width, injections):
        for lane in range(count):
            (_, _, alone), = _fault_lanes(kernel, iv, ic, width,
                                          [injections[checked]])
            assert tuple((word >> lane * width) & mask
                         for word in words) == alone
            checked += 1
    assert checked == len(injections)
