"""Differential: the two-valued kernel flavour against the three-valued body.

A block whose inputs are all known (every input's care word is one
word ``k``) runs value words only; everything else runs the
three-valued body, which is the oracle here.  Random acyclic netlists
from :func:`repro.gates.generators.random_netlist`, blocks of 1-64
patterns and fault lists spanning several superwords: the words the
kernel returns must equal the three-valued body's, and the flavour it
picks must follow the rule (``compiled.two_valued_runs``).
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import (CompiledFaultSimulator, CompiledKernel,
                            CompiledSimulator, pack_patterns, ppsfp)
from repro.compiled.ppsfp import _fault_lanes, _injection
from repro.core.signal import Logic
from repro.faults.faultlist import build_fault_list
from repro.gates.corpus import load_bench
from repro.gates.generators import random_netlist
from repro.parallel.remote import report_to_wire
from repro.rmi.marshal import marshal
from repro.telemetry import TELEMETRY, telemetry_session

BINARY = (Logic.ZERO, Logic.ONE)
FOUR_VALUES = (Logic.ZERO, Logic.ONE, Logic.X, Logic.Z)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


def two_valued_runs():
    return TELEMETRY.metrics.counter("compiled.two_valued_runs").value


def interleaved(planes):
    """A kernel result's words as ``(v, c)`` per net: a two-valued run
    states its care plane as one int, every net's care word."""
    values, cares = planes
    if type(cares) is int:
        cares = (cares,) * len(values)
    return tuple(word for pair in zip(values, cares) for word in pair)


@st.composite
def blocks(draw):
    """A random netlist and a block of 1-64 patterns over it: all 0/1,
    or with X / Z on some inputs of some patterns."""
    netlist = random_netlist(draw(st.integers(1, 6)),
                             draw(st.integers(1, 40)),
                             draw(st.integers(1, 4)),
                             seed=draw(st.integers(0, 10 ** 6)))
    width = draw(st.integers(1, 64))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    unknown = draw(st.sampled_from((0.0, 0.05, 0.3, 1.0)))
    patterns = [{net: rng.choice(FOUR_VALUES) if rng.random() < unknown
                 else rng.choice(BINARY) for net in netlist.inputs}
                for _ in range(width)]
    return netlist, patterns


class _BothFlavours:
    """What ``_fault_lanes`` needs of a kernel, running each hooked run
    through the flavour the kernel picks and the three-valued body.
    ``_fault_lanes`` reaches the kernel through ``run_fault`` only, so
    every hooked run it makes is seen and compared here."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.site_count = kernel.site_count
        self.runs = 0

    def run_fault(self, iv, ic, fm, fv, lanes):
        self.runs += 1
        words = self.kernel.run_fault(iv, ic, fm, fv, lanes)
        assert interleaved(words) \
            == interleaved(self.kernel._fault3(iv, ic, fm, fv))
        return words


@settings(deadline=None)
@given(block=blocks())
def test_run_good_flavours_agree(block):
    netlist, patterns = block
    kernel = CompiledKernel(netlist)
    iv, ic = pack_patterns(kernel.inputs, patterns)
    with telemetry_session():
        words = kernel.run_good(iv, ic)
        taken = two_valued_runs()
    assert interleaved(words) == interleaved(kernel._good3(iv, ic))
    # Two-valued exactly when the care words agree and some lane is
    # known: a block with X or Z on some inputs of a pattern, or one
    # that is all X, runs three-valued.
    assert taken == (len(set(ic)) == 1 and ic[0] != 0)
    # The care plane is one int exactly when the run was two-valued.
    assert (type(words[1]) is int) == taken
    if taken:
        assert words[1] == ic[0]


@settings(deadline=None)
@given(block=blocks(), data=st.data())
def test_run_fault_flavours_agree(block, data):
    netlist, patterns = block
    kernel = CompiledKernel(netlist)
    faults = build_fault_list(netlist, collapse="none")
    names = data.draw(st.lists(st.sampled_from(faults.names()),
                               min_size=1, max_size=3 * len(faults)))
    injections = [_injection(kernel, faults.fault(name)) for name in names]
    width = len(patterns)
    lanes = data.draw(st.integers(1, 8))
    iv, ic = pack_patterns(kernel.inputs, patterns)
    known = (1 << width) - 1
    both = _BothFlavours(kernel)
    with mock.patch.object(ppsfp, "SUPERWORD_BITS", lanes * width), \
            telemetry_session():
        runs = sum(1 for _ in _fault_lanes(both, iv, ic, width,
                                           injections))
        taken = two_valued_runs()
    assert runs == both.runs == -(-len(injections) // lanes)
    # Hooked runs are two-valued only for a block with every input of
    # every pattern known.
    assert taken == (runs if set(ic) == {known} else 0)


def test_masks_outside_the_known_lanes_run_three_valued():
    """A run whose lanes reach past the known bits: its last lane's
    mask forces a site there."""
    kernel = CompiledKernel(random_netlist(3, 12, 2, seed=5))
    iv, ic = [0b0101, 0b0011, 0b0110], [0b1111] * 3
    fm = [0] * kernel.site_count
    fm[kernel.site_count - 1] = 0b10000
    with telemetry_session():
        words = kernel.run_fault(iv, ic, fm, 0b10000, 0b11111)
        assert two_valued_runs() == 0
    assert interleaved(words) \
        == interleaved(kernel._fault3(iv, ic, fm, 0b10000))


def test_all_x_and_mixed_blocks_run_three_valued():
    kernel = CompiledKernel(random_netlist(3, 12, 2, seed=5))
    fm = [0] * kernel.site_count
    with telemetry_session():
        kernel.run_good([0, 0, 0], [0, 0, 0])
        kernel.run_good([0b01, 0, 0b10], [0b11, 0b01, 0b11])
        kernel.run_fault([0b01, 0, 0b10], [0b11, 0b01, 0b11], fm, 0, 0b11)
        # Equal care words with a hole: exact for run_good, but not
        # the run's lanes, so run_fault keeps the three-valued body.
        kernel.run_fault([0b100, 0, 0b100], [0b101] * 3, fm, 0, 0b111)
        assert two_valued_runs() == 0
        kernel.run_good([0b100, 0, 0b100], [0b101] * 3)
        assert two_valued_runs() == 1


LANE_NETLIST = random_netlist(4, 30, 3, seed=11)


def lane_runs(patterns, lanes=3):
    """Two-valued runs among ``_fault_lanes``' hooked runs over one
    block of ``LANE_NETLIST``, ``lanes`` faults a run and two runs,
    each run checked against the three-valued body; and how many runs
    the kernel was handed."""
    kernel = CompiledKernel(LANE_NETLIST)
    faults = build_fault_list(LANE_NETLIST, collapse="none")
    injections = [_injection(kernel, fault)
                  for _, fault in faults.items()][:2 * lanes]
    iv, ic = pack_patterns(kernel.inputs, patterns)
    both = _BothFlavours(kernel)
    with mock.patch.object(ppsfp, "SUPERWORD_BITS",
                           lanes * len(patterns)), telemetry_session():
        for _ in _fault_lanes(both, iv, ic, len(patterns), injections):
            pass
        return two_valued_runs(), both.runs


def binary_block(width, seed=0):
    rng = random.Random(seed)
    return [{net: rng.choice(BINARY) for net in LANE_NETLIST.inputs}
            for _ in range(width)]


@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("width", [1, 3, 5, 8])
def test_lane_runs_of_a_known_block_are_two_valued(width, lanes):
    assert lane_runs(binary_block(width), lanes) == (2, 2)


@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("width", [1, 3, 5, 8])
def test_last_pattern_all_x_keeps_lane_runs_three_valued(width, lanes):
    """Such a block's care word is all-ones from bit 0 (bit ``width -
    1`` is the one missing): each copy of it in a run of several lanes
    has that hole, and a run of one lane has it at the top, inside the
    lane's mask.  Every lane run is three-valued either way."""
    patterns = binary_block(width)
    patterns[-1] = {net: Logic.X for net in LANE_NETLIST.inputs}
    _, ic = pack_patterns(LANE_NETLIST.inputs, patterns)
    known = ic[0]
    assert set(ic) == {known} and not known & (known + 1)
    assert lane_runs(patterns, lanes) == (0, 2)


@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("unknown", [Logic.X, Logic.Z])
def test_x_on_some_inputs_keeps_lane_runs_three_valued(unknown, lanes):
    patterns = binary_block(5)
    patterns[2][LANE_NETLIST.inputs[1]] = unknown
    assert lane_runs(patterns, lanes) == (0, 2)


def test_single_pattern_servant_calls_pin_their_flavour():
    """``detection_outputs`` runs a block of one pattern: the good run
    and every lane run are two-valued for an all-binary pattern, and
    none is with an ``X`` input."""
    netlist = load_bench("c17")
    simulator = CompiledSimulator(netlist)
    faults = build_fault_list(netlist, collapse="none")
    everything = [fault for _, fault in faults.items()]
    pattern = {net: Logic.ONE for net in netlist.inputs}
    with mock.patch.object(ppsfp, "SUPERWORD_BITS", 16), \
            telemetry_session():
        simulator.detection_outputs(pattern, everything)
        assert two_valued_runs() == 1 + -(-len(everything) // 16)
    pattern[netlist.inputs[0]] = Logic.X
    with telemetry_session():
        simulator.detection_outputs(pattern, everything)
        assert two_valued_runs() == 0


def test_mult16_campaign_identical_through_both_flavours():
    """The ``compiled_campaign`` benchmark's campaign, once as the
    kernel picks (every run two-valued) and once through the
    three-valued bodies only: the same report, byte for byte."""
    netlist = load_bench("mult16")
    full = build_fault_list(netlist, collapse="equivalence")
    fault_list = full.subset(full.names()[::12])
    rng = random.Random(1)
    patterns = [{net: Logic(rng.getrandbits(1)) for net in netlist.inputs}
                for _ in range(256)]
    fast = CompiledFaultSimulator(netlist, fault_list)
    slow = CompiledFaultSimulator(netlist, fault_list)
    slow.kernel = CompiledKernel(netlist)
    slow.kernel.run_good = slow.kernel._good3
    slow.kernel.run_fault = \
        lambda iv, ic, fm, fv, lanes: slow.kernel._fault3(iv, ic, fm, fv)
    with telemetry_session():
        reports = [fast.run(patterns), slow.run(patterns)]
        assert two_valued_runs() == 6
    first, second = reports
    assert list(first.detected.items()) == list(second.detected.items())
    assert marshal(report_to_wire(first)) \
        == marshal(report_to_wire(second))
    assert first.coverage_history() == second.coverage_history()
