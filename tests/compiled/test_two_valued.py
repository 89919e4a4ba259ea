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
                            pack_patterns, ppsfp)
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
    through the flavour the kernel picks and the three-valued body."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.site_count = kernel.site_count

    def run_fault(self, iv, ic, fm, fv):
        words = self.kernel.run_fault(iv, ic, fm, fv)
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
    with mock.patch.object(ppsfp, "SUPERWORD_BITS", lanes * width), \
            telemetry_session():
        runs = sum(1 for _ in _fault_lanes(_BothFlavours(kernel), iv, ic,
                                           width, injections))
        taken = two_valued_runs()
    assert runs == -(-len(injections) // lanes)
    # Hooked runs are two-valued only for a block with every input of
    # every pattern known.
    assert taken == (runs if set(ic) == {known} else 0)


def test_masks_outside_the_known_lanes_run_three_valued():
    kernel = CompiledKernel(random_netlist(3, 12, 2, seed=5))
    iv, ic = [0b0101, 0b0011, 0b0110], [0b1111] * 3
    fm = [0] * kernel.site_count
    fm[kernel.site_count - 1] = 0b10000
    with telemetry_session():
        words = kernel.run_fault(iv, ic, fm, 0b10000)
        assert two_valued_runs() == 0
    assert interleaved(words) \
        == interleaved(kernel._fault3(iv, ic, fm, 0b10000))


def test_all_x_and_mixed_blocks_run_three_valued():
    kernel = CompiledKernel(random_netlist(3, 12, 2, seed=5))
    fm = [0] * kernel.site_count
    with telemetry_session():
        kernel.run_good([0, 0, 0], [0, 0, 0])
        kernel.run_good([0b01, 0, 0b10], [0b11, 0b01, 0b11])
        kernel.run_fault([0b01, 0, 0b10], [0b11, 0b01, 0b11], fm, 0)
        # Equal care words with a hole: exact for run_good, but not
        # all-ones, so run_fault keeps the three-valued body.
        kernel.run_fault([0b100, 0, 0b100], [0b101] * 3, fm, 0)
        assert two_valued_runs() == 0
        kernel.run_good([0b100, 0, 0b100], [0b101] * 3)
        assert two_valued_runs() == 1


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
    slow.kernel.run_fault = slow.kernel._fault3
    with telemetry_session():
        reports = [fast.run(patterns), slow.run(patterns)]
        assert two_valued_runs() == 6
    first, second = reports
    assert list(first.detected.items()) == list(second.detected.items())
    assert marshal(report_to_wire(first)) \
        == marshal(report_to_wire(second))
    assert first.coverage_history() == second.coverage_history()
