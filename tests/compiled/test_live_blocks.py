"""Blocks sized to the live faults, held to the serial oracle.

``CompiledFaultSimulator.run`` makes each block ``SUPERWORD_BITS //
live`` patterns wide -- at least one pattern with fault dropping and
``WORD_BITS`` without, at most the patterns left and, with dropping, at
most the ramp's 8, 64, 512, ... patterns -- so a campaign runs blocks
from a single pattern to several hundred, and one hooked run can carry
anything from one fault to the whole superword.  The differential below
draws those shapes (1 to 666 live faults, 0 to 300 or 585 to 650
patterns over {0, 1, X, Z}, both drop modes, the real superword and
smaller ones) and compares the report with
:class:`SerialFaultSimulator`'s.  The example count is the profile's:
CI reruns it under ``--hypothesis-profile=ci``.

The packer is checked against the per-bit loop it replaced, kept here
as the reference, including which input a missing-value error names.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import (SUPERWORD_BITS, WORD_BITS,
                            CompiledFaultSimulator, pack_patterns, ppsfp)
from repro.core.errors import SimulationError
from repro.core.signal import Logic
from repro.faults.faultlist import build_fault_list
from repro.faults.serial import SerialFaultSimulator, run_campaign
from repro.gates.generators import random_netlist

FOUR_VALUES = (Logic.ZERO, Logic.ONE, Logic.X, Logic.Z)

NETLIST = random_netlist(8, 120, 8, seed=5)
FAULTS = build_fault_list(NETLIST, collapse="none")

POOL_SIZE = 16
"""Distinct patterns a drawn campaign is made of."""


@functools.lru_cache(maxsize=None)
def serial_pool():
    """The pattern pool and, per pool pattern, the faults the serial
    oracle says it detects.

    Whether a pattern detects a fault does not depend on which other
    faults are simulated beside it, so replaying these answers through
    :func:`run_campaign` -- the loop ``SerialFaultSimulator.run`` runs
    -- gives the serial report of any fault subset and any sequence of
    pool patterns without re-simulating each one.  The pool runs from
    all-binary patterns to mostly X/Z ones.
    """
    rng = random.Random(29)
    pool = [{net: (rng.choice(FOUR_VALUES) if rng.random() < k / POOL_SIZE
                   else Logic(rng.getrandbits(1)))
             for net in NETLIST.inputs}
            for k in range(POOL_SIZE)]
    serial = SerialFaultSimulator(NETLIST, FAULTS)
    return pool, [frozenset(serial.detecting(pattern, FAULTS.names()))
                  for pattern in pool]


def test_netlist_has_hundreds_of_faults():
    assert len(FAULTS) == 666
    assert SUPERWORD_BITS // len(FAULTS) < WORD_BITS


@settings(deadline=None)
@given(data=st.data(), drop=st.booleans(),
       superword=st.sampled_from([SUPERWORD_BITS, 1000, 128, WORD_BITS]))
def test_report_matches_serial(data, drop, superword):
    pool, detects = serial_pool()
    # Few live faults and a long campaign reach the ramp's third cap:
    # past 584 patterns (8 + 64 + 512), under 32 faults.
    live = data.draw(st.integers(1, 31) | st.integers(1, len(FAULTS)),
                     label="live")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    fault_list = FAULTS.subset(
        random.Random(seed).sample(FAULTS.names(), live))
    # An explicit length: a bare ``st.lists`` seldom draws the long
    # campaigns that get blocks of more than 64 patterns.
    length = data.draw(st.integers(0, 300) | st.integers(585, 650),
                       label="length")
    if length <= 300:
        sequence = data.draw(st.lists(st.integers(0, POOL_SIZE - 1),
                                      min_size=length, max_size=length),
                             label="sequence")
    else:
        # Past hypothesis's buffer: the drawn seed picks the sequence.
        sequence = random.Random(~seed).choices(range(POOL_SIZE),
                                                k=length)
    expected = run_campaign(
        fault_list.names(), sequence,
        lambda index, names: [name for name in names
                              if name in detects[index]],
        drop)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ppsfp, "SUPERWORD_BITS", superword)
        report = CompiledFaultSimulator(NETLIST, fault_list).run(
            [pool[index] for index in sequence], drop_detected=drop)
    assert report.total_faults == expected.total_faults
    assert list(report.detected.items()) == list(expected.detected.items())
    assert report.per_pattern == expected.per_pattern
    assert report.coverage_history() == expected.coverage_history()


@functools.lru_cache(maxsize=None)
def lane_edges():
    """``(a, b, pa, pb, fill)``: pool pattern ``pa`` detects fault ``a``
    and not ``b``, ``pb`` detects ``b`` and not ``a``, and ``fill``
    detects neither -- what a block needs to put a detection on the
    last bit of ``a``'s lane right next to one on the first bit of
    ``b``'s."""
    pool, detects = serial_pool()
    rng = random.Random(31)
    edges = []
    for pa in range(POOL_SIZE):
        for pb in range(POOL_SIZE):
            only_a = sorted(detects[pa] - detects[pb])
            only_b = sorted(detects[pb] - detects[pa])
            if not only_a or not only_b:
                continue
            a, b = rng.choice(only_a), rng.choice(only_b)
            fill = next((k for k in range(POOL_SIZE)
                         if a not in detects[k] and b not in detects[k]),
                        None)
            if fill is not None:
                edges.append((a, b, pa, pb, fill))
    return edges


def reference_words(names, sequence):
    """Each fault's detection word over a block of pool patterns, from
    the serial oracle's answers."""
    _, detects = serial_pool()
    return [sum(1 << bit for bit, index in enumerate(sequence)
                if name in detects[index]) for name in names]


@settings(deadline=None)
@given(data=st.data(), first_only=st.booleans(),
       width=st.sampled_from([1, 2, 3, 7, 8, 37, 64, 65, 184]))
def test_detection_words_read_every_detected_lane(data, first_only,
                                                  width):
    """``_detection_words`` reads the detected lanes only, walking the
    set bits of each run's detection word: the words (or, with
    ``first_only``, the first detecting offsets) must be the serial
    oracle's, across lane and run boundaries.  Fault ``a`` detected on
    its lane's last bit sits right below fault ``b`` detected on its
    first bit, in one run or at the edge of two."""
    pool, _ = serial_pool()
    a, b, pa, pb, fill = data.draw(st.sampled_from(lane_edges()),
                                   label="edge")
    others = data.draw(st.lists(st.sampled_from(FAULTS.names()),
                                max_size=24, unique=True), label="others")
    others = [name for name in others if name not in (a, b)]
    at = data.draw(st.integers(0, len(others)), label="at")
    names = others[:at] + [a, b] + others[at:]
    sequence = data.draw(st.lists(st.integers(0, POOL_SIZE - 1),
                                  min_size=width, max_size=width),
                         label="sequence")
    if data.draw(st.booleans(), label="edge only"):
        sequence = [fill] * width
    sequence[0] = pb
    if width > 1:
        sequence[-1] = pa
    lanes = data.draw(st.integers(1, 6), label="lanes")
    simulator = CompiledFaultSimulator(NETLIST, FAULTS)
    iv, ic = pack_patterns(NETLIST.inputs,
                           [pool[index] for index in sequence])
    injections = [simulator._sites[name] for name in names]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ppsfp, "SUPERWORD_BITS", lanes * width)
        hits, runs = simulator._detection_words(iv, ic, width, injections,
                                                first_only)
    words = reference_words(names, sequence)
    assert words[at + 1] & 1
    if width > 1:
        assert words[at] >> width - 1
    assert hits == [(position, (word & -word).bit_length() - 1
                     if first_only else word)
                    for position, word in enumerate(words) if word]
    assert runs == 1 + -(-len(names) // lanes)


@settings(deadline=None)
@given(data=st.data(), drop=st.booleans())
def test_uneven_blocks_match_serial(data, drop):
    """The harness campaign's shape: 256 patterns over few enough live
    faults that, with dropping, the blocks are 8, 64 and 184 patterns
    (184 lanes of bits a fault, not a power of two), and without it
    one block of ``SUPERWORD_BITS // live`` and the rest; faults are
    often detected by several patterns of one block."""
    pool, detects = serial_pool()
    live = data.draw(st.integers(2, SUPERWORD_BITS // 184), label="live")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    fault_list = FAULTS.subset(
        random.Random(seed).sample(FAULTS.names(), live))
    # The first two blocks draw from the patterns that detect least,
    # so faults live on into the third, which draws from them all.
    weak = sorted(range(POOL_SIZE), key=lambda k: len(detects[k]))[:6]
    rng = random.Random(~seed)
    sequence = rng.choices(weak, k=72) + rng.choices(range(POOL_SIZE),
                                                     k=184)
    expected = run_campaign(
        fault_list.names(), sequence,
        lambda index, names: [name for name in names
                              if name in detects[index]],
        drop)
    widths = []
    real = CompiledFaultSimulator._detection_words

    def recorded(self, iv, ic, width, *rest):
        widths.append(width)
        return real(self, iv, ic, width, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CompiledFaultSimulator, "_detection_words", recorded)
        report = CompiledFaultSimulator(NETLIST, fault_list).run(
            [pool[index] for index in sequence], drop_detected=drop)
    assert list(report.detected.items()) == list(expected.detected.items())
    assert report.per_pattern == expected.per_pattern
    if drop:
        assert widths == [8, 64, 184][:len(widths)]
    else:
        first = min(SUPERWORD_BITS // live, 256)
        assert widths == [first, 256 - first][:1 + (first < 256)]


def reference_pack(inputs, patterns):
    """The per-bit packing loop that ``pack_patterns`` replaced."""
    iv = []
    ic = []
    for net in inputs:
        v = 0
        c = 0
        for bit, pattern in enumerate(patterns):
            try:
                value = pattern[net]
            except KeyError:
                raise SimulationError(
                    f"missing value for primary input {net!r}") from None
            if value is Logic.ONE:
                v |= 1 << bit
                c |= 1 << bit
            elif value is Logic.ZERO:
                c |= 1 << bit
        iv.append(v)
        ic.append(c)
    return iv, ic


@pytest.mark.parametrize("width", [0, 1, 22, WORD_BITS, WORD_BITS + 1, 300])
@pytest.mark.parametrize("count", [0, 1, 7])
def test_pack_matches_reference(width, count):
    rng = random.Random(1000 * width + count)
    inputs = [f"i{k}" for k in range(count)]
    patterns = [{net: rng.choice(FOUR_VALUES) for net in inputs}
                for _ in range(width)]
    assert pack_patterns(inputs, patterns) \
        == reference_pack(inputs, patterns)


@pytest.mark.parametrize("seed", range(8))
def test_missing_input_names_the_reference_input(seed):
    """Several patterns each lack a different input: the error names
    the first input in ``inputs`` order that some pattern lacks."""
    rng = random.Random(seed)
    inputs = [f"i{k}" for k in range(9)]
    patterns = [{net: rng.choice(FOUR_VALUES) for net in inputs}
                for _ in range(rng.choice([1, 22, 65, 300]))]
    for pattern in rng.sample(patterns, min(3, len(patterns))):
        del pattern[rng.choice(inputs)]
    with pytest.raises(SimulationError) as reference:
        reference_pack(inputs, patterns)
    with pytest.raises(SimulationError) as packed:
        pack_patterns(inputs, patterns)
    assert str(packed.value) == str(reference.value)
