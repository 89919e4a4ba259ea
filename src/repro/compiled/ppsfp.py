"""PPSFP runners over a compiled kernel.

:class:`CompiledSimulator` mirrors
:class:`~repro.gates.simulator.NetlistSimulator` (single pattern, all
net values, optional fault) and :class:`CompiledFaultSimulator` mirrors
:class:`~repro.faults.serial.SerialFaultSimulator` (whole campaigns
with fault dropping), but both run a block of packed patterns per word
operation, and a faulty run carries the block's live faults side by
side in one wide word (:data:`SUPERWORD_BITS`).  The fault simulator
reproduces the serial report *byte-identically*: same ``detected`` map
(values and insertion order), same ``per_pattern`` sets, same coverage
history.
"""

from __future__ import annotations

import time
from collections.abc import Sequence as SequenceABC
from functools import cached_property
from itertools import chain, compress
from operator import itemgetter
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from ..core.signal import Logic
from ..faults.faultlist import FaultList, build_fault_list
from ..faults.serial import FaultSimReport
from ..gates.netlist import Netlist
from ..gates.simulator import input_value
from ..telemetry.runtime import TELEMETRY
from .compiler import CompiledKernel, Planes, care_word, compile_netlist

WORD_BITS = 64
"""The classic PPSFP block size, and the narrowest block a campaign runs
without fault dropping: every fault then stays live to the end, so a
narrower block would only add kernel runs.  The benchmark harness's
fault-free kernel metric packs one block of this width."""

SUPERWORD_BITS = 16384
"""Bits per word of a hooked kernel run: a block of ``w`` patterns is
copied into ``SUPERWORD_BITS // w`` lanes, one live fault each, because
CPython pays the same ~25 ns of interpreter overhead per word operation
whatever the word's width.  A campaign sizes its blocks so that the
live faults fill one such run; with fault dropping a block is also held
to the ramp below (:data:`RAMP_FIRST_PATTERNS`).  A constant, not a
tunable: campaign time measured flat from 8 k to 32 k bits, and one run
holds ``2 * nets * SUPERWORD_BITS / 8`` bytes of live words (~6 MB on
``mult16``).  4 k bits without the ramp ran the harness campaign
nearly as fast as the ramp does (5.51 against 5.27 ms, 6.56 at 16 k
without it; one process, median of 40), but then a no-drop block of 64
patterns carries 64 faults per hooked run instead of 256: ``mult8``'s
no-drop campaign takes 22 runs, not 7."""

RAMP_FIRST_PATTERNS = 8
"""With fault dropping, the most patterns a campaign's first block
holds.  A few random patterns detect most faults (the first 8 detect
429 of the harness campaign's 479 ``mult16`` faults), so a short first
block drops them before any wide run carries them.  Measured in one
process on a 2-core VM (median of 40 runs) on the harness campaign and
on the two halves of the two-endpoint farm's (128 patterns): 4.95,
3.05 and 2.51 ms with 8, against 6.49, 4.54 and 3.93 ms without the
ramp.  A first cap of 4 read 4.90, 3.15 and 3.09 ms (slower on both
halves), one of 16 5.67, 2.85 and 2.84 ms (slower on the harness
campaign).  The harness campaign's gate evaluations fall from 25.5 M
to 10.8 M."""

RAMP_GROWTH = 8
"""How many times the last block's cap the next block's is (8, 64,
512, ... patterns), so a campaign whose faults resist pays at most one
extra block per cap narrower than the superword rule's block.  Growth
4 read 5.23, 3.00 and 2.44 ms on the three campaigns above (8: 4.95,
3.05 and 2.51 ms): slower on the harness campaign, within 0.07 ms on
the farm's halves."""

PATTERN_ALPHABET = "01XZ"
"""The characters of a pattern row: character ``k`` is ``Logic(k)``.

A row is one pattern, one character per input column.  The fault farm
ships a campaign's patterns as rows, and a compiled campaign packs its
words straight from them (:class:`PatternRows`)."""

_ALPHABET = PATTERN_ALPHABET.encode("ascii")
_TEXT_OF_CODES = bytes.maketrans(bytes(range(len(_ALPHABET))), _ALPHABET)
_LOGIC_OF_CHAR = {char: Logic(code)
                  for code, char in enumerate(PATTERN_ALPHABET)}
# A row character as the digits of its value and care words: 1 is
# value 1, 0 and 1 are cared for, X and Z are not.
_VALUE_DIGITS = bytes.maketrans(_ALPHABET, b"0100")
_CARE_DIGITS = bytes.maketrans(_ALPHABET, b"1100")


def _codes(inputs: Sequence[str],
           patterns: Sequence[Mapping[str, Logic]]) -> Optional[bytes]:
    """The patterns' ``Logic`` codes, row after row, one per input in
    ``inputs`` order; None if a value is missing or not a ``Logic``."""
    count = len(inputs)
    if not count or not patterns:
        return b""
    row = itemgetter(*inputs)
    try:
        rows = map(row, patterns)
        values = list(rows if count == 1 else chain.from_iterable(rows))
    except KeyError:
        return None
    if set(map(type, values)) != {Logic}:
        return None
    return bytes(values)


def pattern_text(inputs: Sequence[str],
                 patterns: Sequence[Mapping[str, Logic]]) -> bytes:
    """The patterns as :data:`PATTERN_ALPHABET` rows, back to back.

    Row ``i`` is ``patterns[i]``, one character per input in ``inputs``
    order.  This is the one converter from ``Logic`` mappings to rows:
    :func:`pack_rows` cuts its rows apart and
    :meth:`CompiledFaultSimulator.run` packs words from them
    (:func:`pack_patterns` makes the same text, but names a bad value
    input by input).  A missing or non-``Logic`` value raises the
    interpreted simulator's error for the first such (pattern, input),
    pattern by pattern, as a serial run of the patterns would.
    """
    codes = _codes(inputs, patterns)
    if codes is None:
        for pattern in patterns:
            for net in inputs:
                input_value(pattern, net)
    assert codes is not None  # a bad value raised above
    return codes.translate(_TEXT_OF_CODES)


def pack_rows(inputs: Sequence[str],
              patterns: Sequence[Mapping[str, Logic]]) -> Tuple[str, ...]:
    """One :data:`PATTERN_ALPHABET` row per pattern, in ``inputs`` order
    (:func:`pattern_text`, with its errors)."""
    count = len(inputs)
    if not count:
        return ("",) * len(patterns)
    text = pattern_text(inputs, patterns).decode("ascii")
    return tuple(text[start:start + count]
                 for start in range(0, len(text), count))


def _pack_text(text: bytes, count: int) -> Tuple[List[int], List[int]]:
    """(value, care) words per column of ``count``-character rows of
    :data:`PATTERN_ALPHABET` text; bit ``i`` of each word is row ``i``.

    Reversed, the text reads last row first, so each column (now
    counted from the right) is one extended slice that ``int(..., 2)``
    reads with row 0 as its lowest bit.
    """
    if not text:
        return [0] * count, [0] * count
    if len(text) == count:
        # Each word is one digit (a single-pattern servant or public
        # model call): read the digits, not ``count`` one-digit texts.
        return ([digit - 48 for digit in text.translate(_VALUE_DIGITS)],
                [digit - 48 for digit in text.translate(_CARE_DIGITS)])
    text = text[::-1]
    value = text.translate(_VALUE_DIGITS)
    care = text.translate(_CARE_DIGITS)
    last = count - 1
    return ([int(value[last - k::count], 2) for k in range(count)],
            [int(care[last - k::count], 2) for k in range(count)])


def pack_patterns(inputs: Sequence[str],
                  patterns: Sequence[Mapping[str, Logic]]
                  ) -> Tuple[List[int], List[int]]:
    """Pack one block of patterns into (value, care) words per input.

    Bit ``i`` of each word is pattern ``patterns[i]``.  ``Z`` packs
    like ``X`` (the kernel sees driven values only).  A missing or
    non-``Logic`` primary-input value raises the interpreted
    simulator's error for the first such input in ``inputs`` order.

    One columnar pass: the block's rows (:func:`pattern_text`'s text)
    are one ``bytes``; each input's column is an extended slice of it,
    translated to binary digits and read by one ``int(..., 2)``.
    """
    codes = _codes(inputs, patterns)
    if codes is None:
        for net in inputs:
            for pattern in patterns:
                input_value(pattern, net)
    assert codes is not None  # a bad value raised above
    return _pack_text(codes.translate(_TEXT_OF_CODES), len(inputs))


class PatternRows(SequenceABC):
    """Patterns held as :data:`PATTERN_ALPHABET` rows over ``inputs``.

    The rows must already be checked: text, one character per input,
    each in the alphabet.  :meth:`CompiledFaultSimulator.run` packs
    its words straight from their ``text`` (the rows back to back);
    whoever reads the patterns one by one (the interpreted engine) gets
    each row as a ``Logic`` dict, built on access.
    """

    def __init__(self, inputs: Sequence[str], rows: Sequence[str]):
        self.inputs = tuple(inputs)
        self.text = "".join(rows).encode("ascii")
        self._length = len(rows)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        index = range(self._length)[index]
        count = len(self.inputs)
        row = self.text[index * count:(index + 1) * count].decode("ascii")
        return dict(zip(self.inputs, map(_LOGIC_OF_CHAR.__getitem__, row)))


def _unpack_bit(v: int, c: int, bit: int) -> Logic:
    if (c >> bit) & 1:
        return Logic.ONE if (v >> bit) & 1 else Logic.ZERO
    return Logic.X


def _set_lanes(mask: int) -> List[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    digits = bin(mask)[:1:-1]  # least significant bit first
    lanes: List[int] = []
    lane = digits.find("1")
    while lane >= 0:
        lanes.append(lane)
        lane = digits.find("1", lane + 1)
    return lanes


def _injection(kernel: CompiledKernel, fault: Any) -> Tuple[int, bool]:
    """A stuck-at fault as the kernel sees it: (site, stuck at one)."""
    return kernel.site_for(fault), fault.value is Logic.ONE


def _fault_lanes(kernel: CompiledKernel, iv: Sequence[int],
                 ic: Sequence[int], width: int,
                 injections: Sequence[Tuple[int, bool]]
                 ) -> Iterator[Tuple[int, int, Planes]]:
    """Run the hooked kernel over many faults, one lane of bits each.

    ``iv`` / ``ic`` pack one block of ``width`` patterns; the faults go
    ``SUPERWORD_BITS // width`` to a run.  Fault ``k`` of a run owns
    bits ``[k * width, (k + 1) * width)`` of every word: one multiply
    copies the block into each lane, a site's mask is the OR of the
    lanes whose fault sits there and ``fv`` holds each lane's stuck
    value.  The kernel is bitwise throughout, so lanes cannot interact.
    Every mask lies inside the used lanes, ``mask * rep``, which is
    what :meth:`~repro.compiled.compiler.CompiledKernel.run_fault`
    compares the care words with to pick its flavour.
    Yields ``(lanes used, rep, run result)`` per run, in fault order;
    ``word * rep`` copies a one-lane word into every used lane.
    """
    mask = (1 << width) - 1
    lanes = SUPERWORD_BITS // width
    for first in range(0, len(injections), lanes):
        chunk = injections[first:first + lanes]
        rep = ((1 << width * len(chunk)) - 1) // mask
        fm = [0] * kernel.site_count
        fv = 0
        lane = mask
        for site, stuck_at_one in chunk:
            fm[site] |= lane
            if stuck_at_one:
                fv |= lane
            lane <<= width
        yield len(chunk), rep, kernel.run_fault(
            [word * rep for word in iv], [word * rep for word in ic],
            fm, fv, mask * rep)


def _record_work(gate_evals: int, kernel_runs: int) -> None:
    if TELEMETRY.enabled:
        metrics = TELEMETRY.metrics
        metrics.counter("compiled.gate_evals").inc(gate_evals)
        metrics.counter("compiled.kernel_runs").inc(kernel_runs)


class CompiledSimulator:
    """Drop-in levelized simulator backed by the compiled kernel.

    ``evaluate`` / ``outputs`` match
    :class:`~repro.gates.simulator.NetlistSimulator` exactly, including
    the raw echo of primary-input values (an undriven ``Z`` input stays
    ``Z`` in the returned net map) and single stuck-at fault injection.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        # Each site is resolved once per simulator.  ``_sites`` maps
        # id(fault) -> (fault, its _injection) for the first fault
        # object seen at a site, and keeps it alive so no other object
        # can take that id: a servant's tables name the same fault
        # objects over and over and stay on this one lookup.
        # ``_by_site`` maps the fault itself (a frozen dataclass: equal
        # faults, one site) to the same injection, so a caller that
        # builds equal faults per call adds nothing; both maps hold at
        # most one entry per distinct site.
        self._sites: Dict[int, Tuple[Any, Tuple[int, bool]]] = {}
        self._by_site: Dict[Any, Tuple[int, bool]] = {}

    @cached_property
    def kernel(self) -> CompiledKernel:
        """Taken from the process-wide cache on first use: a servant
        that is published but never called compiles nothing."""
        return compile_netlist(self.netlist)

    def evaluate(self, input_values: Mapping[str, Logic],
                 fault: Any = None) -> Dict[str, Logic]:
        """Evaluate every net for the given primary-input values."""
        kernel = self.kernel
        echo: Dict[str, Logic] = {}
        for net in kernel.inputs:
            value = input_value(input_values, net)
            if fault is not None and fault.is_stem and fault.net == net:
                value = fault.value
            echo[net] = value
        iv, ic = pack_patterns(kernel.inputs, [echo])
        if fault is None:
            words, cares = kernel.run_good(iv, ic)
        else:
            _, _, (words, cares) = next(_fault_lanes(
                kernel, iv, ic, 1, [_injection(kernel, fault)]))
        _record_work(kernel.gate_count, 1)
        values: Dict[str, Logic] = dict(echo)
        for index in range(len(kernel.inputs), len(kernel.nets)):
            values[kernel.nets[index]] = _unpack_bit(
                words[index], care_word(cares, index), 0)
        return values

    def _fault_free(self, input_values: Mapping[str, Logic]
                    ) -> Tuple[List[int], List[int], Planes,
                               Tuple[Logic, ...]]:
        """One packed good run: the input words, the run's planes and
        the primary outputs (an output that is also a primary input
        keeps its raw echo, ``Z`` stays ``Z``, as in :meth:`evaluate`)."""
        kernel = self.kernel
        iv, ic = pack_patterns(kernel.inputs, [input_values])
        planes = kernel.run_good(iv, ic)
        words, cares = planes
        echoed = len(kernel.inputs)
        return iv, ic, planes, tuple(
            input_values[kernel.nets[index]] if index < echoed
            else _unpack_bit(words[index], care_word(cares, index), 0)
            for index in kernel.output_index)

    def outputs(self, input_values: Mapping[str, Logic],
                fault: Any = None) -> Tuple[Logic, ...]:
        """Primary-output values only, in declaration order.

        Without a fault only the output nets are unpacked; an output
        that is also a primary input keeps its raw echo (``Z`` stays
        ``Z``), as in :meth:`evaluate`.
        """
        if fault is not None:
            values = self.evaluate(input_values, fault=fault)
            return tuple(values[net] for net in self.netlist.outputs)
        outputs = self._fault_free(input_values)[3]
        _record_work(self.kernel.gate_count, 1)
        return outputs

    def _injection_of(self, fault: Any) -> Tuple[int, bool]:
        entry = self._sites.get(id(fault))
        if entry is not None:
            return entry[1]
        injection = self._by_site.get(fault)
        if injection is None:
            injection = _injection(self.kernel, fault)
            self._by_site[fault] = injection
            self._sites[id(fault)] = (fault, injection)
        return injection

    def outputs_for_faults(self, input_values: Mapping[str, Logic],
                           faults: Sequence[Any]
                           ) -> List[Tuple[Logic, ...]]:
        """Faulty primary outputs for many faults of one input pattern.

        Equivalent to ``[self.outputs(input_values, fault=f) for f in
        faults]``; see :meth:`detection_outputs`.
        """
        return self.detection_outputs(input_values, faults)[1]

    def detection_outputs(self, input_values: Mapping[str, Logic],
                          faults: Sequence[Any]
                          ) -> Tuple[Tuple[Logic, ...],
                                     List[Tuple[Logic, ...]]]:
        """The fault-free primary outputs of one input pattern, and each
        fault's; a fault that leaves them unchanged gets the fault-free
        tuple itself.

        One pack, one good run and lane-packed faulty runs
        (:func:`_fault_lanes`, block of one pattern).  Each run's work
        beyond the kernel scales with what the faults changed: lane
        ``k`` differs from the fault-free run at an output exactly where
        ``(vg ^ vf) | (cg ^ cf)`` has bit ``k`` (the canonical encoding,
        as in :meth:`CompiledFaultSimulator._detection_words`), so only
        those (lane, output) bits are unpacked, each into a copy of the
        fault-free tuple.  Equal faulty rows of one call share a tuple.
        This is the path under detection-table construction.
        """
        kernel = self.kernel
        iv, ic, (good, good_cares), fault_free = \
            self._fault_free(input_values)
        sites = self._sites
        try:
            injections = [sites[id(fault)][1] for fault in faults]
        except KeyError:
            injections = list(map(self._injection_of, faults))
        results: List[Tuple[Logic, ...]] = []
        shared: Dict[Tuple[Logic, ...], Tuple[Logic, ...]] = {}
        runs = 1
        for count, rep, (words, cares) in _fault_lanes(kernel, iv, ic, 1,
                                                       injections):
            runs += 1
            rows = [fault_free] * count
            changed: Dict[int, List[Logic]] = {}
            three_valued = type(cares) is not int
            for slot, index in enumerate(kernel.output_index):
                value = words[index]
                diff = good[index] * rep ^ value
                if three_valued:  # else the cares are the good run's
                    diff |= care_word(good_cares, index) * rep \
                        ^ cares[index]
                if not diff:
                    continue
                care = care_word(cares, index)
                for lane in _set_lanes(diff):
                    row = changed.get(lane)
                    if row is None:
                        row = changed[lane] = list(fault_free)
                    row[slot] = _unpack_bit(value, care, lane)
            for lane, row in changed.items():
                faulty = tuple(row)
                rows[lane] = shared.setdefault(faulty, faulty)
            results += rows
        _record_work(kernel.gate_count * (1 + len(injections)), runs)
        return fault_free, results


class CompiledFaultSimulator:
    """PPSFP stuck-at fault simulation matching the serial oracle.

    Each block of patterns runs the fault-free kernel once, then the
    hooked kernel over the still-active faults, one lane each
    (:func:`_fault_lanes`); a fault's lane of the detection word
    ``(vg ^ vf) | (cg ^ cf)`` over the primary outputs marks every
    detecting pattern of the block at once.  A block is as wide as one
    hooked run's lanes allow for the live faults and, with
    ``drop_detected``, no wider than the ramp allows, so the faults a
    few patterns detect leave the active list after one short block
    rather than after a wide one.
    """

    def __init__(self, netlist: Netlist,
                 fault_list: Optional[FaultList] = None):
        self.netlist = netlist
        self.kernel: CompiledKernel = compile_netlist(netlist)
        self.fault_list = fault_list or build_fault_list(netlist)
        # ``_injection`` of every fault, inlined: a call per fault was
        # about a third of resolving a list.
        site_for = self.kernel.site_for
        one = Logic.ONE
        self._sites: Dict[str, Tuple[int, bool]] = {
            name: (site_for(fault), fault.value is one)
            for name, fault in self.fault_list.items()}

    def _detection_words(self, iv: List[int], ic: List[int], width: int,
                         injections: Sequence[Tuple[int, bool]],
                         first_only: bool
                         ) -> Tuple[List[Tuple[int, int]], int]:
        """``(position, detection word)`` for each fault of
        ``injections`` that some pattern of the packed block ``iv`` /
        ``ic`` detects, in position order, and the kernel runs that
        took.  Bit ``i`` of a word is set iff pattern ``i`` detects the
        fault; with ``first_only`` the word's place holds the index of
        its lowest set bit instead, the first detecting pattern.

        Only the detected lanes are read: the set bits of each run's
        detection word ``diff`` are walked in its binary text, jumping
        to the next lane after each hit, so the work beyond the kernel
        scales with what the block detects, not with its lanes.
        """
        kernel = self.kernel
        good, good_cares = kernel.run_good(iv, ic)
        outputs = kernel.output_index
        hits: List[Tuple[int, int]] = []
        runs = 1
        first = 0  # position of the run's lane 0
        for count, rep, (faulty, cares) in _fault_lanes(
                kernel, iv, ic, width, injections):
            runs += 1
            diff = 0
            for index in outputs:
                diff |= good[index] * rep ^ faulty[index]
            if type(cares) is not int:
                # Three-valued: a forced lane can move a care word too.
                # (A two-valued run's plane is the good run's, copied
                # into every lane.)
                for index in outputs:
                    diff |= care_word(good_cares, index) * rep \
                        ^ cares[index]
            # Lane k is bits [k * width, (k + 1) * width): characters
            # [k * width, (k + 1) * width) of the reversed binary text.
            digits = bin(diff)[:1:-1]
            bit = digits.find("1")
            while bit >= 0:
                lane = bit // width
                low = lane * width
                end = low + width
                hits.append((first + lane, bit - low if first_only
                             else int(digits[low:end][::-1], 2)))
                bit = digits.find("1", end)
            first += count
        return hits, runs

    def run(self, patterns: Sequence[Mapping[str, Logic]],
            drop_detected: bool = True) -> FaultSimReport:
        """Simulate every pattern against every remaining fault.

        The returned report is identical to
        :meth:`repro.faults.serial.SerialFaultSimulator.run` on the
        same netlist, fault list and patterns -- including the
        insertion order of ``detected`` and the exact per-pattern sets.

        A block holds ``SUPERWORD_BITS // live`` patterns, so that its
        live faults fill one hooked run, capped at the patterns left.
        The floor is one pattern with ``drop_detected`` and
        :data:`WORD_BITS` without it (no fault ever leaves, so a
        narrower block only adds runs).  Lanes x width stays within
        ``SUPERWORD_BITS`` either way.  With ``drop_detected`` the
        blocks also ramp: the first holds at most
        :data:`RAMP_FIRST_PATTERNS` patterns and each cap is
        :data:`RAMP_GROWTH` times the last, so the faults the first
        few patterns detect leave before a wide block carries them.

        :class:`PatternRows` (over the kernel's inputs) give their text;
        other patterns become text once, up front (:func:`pattern_text`,
        with its errors), and every block packs its words from a slice
        of it, with no ``Logic`` dict in between.
        """
        inputs = self.kernel.inputs
        count = len(inputs)
        if isinstance(patterns, PatternRows):
            text = patterns.text
        else:
            patterns = list(patterns)
            text = pattern_text(inputs, patterns)
        remaining: List[str] = list(self.fault_list.names())
        injections = list(map(self._sites.__getitem__, remaining))
        report = FaultSimReport(total_faults=len(remaining))
        per_pattern = report.per_pattern = [
            set() for _ in range(len(patterns))]
        detected = report.detected
        floor = 1 if drop_detected else WORD_BITS
        cap = RAMP_FIRST_PATTERNS if drop_detected else len(patterns)
        growth = RAMP_GROWTH if drop_detected else 1
        begin = time.perf_counter()
        evals = blocks = kernel_runs = start = 0
        while remaining and start < len(patterns):
            width = min(max(SUPERWORD_BITS // len(remaining), floor),
                        cap, len(patterns) - start)
            cap *= growth
            hits, runs = self._detection_words(
                *_pack_text(text[start * count:(start + width) * count],
                            count),
                width, injections, drop_detected)
            blocks += 1
            kernel_runs += runs
            evals += self.kernel.gate_count * width * (1 + len(remaining))
            if drop_detected:
                # Serial inserts detections pattern-major (pattern
                # index, then fault-list order): a stable sort of the
                # hits, which come in fault-list order, on the first
                # detecting pattern.
                keep = bytearray(b"\x01") * len(remaining)
                for position, offset in sorted(hits, key=itemgetter(1)):
                    name = remaining[position]
                    index = start + offset
                    per_pattern[index].add(name)
                    detected[name] = index
                    keep[position] = 0
                remaining = list(compress(remaining, keep))
                injections = list(compress(injections, keep))
            else:
                self._record_every_detection(report, start, remaining,
                                             hits)
            start += width
        _record_work(evals, kernel_runs)
        if TELEMETRY.enabled:
            elapsed = time.perf_counter() - begin
            metrics = TELEMETRY.metrics
            metrics.counter("compiled.eval_seconds").inc(elapsed)
            metrics.counter("compiled.blocks").inc(blocks)
            if elapsed > 0:
                metrics.gauge("compiled.gate_evals_per_second").set(
                    evals / elapsed)
        return report

    @staticmethod
    def _record_every_detection(report: FaultSimReport, start: int,
                                names: Sequence[str],
                                hits: Sequence[Tuple[int, int]]) -> None:
        """Without dropping: every detecting pattern of each hit goes
        into ``per_pattern``, and ``detected`` holds each fault's last
        detecting index, inserted in the order of first detections."""
        per_pattern = report.per_pattern
        detected = report.detected
        # (first detecting index, name, last detecting index) per fault
        # this block detects for the first time.
        new: List[Tuple[int, str, int]] = []
        for position, word in hits:
            name = names[position]
            bits = word
            while bits:
                low = bits & -bits
                per_pattern[start + low.bit_length() - 1].add(name)
                bits ^= low
            last = start + word.bit_length() - 1
            if name in detected:
                detected[name] = last
            else:
                new.append((start + (word & -word).bit_length() - 1,
                            name, last))
        for _, name, index in sorted(new, key=itemgetter(0)):
            detected[name] = index

    def detects(self, pattern: Mapping[str, Logic],
                fault_name: str) -> bool:
        """Whether one pattern detects one fault (no dropping)."""
        return bool(self.detecting(pattern, (fault_name,)))

    def detecting(self, pattern: Mapping[str, Logic],
                  names: Sequence[str]) -> List[str]:
        """The subset of ``names`` detected by one pattern, in order.

        The compiled replacement for the interpreted ``detected_by``
        inner loop of random-phase ATPG: a block of one pattern, so one
        hooked kernel run probes up to ``SUPERWORD_BITS`` faults.
        """
        names = list(names)
        iv, ic = pack_patterns(self.kernel.inputs, [pattern])
        hits, runs = self._detection_words(
            iv, ic, 1, list(map(self._sites.__getitem__, names)), True)
        _record_work(self.kernel.gate_count * (1 + len(names)), runs)
        return [names[position] for position, _ in hits]
