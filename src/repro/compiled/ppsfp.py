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
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from ..core.signal import Logic
from ..faults.faultlist import FaultList, build_fault_list
from ..faults.serial import FaultSimReport
from ..gates.netlist import Netlist
from ..gates.simulator import input_value
from ..telemetry.runtime import TELEMETRY
from .compiler import CompiledKernel, compile_netlist

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
live faults fill one such run.  A constant, not a tunable: campaign
time measured flat from 8 k to 32 k bits, and one run holds ``2 * nets
* SUPERWORD_BITS / 8`` bytes of live words (~6 MB on ``mult16``)."""

# A pattern's Logic codes as the digits of its value and care words:
# ONE is value 1, ONE and ZERO are cared for, X and Z are not.
_VALUE_DIGITS = bytes(b"01"[code == Logic.ONE] for code in range(256))
_CARE_DIGITS = bytes(b"01"[code in (Logic.ZERO, Logic.ONE)]
                     for code in range(256))


def pack_patterns(inputs: Sequence[str],
                  patterns: Sequence[Mapping[str, Logic]]
                  ) -> Tuple[List[int], List[int]]:
    """Pack one block of patterns into (value, care) words per input.

    Bit ``i`` of each word is pattern ``patterns[i]``.  ``Z`` packs
    like ``X`` (the kernel sees driven values only).  A missing or
    non-``Logic`` primary-input value raises the interpreted
    simulator's error for the first such input in ``inputs`` order.

    One columnar pass: the block's codes, last pattern first, become
    one ``bytes``; each input's column is an extended slice of it,
    translated to binary digits and read by one ``int(..., 2)``.
    """
    count = len(inputs)
    if not count or not patterns:
        return [0] * count, [0] * count
    row = itemgetter(*inputs)
    try:
        rows = map(row, reversed(patterns))
        values = list(rows if count == 1 else chain.from_iterable(rows))
    except KeyError:
        values = None
    if values is None or set(map(type, values)) != {Logic}:
        for net in inputs:
            for pattern in patterns:
                input_value(pattern, net)
    codes = bytes(values)
    value = codes.translate(_VALUE_DIGITS)
    care = codes.translate(_CARE_DIGITS)
    if len(patterns) == 1:
        # Each word is one digit (a single-pattern servant or public
        # model call): read the digits, not ``count`` one-digit texts.
        return [digit - 48 for digit in value], [digit - 48 for digit in care]
    return ([int(value[k::count], 2) for k in range(count)],
            [int(care[k::count], 2) for k in range(count)])


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
                 ) -> Iterator[Tuple[int, int, Tuple[int, ...]]]:
    """Run the hooked kernel over many faults, one lane of bits each.

    ``iv`` / ``ic`` pack one block of ``width`` patterns; the faults go
    ``SUPERWORD_BITS // width`` to a run.  Fault ``k`` of a run owns
    bits ``[k * width, (k + 1) * width)`` of every word: one multiply
    copies the block into each lane, a site's mask is the OR of the
    lanes whose fault sits there and ``fv`` holds each lane's stuck
    value.  The kernel is bitwise throughout, so lanes cannot interact.
    Yields ``(lanes used, rep, run_fault result)`` per run, in fault
    order; ``word * rep`` copies a one-lane word into every used lane.
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
            fm, fv)


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
        # id(fault) -> (fault, its _injection): a servant's tables name
        # the same fault objects over and over, so each site is resolved
        # once per simulator.  The entry keeps its fault alive, so no
        # other object can take that id while it is cached.
        self._sites: Dict[int, Tuple[Any, Tuple[int, bool]]] = {}

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
            words = kernel.run_good(iv, ic)
        else:
            _, _, words = next(_fault_lanes(kernel, iv, ic, 1,
                                            [_injection(kernel, fault)]))
        _record_work(kernel.gate_count, 1)
        values: Dict[str, Logic] = dict(echo)
        for index in range(len(kernel.inputs), len(kernel.nets)):
            values[kernel.nets[index]] = _unpack_bit(
                words[2 * index], words[2 * index + 1], 0)
        return values

    def _fault_free(self, input_values: Mapping[str, Logic]
                    ) -> Tuple[List[int], List[int], Tuple[int, ...],
                               Tuple[Logic, ...]]:
        """One packed good run: the input words, every net's words and
        the primary outputs (an output that is also a primary input
        keeps its raw echo, ``Z`` stays ``Z``, as in :meth:`evaluate`)."""
        kernel = self.kernel
        iv, ic = pack_patterns(kernel.inputs, [input_values])
        words = kernel.run_good(iv, ic)
        echoed = len(kernel.inputs)
        return iv, ic, words, tuple(
            input_values[kernel.nets[index]] if index < echoed
            else _unpack_bit(words[2 * index], words[2 * index + 1], 0)
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
        iv, ic, good, fault_free = self._fault_free(input_values)
        sites = self._sites
        try:
            injections = [sites[id(fault)][1] for fault in faults]
        except KeyError:
            for fault in faults:
                if id(fault) not in sites:
                    sites[id(fault)] = (fault, _injection(kernel, fault))
            injections = [sites[id(fault)][1] for fault in faults]
        results: List[Tuple[Logic, ...]] = []
        shared: Dict[Tuple[Logic, ...], Tuple[Logic, ...]] = {}
        runs = 1
        for count, rep, words in _fault_lanes(kernel, iv, ic, 1,
                                              injections):
            runs += 1
            rows = [fault_free] * count
            changed: Dict[int, List[Logic]] = {}
            for slot, index in enumerate(kernel.output_index):
                pos = 2 * index
                value, care = words[pos], words[pos + 1]
                diff = (good[pos] * rep ^ value) \
                    | (good[pos + 1] * rep ^ care)
                if not diff:
                    continue
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
    hooked run's lanes allow for the live faults, so with
    ``drop_detected`` the faults a few patterns detect leave the active
    list after one short block rather than after a fixed-width one.
    """

    def __init__(self, netlist: Netlist,
                 fault_list: Optional[FaultList] = None):
        self.netlist = netlist
        self.kernel: CompiledKernel = compile_netlist(netlist)
        self.fault_list = fault_list or build_fault_list(netlist)
        self._sites: Dict[str, Tuple[int, bool]] = {
            name: _injection(self.kernel, self.fault_list.fault(name))
            for name in self.fault_list.names()}
        self._out_pos: Tuple[int, ...] = tuple(
            2 * index for index in self.kernel.output_index)

    def _detection_words(self, block: Sequence[Mapping[str, Logic]],
                         names: Sequence[str]) -> Tuple[List[int], int]:
        """One detection word per fault of ``names`` (bit ``i`` set iff
        ``block[i]`` detects it) and the kernel runs that took."""
        kernel = self.kernel
        width = len(block)
        iv, ic = pack_patterns(kernel.inputs, block)
        good = kernel.run_good(iv, ic)
        detections: List[int] = []
        runs = 1
        for count, rep, faulty in _fault_lanes(
                kernel, iv, ic, width,
                [self._sites[name] for name in names]):
            runs += 1
            diff = 0
            for pos in self._out_pos:
                diff |= (good[pos] * rep ^ faulty[pos]) \
                    | (good[pos + 1] * rep ^ faulty[pos + 1])
            # Lane k is bits [k * width, (k + 1) * width): in the
            # binary text, the k-th slice counting from the right.
            digits = format(diff, f"0{count * width}b")
            detections += [int(digits[end - width:end], 2)
                           for end in range(len(digits), 0, -width)]
        return detections, runs

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
        ``SUPERWORD_BITS`` either way.
        """
        remaining: List[str] = list(self.fault_list.names())
        report = FaultSimReport(total_faults=len(remaining))
        patterns = list(patterns)
        report.per_pattern = [set() for _ in patterns]
        floor = 1 if drop_detected else WORD_BITS
        begin = time.perf_counter()
        evals = blocks = kernel_runs = start = 0
        while remaining and start < len(patterns):
            width = min(max(SUPERWORD_BITS // len(remaining), floor),
                        len(patterns) - start)
            block = patterns[start:start + width]
            detections, runs = self._detection_words(block, remaining)
            blocks += 1
            kernel_runs += runs
            evals += self.kernel.gate_count * width * (1 + len(remaining))
            # (first detecting index, name, index to report) per fault
            # this block detects for the first time.
            hits: List[Tuple[int, str, int]] = []
            still: List[str] = []
            for name, diff in zip(remaining, detections):
                if not diff:
                    still.append(name)
                    continue
                first = start + (diff & -diff).bit_length() - 1
                if drop_detected:
                    report.per_pattern[first].add(name)
                    hits.append((first, name, first))
                    continue
                still.append(name)
                bits = diff
                while bits:
                    low = (bits & -bits).bit_length() - 1
                    report.per_pattern[start + low].add(name)
                    bits &= bits - 1
                last = start + diff.bit_length() - 1
                if name in report.detected:
                    report.detected[name] = last
                else:
                    hits.append((first, name, last))
            # Serial inserts detections pattern-major (pattern index,
            # then fault-list order); a stable sort on the first
            # detecting index reproduces that insertion order.
            for _, name, index in sorted(hits, key=lambda hit: hit[0]):
                report.detected[name] = index
            remaining = still
            start += width
        # Nothing is live past ``start``, but the serial oracle still
        # reads those patterns: raise its error on a bad one too.
        pack_patterns(self.kernel.inputs, patterns[start:])
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
        detections, runs = self._detection_words([pattern], names)
        _record_work(self.kernel.gate_count * (1 + len(names)), runs)
        return [name for name, diff in zip(names, detections) if diff]
