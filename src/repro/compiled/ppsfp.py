"""PPSFP runners over a compiled kernel.

:class:`CompiledSimulator` mirrors
:class:`~repro.gates.simulator.NetlistSimulator` (single pattern, all
net values, optional fault) and :class:`CompiledFaultSimulator` mirrors
:class:`~repro.faults.serial.SerialFaultSimulator` (whole campaigns
with fault dropping), but both run 64 packed patterns per word
operation, and a faulty run carries a few hundred faults side by side
in one wide word (:data:`SUPERWORD_BITS`).  The fault simulator
reproduces the serial report *byte-identically*: same ``detected`` map
(values and insertion order), same ``per_pattern`` sets, same coverage
history.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from ..core.errors import SimulationError
from ..core.signal import Logic
from ..faults.faultlist import FaultList, build_fault_list
from ..faults.serial import FaultSimReport
from ..gates.netlist import Netlist
from ..telemetry.runtime import TELEMETRY
from .compiler import CompiledKernel, compile_netlist

WORD_BITS = 64
"""Patterns packed per block: the classic PPSFP block size, and the
granularity of fault dropping."""

SUPERWORD_BITS = 16384
"""Bits per word of a hooked kernel run: a block of ``w`` patterns is
copied into ``SUPERWORD_BITS // w`` lanes, one live fault each, because
CPython pays the same ~25 ns of interpreter overhead per word operation
whatever the word's width.  A constant, not a tunable: campaign time
measured flat from 8 k to 32 k bits, and one run holds ``2 * nets *
SUPERWORD_BITS / 8`` bytes of live words (~6 MB on ``mult16``)."""


def pack_patterns(inputs: Sequence[str],
                  patterns: Sequence[Mapping[str, Logic]]
                  ) -> Tuple[List[int], List[int]]:
    """Pack one block of patterns into (value, care) words per input.

    Bit ``i`` of each word is pattern ``patterns[i]``.  ``Z`` packs
    like ``X`` (the kernel sees driven values only).  Raises the same
    error as the interpreted simulator on a missing primary input.
    """
    iv: List[int] = []
    ic: List[int] = []
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


def _unpack_bit(v: int, c: int, bit: int) -> Logic:
    if (c >> bit) & 1:
        return Logic.ONE if (v >> bit) & 1 else Logic.ZERO
    return Logic.X


def _unpack_lane(words: Sequence[int], output_index: Sequence[int],
                 lane: int) -> Tuple[Logic, ...]:
    """One lane's primary-output values out of a kernel result."""
    return tuple(_unpack_bit(words[2 * index], words[2 * index + 1], lane)
                 for index in output_index)


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
            try:
                value = input_values[net]
            except KeyError:
                raise SimulationError(
                    f"missing value for primary input {net!r}") from None
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

    def outputs(self, input_values: Mapping[str, Logic],
                fault: Any = None) -> Tuple[Logic, ...]:
        """Primary-output values only, in declaration order."""
        values = self.evaluate(input_values, fault=fault)
        return tuple(values[net] for net in self.netlist.outputs)

    def outputs_for_faults(self, input_values: Mapping[str, Logic],
                           faults: Sequence[Any]
                           ) -> List[Tuple[Logic, ...]]:
        """Faulty primary outputs for many faults of one input pattern.

        Equivalent to ``[self.outputs(input_values, fault=f) for f in
        faults]`` but lane-packed (:func:`_fault_lanes`, block of one
        pattern).  This is the path under detection-table construction.
        """
        kernel = self.kernel
        iv, ic = pack_patterns(kernel.inputs, [input_values])
        injections = [_injection(kernel, fault) for fault in faults]
        results: List[Tuple[Logic, ...]] = []
        runs = 0
        for count, rep, words in _fault_lanes(kernel, iv, ic, 1,
                                              injections):
            runs += 1
            # Lanes that agree on every output word share one row, and
            # most faults leave the outputs as lane 0 has them: split
            # the lanes word by word, then unpack one lane per group
            # and hand its tuple to the group's other lanes.
            groups = [rep]
            for index in kernel.output_index:
                for word in words[2 * index:2 * index + 2]:
                    other = ~word
                    groups = [part for group in groups
                              for part in (group & word, group & other)
                              if part]
            rows = [_unpack_lane(words, kernel.output_index, 0)] * count
            for group in groups:
                if group & 1:
                    continue  # lane 0's own group: already in place
                row = _unpack_lane(words, kernel.output_index,
                                   (group & -group).bit_length() - 1)
                while group:
                    low = group & -group
                    rows[low.bit_length() - 1] = row
                    group ^= low
            results += rows
        _record_work(kernel.gate_count * len(injections), runs)
        return results


class CompiledFaultSimulator:
    """PPSFP stuck-at fault simulation matching the serial oracle.

    Each 64-pattern block runs the fault-free kernel once, then the
    hooked kernel once per ``SUPERWORD_BITS // 64`` still-active faults
    (:func:`_fault_lanes`); a fault's lane of the detection word
    ``(vg ^ vf) | (cg ^ cf)`` over the primary outputs marks every
    detecting pattern of the block at once.  With ``drop_detected`` a
    detected fault leaves the active list for all later blocks.
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
        mask = (1 << width) - 1
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
            for _ in range(count):
                detections.append(diff & mask)
                diff >>= width
        return detections, runs

    def run(self, patterns: Sequence[Mapping[str, Logic]],
            drop_detected: bool = True) -> FaultSimReport:
        """Simulate every pattern against every remaining fault.

        The returned report is identical to
        :meth:`repro.faults.serial.SerialFaultSimulator.run` on the
        same netlist, fault list and patterns -- including the
        insertion order of ``detected`` and the exact per-pattern sets.
        """
        remaining: List[str] = list(self.fault_list.names())
        report = FaultSimReport(total_faults=len(remaining))
        patterns = list(patterns)
        report.per_pattern = [set() for _ in patterns]
        begin = time.perf_counter()
        evals = blocks = kernel_runs = 0
        for start in range(0, len(patterns), WORD_BITS):
            block = patterns[start:start + WORD_BITS]
            detections, runs = self._detection_words(block, remaining)
            blocks += 1
            kernel_runs += runs
            evals += self.kernel.gate_count * len(block) \
                * (1 + len(remaining))
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
