"""PPSFP runners over a compiled kernel.

:class:`CompiledSimulator` mirrors
:class:`~repro.gates.simulator.NetlistSimulator` (single pattern, all
net values, optional fault) and :class:`CompiledFaultSimulator` mirrors
:class:`~repro.faults.serial.SerialFaultSimulator` (whole campaigns
with fault dropping), but both run 64 packed patterns per word
operation.  The fault simulator reproduces the serial report
*byte-identically*: same ``detected`` map (values and insertion
order), same ``per_pattern`` sets, same coverage history.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import SimulationError
from ..core.signal import Logic
from ..faults.faultlist import FaultList, build_fault_list
from ..faults.serial import FaultSimReport
from ..gates.netlist import Netlist
from ..telemetry.runtime import TELEMETRY
from .compiler import CompiledKernel, compile_netlist

WORD_BITS = 64
"""Patterns packed per word.  Python ints are arbitrary precision, but
64 keeps every word in the fast fixed-digit regime of CPython's int
arithmetic and matches the classic PPSFP block size."""


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


class CompiledSimulator:
    """Drop-in levelized simulator backed by the compiled kernel.

    ``evaluate`` / ``outputs`` match
    :class:`~repro.gates.simulator.NetlistSimulator` exactly, including
    the raw echo of primary-input values (an undriven ``Z`` input stays
    ``Z`` in the returned net map) and single stuck-at fault injection.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.kernel: CompiledKernel = compile_netlist(netlist)

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
            fm = [0] * kernel.site_count
            fm[kernel.site_for(fault)] = 1
            words = kernel.run_fault(iv, ic, fm,
                                     1 if fault.value is Logic.ONE else 0)
        if TELEMETRY.enabled:
            TELEMETRY.metrics.counter("compiled.gate_evals").inc(
                kernel.gate_count)
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
        faults]`` but lane-packed: each fault occupies its own bit lane
        of a replicated-pattern word, so one ``run_fault`` probes up to
        64 faults.  Distinct faults never interfere -- a site's
        injection mask selects only the lanes carrying a fault at that
        site, and the stuck-value word is per lane.  This is the packed
        path under detection-table construction.
        """
        kernel = self.kernel
        row: Dict[str, Logic] = {}
        for net in kernel.inputs:
            try:
                row[net] = input_values[net]
            except KeyError:
                raise SimulationError(
                    f"missing value for primary input {net!r}") from None
        iv1, ic1 = pack_patterns(kernel.inputs, [row])
        results: List[Tuple[Logic, ...]] = []
        faults = list(faults)
        evals = 0
        for start in range(0, len(faults), WORD_BITS):
            chunk = faults[start:start + WORD_BITS]
            mask = (1 << len(chunk)) - 1
            iv = [mask if word & 1 else 0 for word in iv1]
            ic = [mask if word & 1 else 0 for word in ic1]
            fm = [0] * kernel.site_count
            fv = 0
            for lane, fault in enumerate(chunk):
                fm[kernel.site_for(fault)] |= 1 << lane
                if fault.value is Logic.ONE:
                    fv |= 1 << lane
            words = kernel.run_fault(iv, ic, fm, fv)
            evals += kernel.gate_count
            # Most faults of a chunk leave the outputs as lane 0 has
            # them: find the lanes that differ from lane 0 on any output
            # word, unpack only those, and let the rest share one tuple.
            differs = 0
            for index in kernel.output_index:
                v, c = words[2 * index], words[2 * index + 1]
                differs |= (v ^ (mask if v & 1 else 0)) \
                    | (c ^ (mask if c & 1 else 0))
            lane0 = _unpack_lane(words, kernel.output_index, 0)
            for lane in range(len(chunk)):
                results.append(
                    _unpack_lane(words, kernel.output_index, lane)
                    if (differs >> lane) & 1 else lane0)
        if TELEMETRY.enabled and evals:
            TELEMETRY.metrics.counter("compiled.gate_evals").inc(evals)
        return results


class CompiledFaultSimulator:
    """PPSFP stuck-at fault simulation matching the serial oracle.

    Each 64-pattern block runs the fault-free kernel once, then the
    hooked kernel once per still-active fault; the detection word
    ``(vg ^ vf) | (cg ^ cf)`` over the primary outputs marks every
    detecting pattern of the block at once.  With ``drop_detected`` a
    detected fault leaves the active list for all later blocks.
    """

    def __init__(self, netlist: Netlist,
                 fault_list: Optional[FaultList] = None):
        self.netlist = netlist
        self.kernel: CompiledKernel = compile_netlist(netlist)
        self.fault_list = fault_list or build_fault_list(netlist)
        kernel = self.kernel
        self._sites: Dict[str, Tuple[int, int]] = {}
        for name in self.fault_list.names():
            fault = self.fault_list.fault(name)
            self._sites[name] = (kernel.site_for(fault),
                                 1 if fault.value is Logic.ONE else 0)
        self._out_pos: Tuple[int, ...] = tuple(
            2 * index for index in kernel.output_index)

    # ------------------------------------------------------------------

    def run(self, patterns: Sequence[Mapping[str, Logic]],
            drop_detected: bool = True) -> FaultSimReport:
        """Simulate every pattern against every remaining fault.

        The returned report is identical to
        :meth:`repro.faults.serial.SerialFaultSimulator.run` on the
        same netlist, fault list and patterns -- including the
        insertion order of ``detected`` and the exact per-pattern sets.
        """
        kernel = self.kernel
        remaining: List[str] = list(self.fault_list.names())
        report = FaultSimReport(total_faults=len(remaining))
        patterns = list(patterns)
        report.per_pattern = [set() for _ in patterns]
        fm = [0] * kernel.site_count
        begin = time.perf_counter()
        evals = 0
        blocks = 0
        last_bits: Dict[str, int] = {}
        for start in range(0, len(patterns), WORD_BITS):
            block = patterns[start:start + WORD_BITS]
            width = len(block)
            mask = (1 << width) - 1
            iv, ic = pack_patterns(kernel.inputs, block)
            good = kernel.run_good(iv, ic)
            good_out = [(good[pos], good[pos + 1])
                        for pos in self._out_pos]
            blocks += 1
            evals += kernel.gate_count * width
            hits: List[Tuple[str, int]] = []
            still: List[str] = []
            for name in remaining:
                site, value = self._sites[name]
                fm[site] = mask
                faulty = kernel.run_fault(iv, ic, fm,
                                          mask if value else 0)
                fm[site] = 0
                evals += kernel.gate_count * width
                diff = 0
                for pos, (gv, gc) in zip(self._out_pos, good_out):
                    diff |= (gv ^ faulty[pos]) | (gc ^ faulty[pos + 1])
                if not diff:
                    still.append(name)
                    continue
                first = (diff & -diff).bit_length() - 1
                if drop_detected:
                    report.per_pattern[start + first].add(name)
                    hits.append((name, start + first))
                else:
                    bits = diff
                    while bits:
                        low = (bits & -bits).bit_length() - 1
                        report.per_pattern[start + low].add(name)
                        bits &= bits - 1
                    last = diff.bit_length() - 1
                    if name in last_bits:
                        report.detected[name] = start + last
                    else:
                        hits.append((name, start + first))
                        last_bits[name] = start + last
                    still.append(name)
            # Serial inserts detections pattern-major (pattern index,
            # then fault-list order); a stable sort on the first
            # detecting index reproduces that insertion order.
            for name, first in sorted(hits, key=lambda item: item[1]):
                if drop_detected:
                    report.detected[name] = first
                else:
                    report.detected[name] = last_bits[name]
            remaining = still if drop_detected else remaining
        if TELEMETRY.enabled:
            elapsed = time.perf_counter() - begin
            metrics = TELEMETRY.metrics
            metrics.counter("compiled.gate_evals").inc(evals)
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

        This is the compiled replacement for the interpreted
        ``detected_by`` inner loop of random-phase ATPG.  Faults are
        lane-packed: the pattern is replicated across the word and each
        fault of a 64-chunk occupies its own bit lane, so one hooked
        kernel run probes 64 faults at once (injection masks select
        only the lanes carrying a fault at that site, and the stuck
        value is per lane -- distinct faults never interfere).
        """
        kernel = self.kernel
        iv1, ic1 = pack_patterns(kernel.inputs, [pattern])
        good = kernel.run_good(iv1, ic1)
        hits: List[str] = []
        names = list(names)
        evals = kernel.gate_count
        for start in range(0, len(names), WORD_BITS):
            chunk = names[start:start + WORD_BITS]
            mask = (1 << len(chunk)) - 1
            iv = [mask if word & 1 else 0 for word in iv1]
            ic = [mask if word & 1 else 0 for word in ic1]
            fm = [0] * kernel.site_count
            fv = 0
            for lane, name in enumerate(chunk):
                site, value = self._sites[name]
                fm[site] |= 1 << lane
                if value:
                    fv |= 1 << lane
            faulty = kernel.run_fault(iv, ic, fm, fv)
            evals += kernel.gate_count
            diff = 0
            for pos in self._out_pos:
                gv = mask if good[pos] & 1 else 0
                gc = mask if good[pos + 1] & 1 else 0
                diff |= (gv ^ faulty[pos]) | (gc ^ faulty[pos + 1])
            for lane, name in enumerate(chunk):
                if (diff >> lane) & 1:
                    hits.append(name)
        if TELEMETRY.enabled:
            TELEMETRY.metrics.counter("compiled.gate_evals").inc(evals)
        return hits
