"""Satellite 2: sharded fault-simulation speedup on the chatty bench.

Times a serial campaign against ``parallel_fault_simulate`` with four
workers on the chatty random netlist (168 gates, ~630 collapsed
faults), asserts the merged report is byte-identical to the serial one,
and persists the headline numbers as ``BENCH_faultsim.json`` through
the :func:`repro.bench.reporting.write_bench_report` hook.

The >= 2x speedup acceptance bar only applies on hosts with at least
four cores; single-core CI boxes still run the benchmark for the
equality guarantee and the recorded trajectory, where fork/pickle
overhead legitimately makes the parallel run slower.
"""

import os
import random
import time

from repro.bench import write_bench_report
from repro.bench.faultbench import chatty_fault_bench
from repro.core import Logic
from repro.faults import SerialFaultSimulator, build_fault_list
from repro.parallel import diff_reports, parallel_fault_simulate

WORKERS = 4
PATTERNS = int(os.environ.get("REPRO_PARALLEL_PATTERNS", "24"))
SPEEDUP_FLOOR = 2.0


def _campaigns():
    netlist = chatty_fault_bench()
    fault_list = build_fault_list(netlist)
    rng = random.Random(0)
    patterns = [{net: Logic(rng.getrandbits(1))
                 for net in netlist.inputs}
                for _ in range(PATTERNS)]

    begin = time.perf_counter()
    serial = SerialFaultSimulator(netlist, fault_list).run(patterns)
    serial_wall = time.perf_counter() - begin

    begin = time.perf_counter()
    parallel = parallel_fault_simulate(netlist, patterns,
                                       fault_list=fault_list,
                                       workers=WORKERS, engine="event")
    parallel_wall = time.perf_counter() - begin
    return netlist, fault_list, serial, serial_wall, parallel, \
        parallel_wall


def test_parallel_speedup(benchmark):
    netlist, fault_list, serial, serial_wall, parallel, parallel_wall = \
        benchmark.pedantic(_campaigns, rounds=1, iterations=1)

    problems = diff_reports(serial, parallel)
    assert problems == [], problems
    assert parallel.detected == serial.detected
    assert parallel.undetected(fault_list.names()) \
        == serial.undetected(fault_list.names())

    cores = os.cpu_count() or 1
    speedup = serial_wall / parallel_wall if parallel_wall else 0.0
    print()
    print(f"chatty fault bench: {netlist.gate_count()} gates, "
          f"{len(fault_list)} faults, {PATTERNS} patterns")
    print(f"serial   {serial_wall:.2f}s")
    print(f"parallel {parallel_wall:.2f}s ({WORKERS} workers on "
          f"{cores} cores) -> speedup {speedup:.2f}x")

    path = write_bench_report("faultsim", {
        "bench": "chatty",
        "gates": netlist.gate_count(),
        "faults": len(fault_list),
        "patterns": PATTERNS,
        "workers": WORKERS,
        "cores": cores,
        "serial_wall_seconds": round(serial_wall, 4),
        "parallel_wall_seconds": round(parallel_wall, 4),
        "speedup": round(speedup, 3),
        "coverage": serial.coverage,
        "detected": serial.detected_count,
        "report_identical": True,
    })
    print(f"bench report written to {path}")

    # The acceptance bar is a true parallelism claim, so it only binds
    # where the hardware can express it.
    if cores >= 4:
        assert speedup >= SPEEDUP_FLOOR, (
            f"expected >= {SPEEDUP_FLOOR}x on {cores} cores, "
            f"got {speedup:.2f}x")
