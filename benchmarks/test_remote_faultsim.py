"""Remote fault farm benchmark: TCP workers vs the serial oracle.

Starts two in-process TCP fault-farm workers, farms the figure4 bench
across them with :func:`repro.parallel.remote.remote_fault_simulate`,
asserts the merged report is byte-identical to the serial run, and
records the wire economics (round trips vs logical calls, shards per
endpoint) as ``BENCH_remote_faultsim.json`` through the standard
:func:`repro.bench.reporting.write_bench_report` hook.

This intentionally measures *protocol overhead*, not speedup: both
"remote" workers live on localhost, so the interesting numbers are how
few BATCH round trips a campaign needs, which is what the paper's wire
layer is about.
"""

import os
import random
import time

from repro.bench import write_bench_report
from repro.core import Logic
from repro.faults import SerialFaultSimulator, build_fault_list
from repro.parallel import diff_reports
from repro.parallel.remote import (RemoteWorkerPool, register_fault_farm,
                                   remote_fault_simulate, resolve_bench)
from repro.rmi.server import JavaCADServer
from repro.telemetry import TELEMETRY

BENCH = "figure4"
PATTERNS = int(os.environ.get("REPRO_REMOTE_PATTERNS", "48"))
ENDPOINTS = 2


def test_remote_faultsim(benchmark):
    netlist = resolve_bench(BENCH)
    fault_list = build_fault_list(netlist)
    rng = random.Random(0)
    patterns = [{net: Logic(rng.getrandbits(1))
                 for net in netlist.inputs}
                for _ in range(PATTERNS)]

    servers = []
    endpoints = []
    servants = []
    try:
        for index in range(ENDPOINTS):
            server = JavaCADServer(f"bench-farm{index}")
            servants.append(register_fault_farm(server))
            host, port = server.serve_tcp("127.0.0.1", 0)
            servers.append(server)
            endpoints.append(f"{host}:{port}")

        begin = time.perf_counter()
        serial = SerialFaultSimulator(netlist, fault_list).run(patterns)
        serial_wall = time.perf_counter() - begin

        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            begin = time.perf_counter()
            remote = benchmark.pedantic(
                remote_fault_simulate, args=(BENCH, patterns, endpoints),
                kwargs={"pool": RemoteWorkerPool(endpoints),
                        "engine": "event"},
                rounds=1, iterations=1)
            remote_wall = time.perf_counter() - begin
            snapshot = TELEMETRY.metrics.snapshot()
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
    finally:
        for server in servers:
            server.stop_tcp()

    problems = diff_reports(remote, serial)
    assert problems == [], problems

    shards = int(snapshot["parallel.remote.shards"]["value"])
    round_trips = int(snapshot["parallel.remote.round_trips"]["value"])
    saved = int(snapshot["parallel.remote.saved_round_trips"]["value"])
    print()
    print(f"{BENCH}: {netlist.gate_count()} gates, "
          f"{len(fault_list)} faults, {PATTERNS} patterns, "
          f"{ENDPOINTS} TCP endpoints")
    print(f"serial {serial_wall:.3f}s, remote {remote_wall:.3f}s")
    print(f"{shards} shards in {round_trips} round trips "
          f"({saved} saved by BATCH coalescing)")
    assert saved > 0, "shards should travel as coalesced BATCH frames"

    path = write_bench_report("remote_faultsim", {
        "bench": BENCH,
        "gates": netlist.gate_count(),
        "faults": len(fault_list),
        "patterns": PATTERNS,
        "endpoints": ENDPOINTS,
        "shards": shards,
        "shards_per_endpoint": [s.shards_served for s in servants],
        "round_trips": round_trips,
        "saved_round_trips": saved,
        "serial_wall_seconds": round(serial_wall, 4),
        "remote_wall_seconds": round(remote_wall, 4),
        "coverage": serial.coverage,
        "identical_to_serial": problems == [],
    })
    print(f"wrote {path}")
