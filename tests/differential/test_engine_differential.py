"""Differential gate: the compiled PPSFP engine vs the event path.

The acceptance bar for ``repro.compiled`` is *byte-identical*
``FaultSimReport`` values -- detected map (values and insertion
order), per-pattern sets, and coverage history -- between
``--engine event`` and ``--engine compiled`` on every bench the
campaign tooling ships: the paper's Figure 4 half-adder, the chatty
random netlist, and the embedded (virtual IP) bench.  The matrix
covers the serial runner, the sharded multiprocessing runner with
four workers, and the remote fault farm.
"""

import contextlib
import random

import pytest

from repro.bench.faultbench import build_embedded, chatty_fault_bench
from repro.compiled import CompiledFaultSimulator
from repro.core.signal import Logic
from repro.faults.faultlist import build_fault_list
from repro.faults.serial import SerialFaultSimulator
from repro.gates.generators import ip1_block
from repro.parallel import diff_reports, parallel_fault_simulate
from repro.parallel.remote import (register_fault_farm,
                                   remote_fault_simulate, resolve_bench)
from repro.rmi.server import JavaCADServer


@contextlib.contextmanager
def fault_farm(count):
    """Spin up ``count`` TCP farm workers; yields (endpoints, servants).

    Each is the front end in shared-core mode (``serve_tcp()``): one
    farm servant per worker, shared by that worker's connections.
    """
    servers, endpoints, servants = [], [], []
    try:
        for index in range(count):
            server = JavaCADServer(f"farm{index}")
            servants.append(register_fault_farm(server))
            host, port = server.serve_tcp("127.0.0.1", 0)
            servers.append(server)
            endpoints.append(f"{host}:{port}")
        yield endpoints, servants
    finally:
        for server in servers:
            server.stop_tcp()


def random_patterns(netlist, count, seed=0):
    rng = random.Random(seed)
    return [{net: Logic(rng.getrandbits(1)) for net in netlist.inputs}
            for _ in range(count)]


def assert_reports_identical(event, compiled):
    """Field-by-field identity, including dict insertion order."""
    assert diff_reports(event, compiled) == []
    assert compiled.total_faults == event.total_faults
    assert compiled.detected == event.detected
    assert list(compiled.detected) == list(event.detected)
    assert compiled.per_pattern == event.per_pattern
    assert compiled.coverage_history() == event.coverage_history()


# Corpus benches ride with a fault-universe cap: the serial event
# baseline is the slow side of the diff, and a subset keeps the suite
# quick while still exercising four-digit-gate kernels.  Sequential
# entries diff their combinational core (the full-scan view).
CORPUS_CAMPAIGNS = {
    "alu8": None, "ecc32": 200, "alu32": 200, "mult8": 200,
    "mult16": 96, "salu8": 200,
}


def campaign(bench):
    if bench == "figure4":
        netlist = resolve_bench("figure4")
        patterns = random_patterns(netlist, 48)
    elif bench == "chatty":
        netlist = chatty_fault_bench()
        patterns = random_patterns(netlist, 24)
    elif bench in CORPUS_CAMPAIGNS:
        from repro.gates.corpus import load_bench
        from repro.gates.io import SequentialBench

        loaded = load_bench(bench)
        netlist = (loaded.core if isinstance(loaded, SequentialBench)
                   else loaded)
        fault_list = build_fault_list(netlist)
        cap = CORPUS_CAMPAIGNS[bench]
        if cap is not None:
            fault_list = fault_list.subset(fault_list.names()[:cap])
        return netlist, fault_list, random_patterns(netlist, 16)
    else:  # embedded
        experiment = build_embedded(ip1_block())
        netlist = experiment.serial.netlist
        logic = experiment.patterns_as_logic(
            experiment.random_patterns(24))
        return netlist, experiment.serial.fault_list, logic
    return netlist, build_fault_list(netlist), patterns


class TestSerialParity:
    @pytest.mark.parametrize("bench", ["figure4", "chatty", "embedded"])
    @pytest.mark.parametrize("drop", [True, False])
    def test_report_identical(self, bench, drop):
        netlist, fault_list, patterns = campaign(bench)
        event = SerialFaultSimulator(netlist, fault_list).run(
            patterns, drop_detected=drop)
        compiled = CompiledFaultSimulator(netlist, fault_list).run(
            patterns, drop_detected=drop)
        assert_reports_identical(event, compiled)

    @pytest.mark.parametrize("bench", sorted(CORPUS_CAMPAIGNS))
    def test_corpus_report_identical(self, bench):
        netlist, fault_list, patterns = campaign(bench)
        event = SerialFaultSimulator(netlist, fault_list).run(patterns)
        compiled = CompiledFaultSimulator(netlist, fault_list).run(
            patterns)
        assert_reports_identical(event, compiled)


class TestParallelParity:
    """Sharded runs merge shard reports, so ``detected`` insertion
    order depends on the shard plan, not the engine; engine parity is
    judged against the *same runner* with ``--engine event``."""

    @pytest.mark.parametrize("bench", ["figure4", "embedded", "alu8",
                                       "mult16"])
    def test_four_workers_identical(self, bench):
        netlist, fault_list, patterns = campaign(bench)
        serial = SerialFaultSimulator(netlist, fault_list).run(patterns)
        event = parallel_fault_simulate(netlist, patterns,
                                        fault_list=fault_list,
                                        workers=4, engine="event")
        compiled = parallel_fault_simulate(netlist, patterns,
                                           fault_list=fault_list,
                                           workers=4, engine="compiled")
        assert_reports_identical(event, compiled)
        assert diff_reports(serial, compiled) == []


class TestRemoteParity:
    def test_farm_shards_run_compiled(self):
        netlist, fault_list, patterns = campaign("figure4")
        serial = SerialFaultSimulator(netlist, fault_list).run(patterns)
        with fault_farm(2) as (endpoints, servants):
            event = remote_fault_simulate("figure4", patterns,
                                          endpoints, engine="event")
            compiled = remote_fault_simulate("figure4", patterns,
                                             endpoints, engine="compiled")
            assert sum(s.shards_served for s in servants) >= 4
        assert_reports_identical(event, compiled)
        assert diff_reports(serial, compiled) == []

    def test_farm_resolves_corpus_bench(self):
        """Workers rebuild corpus benches from the name alone; the
        merged compiled report equals the local serial event run."""
        netlist, fault_list, patterns = campaign("alu8")
        serial = SerialFaultSimulator(netlist, fault_list).run(patterns)
        with fault_farm(2) as (endpoints, _servants):
            compiled = remote_fault_simulate("alu8", patterns,
                                             endpoints,
                                             engine="compiled")
        assert diff_reports(serial, compiled) == []

    def test_sequential_bench_rejected_with_pointer(self):
        from repro.parallel.remote import ParallelExecutionError

        with pytest.raises(ParallelExecutionError,
                           match="read_sequential_bench"):
            resolve_bench("s27")
