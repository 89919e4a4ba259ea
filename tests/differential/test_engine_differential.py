"""Differential gate: the compiled PPSFP engine vs the event path.

The acceptance bar for ``repro.compiled`` is *byte-identical*
``FaultSimReport`` values -- detected map (values and insertion
order), per-pattern sets, and coverage history -- between
``--engine event`` and ``--engine compiled`` on every bench the
campaign tooling ships: the paper's Figure 4 half-adder, the chatty
random netlist, and the embedded (virtual IP) bench.  The matrix
covers the serial runner, the sharded multiprocessing runner with
four workers, and the remote fault farm.

The provider path is held to the same bar: ``engine`` picks the logic
simulator under a published component's servants and nothing else, so
providers published with it unset, ``"event"`` and ``"compiled"`` answer
every call with the same reply, Table 2 comes out row for row the same,
and the CLI's ``table2`` / ``serve`` print and serve the same thing.
"""

import contextlib
import dataclasses
import os
import random
import signal
import subprocess
import sys

import pytest

from repro.bench.faultbench import build_embedded, chatty_fault_bench
from repro.bench.scenarios import (run_corpus_table2, run_scenario,
                                   run_table2)
from repro.cli import main
from repro.compiled import ENGINES, CompiledFaultSimulator
from repro.core.signal import Logic
from repro.faults.faultlist import build_fault_list
from repro.faults.serial import SerialFaultSimulator
from repro.faults.virtual import TestabilityServant
from repro.gates.generators import ip1_block
from repro.ip.component import ProviderConnection
from repro.ip.provider import (BenchFunctionalServant, IPProvider,
                               PowerServant)
from repro.net.model import LOCALHOST, WAN
from repro.parallel import (diff_reports, parallel_fault_simulate,
                            reset_session_state)
from repro.parallel.remote import (register_fault_farm,
                                   remote_fault_simulate, resolve_bench)
from repro.rmi import RemoteStub, TcpTransport
from repro.rmi.server import JavaCADServer

PROVIDER_ENGINES = (None, *ENGINES)
"""Unset first: what it gives is what the two named engines must."""


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


def one_answer(answers):
    """The one value every engine of ``PROVIDER_ENGINES`` produced."""
    first = answers[0]
    for engine, answer in zip(PROVIDER_ENGINES[1:], answers[1:]):
        assert answer == first, f"engine {engine!r} differs from unset"
    return first


class TestProviderReplyParity:
    """Same calls, same replies, same bytes on the wire, whichever
    engine the provider was published with."""

    def exchange(self, publish, script):
        """Publish per engine, run ``script(connection)`` over RMI and
        return the replies plus the bytes they took."""
        answers = []
        for engine in PROVIDER_ENGINES:
            reset_session_state()
            provider = IPProvider("parity.provider")
            publish(provider, engine)
            connection = ProviderConnection(provider, LOCALHOST)
            replies = script(connection)
            wire = connection.base_transport.stats
            answers.append((replies, wire.bytes_sent,
                            wire.bytes_received))
        return one_answer(answers)

    def test_multiplier_detection_tables(self):
        def script(connection):
            stub = connection.stub("MultFastLowPower.test",
                                   TestabilityServant.REMOTE_METHODS)
            names = list(stub.fault_list())
            rng = random.Random(4)
            tables = []
            for _ in range(4):
                bits = [Logic(rng.getrandbits(1)) for _ in range(8)]
                tables.append(stub.detection_table(bits, names))
                names = names[len(names) // 3:]
            return tables

        tables, _, _ = self.exchange(
            lambda provider, engine: provider.publish_multiplier(
                4, training_patterns=20, engine=engine), script)
        assert all(table.rows for table in tables)

    @pytest.mark.parametrize("bench", ["c17", "s27", "alu8"])
    def test_bench_evaluate_and_detection_tables(self, bench):
        def script(connection):
            module = connection.stub(f"{bench}.module",
                                     BenchFunctionalServant.REMOTE_METHODS)
            test = connection.stub(f"{bench}.test",
                                   TestabilityServant.REMOTE_METHODS)
            names = list(test.fault_list())
            width = connection.describe(bench)["inputs"]
            rng = random.Random(5)
            replies = []
            for _ in range(6):
                bits = [rng.getrandbits(1) for _ in range(width)]
                replies.append(module.evaluate(bits))
                replies.append(test.detection_table(
                    [Logic(bit) for bit in bits], names))
            return replies

        replies, _, _ = self.exchange(
            lambda provider, engine: provider.publish_bench(
                bench, engine=engine), script)
        assert any(table.rows for table in replies[1::2])


class TestTable2Parity:
    """Table 2 does not move with the engine: not a virtual second, not
    a byte, not an event, not a power."""

    @staticmethod
    def rows_per_engine(run):
        answers = []
        for engine in PROVIDER_ENGINES:
            reset_session_state()
            answers.append([dataclasses.asdict(row)
                            for row in run(engine)])
        return one_answer(answers)

    def test_figure2_rows_identical(self):
        rows = self.rows_per_engine(
            lambda engine: run_table2(width=8, engine=engine) + [
                run_scenario("ER", WAN, width=8, patterns=30,
                             collect_powers=True, engine=engine)])
        assert len(rows) == 8 and len(rows[-1]["powers"]) == 30
        assert all(row["remote_bytes"] for row in rows[1:])

    def test_corpus_rows_identical(self):
        rows = self.rows_per_engine(
            lambda engine: run_corpus_table2("c17", engine=engine))
        assert len(rows) == 7
        assert all(len(row["powers"]) == 100 for row in rows[1:])


ENGINE_FLAGS = [["--engine", engine] if engine else []
                for engine in PROVIDER_ENGINES]


class TestCliParity:
    """``--engine`` unset, ``event`` and ``compiled``: the same printed
    rows from ``table2``, the same replies from ``serve``."""

    @pytest.mark.parametrize("argv", [
        ["table2", "--width", "4", "--patterns", "12", "--workers", "1"],
        ["table2", "--bench", "c17", "--patterns", "12"],
        ["table2", "--bench", "s27", "--patterns", "12"],
    ], ids=["figure2", "c17", "s27"])
    def test_table2_prints_the_same_rows(self, argv, capsys):
        printed = []
        for flags in ENGINE_FLAGS:
            reset_session_state()
            assert main(argv + flags) == 0
            printed.append(capsys.readouterr().out)
        table = one_answer(printed)
        assert table.count("\n") == 10 and "\nMR " in table

    def test_serve_answers_the_same(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir,
                           os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        serve = [sys.executable, "-u", "-m", "repro.cli", "serve",
                 "--width", "4"]
        servers = [subprocess.Popen(serve + flags, env=env, text=True,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT)
                   for flags in ENGINE_FLAGS]
        answers = []
        try:
            for server in servers:
                ready = server.stdout.readline()
                assert ready.startswith(
                    "repro server serving 'MultFastLowPower' + fault "
                    "farm on 127.0.0.1:"), ready
                host, port = ready.split()[-1].split(":")
                reset_session_state()  # call ids are bytes on the wire
                transport = TcpTransport(host, int(port))
                try:
                    answers.append(self.converse(transport))
                finally:
                    transport.close()
        finally:
            for server in servers:
                server.send_signal(signal.SIGINT)
            logs = [server.communicate(timeout=60)[0]
                    for server in servers]
        replies = one_answer(answers)
        assert replies["tables"][0].rows and len(replies["powers"]) == 3
        assert [server.returncode for server in servers] == [0, 0, 0]
        assert all("accepted=1 " in log and "calls=6 " in log
                   for log in logs)

    @staticmethod
    def converse(transport):
        """One tenant's calls on every engine-dependent servant."""
        test = RemoteStub(transport, "MultFastLowPower.test",
                          TestabilityServant.REMOTE_METHODS)
        power = RemoteStub(transport, "MultFastLowPower.power",
                           PowerServant.REMOTE_METHODS)
        names = list(test.fault_list())
        rng = random.Random(6)
        tables = [test.detection_table(
            [Logic(rng.getrandbits(1)) for _ in range(8)], names)
            for _ in range(3)]
        power.power_buffer("tenant", [(3, 5), (15, 15), (0, 9)])
        return {"faults": names, "tables": tables,
                "powers": power.fetch_results("tenant"),
                "bytes": (transport.stats.bytes_sent,
                          transport.stats.bytes_received)}
