"""Remote fault farm: byte-identical merges, retry, poison shards."""

import contextlib
import random

import pytest

from repro.core.errors import ParallelExecutionError
from repro.core.signal import Logic
from repro.faults.faultlist import build_fault_list
from repro.faults.serial import FaultSimReport, SerialFaultSimulator
from repro.parallel import diff_reports
from repro.parallel.remote import (FaultFarmServant, RemoteShard,
                                   RemoteWorkerPool, parse_endpoint,
                                   register_fault_farm,
                                   remote_fault_simulate, report_from_wire,
                                   report_to_wire, resolve_bench)
from repro.rmi.marshal import marshal, unmarshal
from repro.rmi.server import JavaCADServer
from repro.telemetry import TELEMETRY


@contextlib.contextmanager
def fault_farm(count, servant_factory=None):
    """Spin up ``count`` TCP farm workers; yields (endpoints, servants)."""
    servers = []
    endpoints = []
    servants = []
    try:
        for index in range(count):
            server = JavaCADServer(f"farm{index}")
            if servant_factory is not None:
                servant = servant_factory(server)
                server.rebind("faultfarm", servant,
                              FaultFarmServant.REMOTE_METHODS)
            else:
                servant = register_fault_farm(server)
            host, port = server.serve_tcp("127.0.0.1", 0)
            servers.append(server)
            servants.append(servant)
            endpoints.append(f"{host}:{port}")
        yield endpoints, servants
    finally:
        for server in servers:
            server.stop_tcp()


def figure4_campaign(patterns=48, seed=0):
    netlist = resolve_bench("figure4")
    fault_list = build_fault_list(netlist)
    rng = random.Random(seed)
    pattern_set = [{net: Logic(rng.getrandbits(1))
                    for net in netlist.inputs}
                   for _ in range(patterns)]
    return netlist, fault_list, pattern_set


class TestEndpointParsing:
    def test_host_port_string(self):
        assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)

    def test_tuple_passes_through(self):
        assert parse_endpoint(("farm.example", 80)) == ("farm.example", 80)

    def test_missing_port_rejected(self):
        with pytest.raises(ParallelExecutionError):
            parse_endpoint("just-a-host")

    def test_non_numeric_port_rejected(self):
        with pytest.raises(ParallelExecutionError):
            parse_endpoint("host:http")

    def test_empty_pool_rejected(self):
        with pytest.raises(ParallelExecutionError):
            RemoteWorkerPool([])


class TestReportWireForm:
    def test_round_trip_through_marshaller(self):
        report = FaultSimReport(total_faults=4)
        report.detected.update({"a sa0": 0, "b sa1": 2})
        report.per_pattern.extend([{"a sa0"}, set(), {"b sa1"}])
        wire = unmarshal(marshal(report_to_wire(report)))
        rebuilt = report_from_wire(wire)
        assert diff_reports(rebuilt, report) == []
        # Marshal decodes sets as frozensets; the rebuilt report must
        # carry plain sets like every locally produced report.
        assert all(type(newly) is set for newly in rebuilt.per_pattern)


class TestRemoteFarm:
    def test_two_endpoints_match_serial(self):
        netlist, fault_list, patterns = figure4_campaign()
        serial = SerialFaultSimulator(netlist, fault_list).run(patterns)
        with fault_farm(2) as (endpoints, servants):
            remote = remote_fault_simulate("figure4", patterns, endpoints)
            assert diff_reports(remote, serial) == []
            # Every shard was served remotely, none fell back locally.
            assert sum(s.shards_served for s in servants) >= 2

    def test_single_endpoint_matches_serial(self):
        netlist, fault_list, patterns = figure4_campaign(patterns=16)
        serial = SerialFaultSimulator(netlist, fault_list).run(patterns)
        with fault_farm(1) as (endpoints, _):
            remote = remote_fault_simulate("figure4", patterns, endpoints)
        assert diff_reports(remote, serial) == []

    def test_workers_scales_shard_count(self):
        netlist, fault_list, patterns = figure4_campaign(patterns=8)
        serial = SerialFaultSimulator(netlist, fault_list).run(patterns)
        with fault_farm(1) as (endpoints, servants):
            remote = remote_fault_simulate("figure4", patterns, endpoints,
                                           workers=4)
            assert servants[0].shards_served > 4
        assert diff_reports(remote, serial) == []

    def test_shards_travel_as_batch_frames(self):
        _, fault_list, patterns = figure4_campaign(patterns=8)
        with fault_farm(1) as (endpoints, _):
            pool = RemoteWorkerPool(endpoints)
            shard = RemoteShard("figure4", "equivalence",
                                fault_list.names(), tuple(patterns))
            TELEMETRY.reset()
            TELEMETRY.enable()
            try:
                pool.map([shard])
                snapshot = TELEMETRY.metrics.snapshot()
            finally:
                TELEMETRY.disable()
                TELEMETRY.reset()
        # begin_shard + add_patterns + collect_report coalesced into one
        # frame: round trips on the wire < logical calls issued.
        assert snapshot["parallel.remote.saved_round_trips"]["value"] > 0
        assert snapshot["parallel.remote.shards"]["value"] == 1
        assert snapshot["parallel.remote.endpoint_failures"]["value"] == 0

    def test_outcomes_in_submission_order(self):
        _, fault_list, patterns = figure4_campaign(patterns=8)
        names = fault_list.names()
        with fault_farm(2) as (endpoints, _):
            pool = RemoteWorkerPool(endpoints)
            shards = [RemoteShard("figure4", "equivalence", (name,),
                                  tuple(patterns))
                      for name in names[:6]]
            outcomes = pool.map(shards)
        assert [outcome.index for outcome in outcomes] == list(range(6))
        assert all(outcome.value.total_faults == 1 for outcome in outcomes)


class _DyingServant(FaultFarmServant):
    """Kills its own server the first time it is asked to simulate."""

    def __init__(self, server):
        super().__init__()
        self._server = server
        self.died = False

    def collect_report(self, task_id, collect_telemetry=False):
        if not self.died:
            self.died = True
            # Tears the TCP door down mid-call: the client never gets
            # this reply and subsequent pings are refused.
            self._server.stop_tcp()
        return super().collect_report(task_id, collect_telemetry)


class _PoisonServant(FaultFarmServant):
    """Rejects every shard while staying perfectly reachable."""

    def __init__(self, _server):
        super().__init__()

    def collect_report(self, task_id, collect_telemetry=False):
        super().collect_report(task_id, collect_telemetry)
        raise RuntimeError("this worker rejects all shards")


class TestFailureHandling:
    def test_dead_endpoint_retries_on_survivor(self):
        netlist, fault_list, patterns = figure4_campaign()
        serial = SerialFaultSimulator(netlist, fault_list).run(patterns)
        first = [True]

        def factory(server):
            if first[0]:
                first[0] = False
                return _DyingServant(server)
            return FaultFarmServant()

        with fault_farm(2, servant_factory=factory) as (endpoints,
                                                        servants):
            remote = remote_fault_simulate("figure4", patterns, endpoints)
            assert servants[0].died
            # The survivor picked up the dead worker's shards.
            assert servants[1].shards_served > 0
        assert diff_reports(remote, serial) == []

    def test_poison_shard_fails_fast_with_index(self):
        _, fault_list, patterns = figure4_campaign(patterns=4)
        with fault_farm(2) as (endpoints, _):
            pool = RemoteWorkerPool(endpoints)
            good = RemoteShard("figure4", "equivalence",
                               fault_list.names()[:2], tuple(patterns))
            poison = RemoteShard("figure4", "equivalence",
                                 ("no-such-fault sa0",), tuple(patterns))
            with pytest.raises(ParallelExecutionError) as excinfo:
                pool.map([good, poison])
        assert excinfo.value.shard_index == 1
        assert "every remaining endpoint" in str(excinfo.value)

    def test_all_workers_poisoned_fails_not_hangs(self):
        _, fault_list, patterns = figure4_campaign(patterns=4)
        with fault_farm(2, servant_factory=_PoisonServant) as (endpoints,
                                                               _):
            pool = RemoteWorkerPool(endpoints)
            shard = RemoteShard("figure4", "equivalence",
                                fault_list.names()[:2], tuple(patterns))
            with pytest.raises(ParallelExecutionError) as excinfo:
                pool.map([shard])
        assert excinfo.value.shard_index == 0

    def test_all_endpoints_dead_raises(self):
        _, fault_list, patterns = figure4_campaign(patterns=4)
        with fault_farm(1) as (endpoints, _):
            pass  # server torn down; the endpoint is now dead
        pool = RemoteWorkerPool(endpoints, timeout=1.0)
        shard = RemoteShard("figure4", "equivalence",
                            fault_list.names()[:2], tuple(patterns))
        with pytest.raises(ParallelExecutionError):
            pool.map([shard])

    def test_unknown_bench_is_a_poison_shard(self):
        _, fault_list, patterns = figure4_campaign(patterns=4)
        with fault_farm(1) as (endpoints, _):
            pool = RemoteWorkerPool(endpoints)
            shard = RemoteShard("not-a-bench", "equivalence",
                                fault_list.names()[:1], tuple(patterns))
            with pytest.raises(ParallelExecutionError):
                pool.map([shard])
