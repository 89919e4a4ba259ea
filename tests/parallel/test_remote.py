"""Remote fault farm: byte-identical merges, retry, poison shards."""

import collections
import contextlib
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiled import ENGINES, fault_simulator_for
from repro.core.errors import ParallelExecutionError, RemoteError
from repro.core.ids import current_connection
from repro.core.signal import Logic
from repro.faults.faultlist import build_fault_list
from repro.faults.serial import FaultSimReport, SerialFaultSimulator
from repro.parallel import (diff_reports, merge_reports,
                            parallel_fault_simulate, round_robin_shards)
from repro.parallel.faultsim import simulate_shard
from repro.parallel.remote import (FAULT_FARM_OBJECT, FaultFarmServant,
                                   RemoteCampaign, RemoteWorkerPool,
                                   parse_endpoint, register_fault_farm,
                                   remote_fault_simulate, report_from_wire,
                                   report_to_wire, resolve_bench)
from repro.rmi.marshal import marshal, unmarshal
from repro.rmi.server import JavaCADServer
from repro.rmi.stub import RemoteStub
from repro.rmi.transport import TcpTransport
from repro.rmi.wire import wrap_transport
from repro.server import AsyncRMIServer
from repro.server.farm import fault_farm_session_factory
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


def campaign_on(bench, patterns, seed=0):
    netlist = resolve_bench(bench)
    fault_list = build_fault_list(netlist)
    rng = random.Random(seed)
    pattern_set = [{net: Logic(rng.getrandbits(1))
                    for net in netlist.inputs}
                   for _ in range(patterns)]
    return netlist, fault_list, pattern_set


def figure4_campaign(patterns=48, seed=0):
    return campaign_on("figure4", patterns, seed)


def figure4(patterns):
    return RemoteCampaign("figure4", "equivalence", tuple(patterns))


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
            assert servants[0].shards_served == 4
        assert diff_reports(remote, serial) == []

    def test_shards_travel_as_batch_frames(self):
        _, fault_list, patterns = figure4_campaign(patterns=8)
        with fault_farm(1) as (endpoints, _):
            pool = RemoteWorkerPool(endpoints)
            TELEMETRY.reset()
            TELEMETRY.enable()
            try:
                pool.map(figure4(patterns), [fault_list.names()])
                snapshot = TELEMETRY.metrics.snapshot()
            finally:
                TELEMETRY.disable()
                TELEMETRY.reset()
        # begin_campaign + add_patterns + run_shard coalesced into one
        # frame: round trips on the wire < logical calls issued.
        assert snapshot["parallel.remote.saved_round_trips"]["value"] > 0
        assert snapshot["parallel.remote.shards"]["value"] == 1
        assert snapshot["parallel.remote.endpoint_failures"]["value"] == 0

    def test_outcomes_in_submission_order(self):
        _, fault_list, patterns = figure4_campaign(patterns=8)
        names = fault_list.names()
        with fault_farm(2) as (endpoints, _):
            pool = RemoteWorkerPool(endpoints)
            outcomes = pool.map(figure4(patterns),
                                [(name,) for name in names[:6]])
        assert [outcome.index for outcome in outcomes] == list(range(6))
        assert all(outcome.value.total_faults == 1 for outcome in outcomes)


class _DyingServant(FaultFarmServant):
    """Kills its own server the first time it is asked to simulate."""

    def __init__(self, server):
        super().__init__()
        self._server = server
        self.died = False

    def run_shard(self, campaign_id, fault_names, collect_telemetry=False):
        if not self.died:
            self.died = True
            # Tears the TCP door down mid-call: the client never gets
            # this reply and subsequent pings are refused.
            self._server.stop_tcp()
        return super().run_shard(campaign_id, fault_names,
                                 collect_telemetry)


class _PoisonServant(FaultFarmServant):
    """Rejects every shard while staying perfectly reachable."""

    def __init__(self, _server):
        super().__init__()

    def run_shard(self, campaign_id, fault_names, collect_telemetry=False):
        super().run_shard(campaign_id, fault_names, collect_telemetry)
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
            # Scripted: each endpoint takes one of the two shards before
            # either runs, so the dying one is sure to get one.
            remote = remote_fault_simulate("figure4", patterns, endpoints,
                                           pool=_ScriptedPool(endpoints))
            assert servants[0].died
            # The survivor picked up the dead worker's shards.
            assert servants[1].shards_served > 0
        assert diff_reports(remote, serial) == []

    def test_poison_shard_fails_fast_with_index(self):
        _, fault_list, patterns = figure4_campaign(patterns=4)
        with fault_farm(2) as (endpoints, _):
            pool = RemoteWorkerPool(endpoints)
            with pytest.raises(ParallelExecutionError) as excinfo:
                pool.map(figure4(patterns), [fault_list.names()[:2],
                                             ("no-such-fault sa0",)])
        assert excinfo.value.shard_index == 1
        assert "every remaining endpoint" in str(excinfo.value)

    def test_all_workers_poisoned_fails_not_hangs(self):
        _, fault_list, patterns = figure4_campaign(patterns=4)
        with fault_farm(2, servant_factory=_PoisonServant) as (endpoints,
                                                               _):
            pool = RemoteWorkerPool(endpoints)
            with pytest.raises(ParallelExecutionError) as excinfo:
                pool.map(figure4(patterns), [fault_list.names()[:2]])
        assert excinfo.value.shard_index == 0

    def test_all_endpoints_dead_raises(self):
        _, fault_list, patterns = figure4_campaign(patterns=4)
        with fault_farm(1) as (endpoints, _):
            pass  # server torn down; the endpoint is now dead
        pool = RemoteWorkerPool(endpoints, timeout=1.0)
        with pytest.raises(ParallelExecutionError):
            pool.map(figure4(patterns), [fault_list.names()[:2]])

    def test_unknown_bench_is_a_poison_shard(self):
        _, fault_list, patterns = figure4_campaign(patterns=4)
        with fault_farm(1) as (endpoints, _):
            pool = RemoteWorkerPool(endpoints)
            campaign = RemoteCampaign("not-a-bench", "equivalence",
                                      tuple(patterns))
            with pytest.raises(ParallelExecutionError,
                               match="unknown bench 'not-a-bench'"):
                pool.map(campaign, [fault_list.names()[:1]])


# ----------------------------------------------------------------------
# The campaign crosses the wire once per endpoint connection
# ----------------------------------------------------------------------

def _counted(name):
    def method(self, campaign_id, *args, **kwargs):
        self.calls[name] += 1
        self.seen.append((current_connection(), campaign_id))
        return getattr(FaultFarmServant, name)(self, campaign_id, *args,
                                               **kwargs)
    method.__name__ = name
    return method


class _CountingServant(FaultFarmServant):
    """Counts the calls it serves and the benches it resolves, and
    remembers each (connection context, campaign id) it was called
    with."""

    def __init__(self, _server=None):
        super().__init__(resolver=self._resolve)
        self.calls = collections.Counter()
        self.seen = []

    def _resolve(self, spec):
        self.calls["resolve"] += 1
        return resolve_bench(spec)


for _name in ("begin_campaign", "add_patterns", "run_shard",
              "end_campaign"):
    setattr(_CountingServant, _name, _counted(_name))


def campaigns_held(servant):
    """Campaigns a counting servant still keeps, on any connection."""
    return [campaign for context, campaign in servant.seen
            if campaign in context.sessions(servant)]


class _FailOnceServant(_CountingServant):
    """Fails its first ``run_shard`` while staying perfectly reachable."""

    def run_shard(self, *args, **kwargs):
        if not self.calls["failed"]:
            self.calls["failed"] += 1
            raise RuntimeError("transient servant failure")
        return super().run_shard(*args, **kwargs)


class _ScriptedPool(RemoteWorkerPool):
    """A pool whose shard-to-endpoint schedule does not depend on timing.

    Every endpoint's first attempt waits for all the others', so each
    endpoint serves at least one shard; the other endpoints then hold
    that shard until endpoint 0 has finished ``lead`` attempts, so what
    endpoint 0 goes through (fail, forget, announce again) is the same
    on every run.  ``before(endpoint, attempt)`` runs ahead of each
    endpoint-0 attempt.  ``attempts`` records, per attempt, the endpoint
    index, whether the campaign was already announced and the bytes the
    attempt sent; ``stacks`` keeps each endpoint's transport stack.
    """

    def __init__(self, endpoints, lead=0, before=None):
        super().__init__(endpoints)
        self.lead = lead
        self.before = before
        self.attempts = []
        self.stacks = {}
        self._led = 0
        self._all_hold_one = threading.Barrier(len(endpoints))
        self._released = threading.Event()

    def _run_shard(self, endpoint, *args):
        if endpoint.index not in self.stacks:
            self.stacks[endpoint.index] = endpoint
            self._all_hold_one.wait(timeout=30)
        if endpoint.index == 0:
            if self.before is not None:
                self.before(endpoint, self._led)
            self._led += 1
        elif self.lead:
            assert self._released.wait(timeout=30)
        announced = endpoint.announced
        sent = endpoint.base.stats.bytes_sent
        try:
            return super()._run_shard(endpoint, *args)
        finally:
            self.attempts.append((endpoint.index, announced,
                                  endpoint.base.stats.bytes_sent - sent))
            if endpoint.index == 0 and self._led >= self.lead:
                self._released.set()

    def bytes_sent(self):
        return sum(endpoint.base.stats.bytes_sent
                   for endpoint in self.stacks.values())


@contextlib.contextmanager
def session_farm(count, servant_cls=None):
    """``count`` servers with a servant per connection
    (``session_factory=`` mode); yields (endpoints, servers, servants)
    where ``servants[i]`` lists endpoint i's servants in connection
    order."""
    servers, endpoints, servants = [], [], []
    try:
        for _ in range(count):
            made = []
            inner = fault_farm_session_factory()

            def factory(inner=inner, made=made):
                session = inner()
                if servant_cls is not None:
                    session.rebind(FAULT_FARM_OBJECT, servant_cls(),
                                   FaultFarmServant.REMOTE_METHODS)
                made.append(
                    session.registry.lookup(FAULT_FARM_OBJECT).servant)
                return session

            server = AsyncRMIServer(session_factory=factory)
            host, port = server.start()
            servers.append(server)
            servants.append(made)
            endpoints.append(f"{host}:{port}")
        yield endpoints, servers, servants
    finally:
        for server in servers:
            server.stop()


class TestCampaignCrossesOnce:
    # What the client sent for this exact campaign (mult8, every
    # collapsed fault in 8 shards, 128 seed-0 patterns, 2 endpoints) at
    # the commit before the campaign protocol, when each of the 8
    # shards carried all 128 patterns again.
    PER_SHARD_PROTOCOL_BYTES_SENT = 515123

    def test_counts_and_bytes(self):
        netlist, fault_list, patterns = campaign_on("mult8", 128)
        serial = fault_simulator_for(None, netlist, fault_list).run(patterns)
        with fault_farm(2, servant_factory=_CountingServant) as (
                endpoints, servants):
            pool = _ScriptedPool(endpoints)
            remote = remote_fault_simulate("mult8", patterns, endpoints,
                                           shards=8, pool=pool)
        assert diff_reports(remote, serial) == []
        calls = sum((servant.calls for servant in servants),
                    collections.Counter())
        assert calls == {"resolve": 2, "begin_campaign": 2,
                         "add_patterns": 2 * 4, "run_shard": 8,
                         "end_campaign": 2}
        assert pool.bytes_sent() <= \
            0.35 * self.PER_SHARD_PROTOCOL_BYTES_SENT
        later = [sent for _index, announced, sent in pool.attempts
                 if announced]
        assert len(later) == 6
        assert max(later) < 4096

    @settings(max_examples=20, deadline=None)
    @given(endpoints=st.integers(1, 3), shards=st.integers(1, 12),
           patterns=st.sampled_from([0, 1, 63, 64, 65, 130]),
           engine=st.sampled_from(ENGINES), drop_detected=st.booleans())
    def test_any_cut_merges_to_the_single_process_report(
            self, endpoints, shards, patterns, engine, drop_detected):
        netlist, fault_list, pattern_set = figure4_campaign(patterns)
        oracle = fault_simulator_for(engine, netlist, fault_list).run(
            pattern_set, drop_detected=drop_detected)
        with fault_farm(endpoints, servant_factory=_CountingServant) as (
                specs, servants):
            remote = remote_fault_simulate(
                "figure4", pattern_set, specs, shards=shards,
                drop_detected=drop_detected, engine=engine)
        assert diff_reports(remote, oracle) == []
        if not patterns:
            assert not any(servant.calls["add_patterns"]
                           for servant in servants)
        # The same cut through the local pool: one protocol, one report.
        local = parallel_fault_simulate(
            netlist, pattern_set, fault_list, workers=2, shards=shards,
            drop_detected=drop_detected, engine=engine)
        assert diff_reports(local, oracle) == []


class _ReplyKeepingServant(_CountingServant):
    """Keeps each ``run_shard``'s fault names and telemetry snapshot."""

    def __init__(self, _server=None):
        super().__init__()
        self.replies = []

    def run_shard(self, campaign_id, fault_names, collect_telemetry=False):
        reply = super().run_shard(campaign_id, fault_names,
                                  collect_telemetry)
        self.replies.append((tuple(fault_names), reply["metrics"]))
        return reply


def kernel_runs(netlist, fault_list, patterns, names):
    """``compiled.kernel_runs`` of one in-process shard over ``names``."""
    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        simulate_shard(netlist, fault_list, patterns, True, "compiled",
                       names)
        return TELEMETRY.metrics.snapshot()["compiled.kernel_runs"]["value"]
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()


class TestOneShardPerEndpoint:
    """A default farm run gives each endpoint its whole share as one
    shard: one ``run_shard`` and the kernel runs of one simulation."""

    def test_each_endpoint_runs_its_half_in_one_shard(self):
        netlist, fault_list, patterns = campaign_on("mult8", 64)
        serial = fault_simulator_for(None, netlist, fault_list).run(patterns)
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with fault_farm(2, servant_factory=_ReplyKeepingServant) as (
                    endpoints, servants):
                # lead=1: endpoint 1 runs after endpoint 0's shard, so
                # the two in-process servants never share the telemetry
                # registry at once.
                remote = remote_fault_simulate(
                    "mult8", patterns, endpoints,
                    pool=_ScriptedPool(endpoints, lead=1))
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert diff_reports(remote, serial) == []
        # Listed as a merge of four shards per endpoint lists it.
        listed = merge_reports([
            simulate_shard(netlist, fault_list, patterns, True, "compiled",
                           shard.names)
            for shard in round_robin_shards(fault_list.names(), 8)])
        assert list(remote.detected.items()) == \
            list(listed.detected.items())
        assert [servant.calls["run_shard"] for servant in servants] == [1, 1]
        halves = round_robin_shards(fault_list.names(), 2)
        assert sorted(names for servant in servants
                      for names, _ in servant.replies) == \
            sorted(half.names for half in halves)
        for servant in servants:
            (names, metrics), = servant.replies
            assert metrics["compiled.kernel_runs"]["value"] == \
                kernel_runs(netlist, fault_list, patterns, names)


class TestZeroShardsRejected:
    """``shards=0`` is a non-positive count like -1, not "the default"."""

    def test_local(self):
        netlist, fault_list, patterns = figure4_campaign(patterns=4)
        with pytest.raises(ParallelExecutionError,
                           match="shard count must be positive, got 0"):
            parallel_fault_simulate(netlist, patterns, fault_list,
                                    workers=2, shards=0)

    def test_remote(self):
        _, _, patterns = figure4_campaign(patterns=4)
        with fault_farm(2) as (endpoints, servants):
            with pytest.raises(ParallelExecutionError,
                               match="shard count must be positive, got 0"):
                remote_fault_simulate("figure4", patterns, endpoints,
                                      shards=0)
            assert not any(servant.shards_served for servant in servants)


class TestReannounce:
    def test_a_failed_shard_makes_the_endpoint_announce_again(self):
        netlist, fault_list, patterns = campaign_on("mult8", 40)
        serial = fault_simulator_for(None, netlist, fault_list).run(patterns)
        with fault_farm(2, servant_factory=_FailOnceServant) as (
                endpoints, servants):
            # Endpoint 0: a failed attempt, then one that must announce
            # again to the servant that still holds the first version.
            pool = _ScriptedPool(endpoints, lead=2)
            remote = remote_fault_simulate("mult8", patterns, endpoints,
                                           shards=8, pool=pool)
        # Replaced, not appended to: doubled patterns would change the
        # report's per-pattern history.
        assert diff_reports(remote, serial) == []
        assert [announced for index, announced, _sent in pool.attempts
                if index == 0][:2] == [False, False]
        assert servants[0].calls["begin_campaign"] == 2
        assert servants[0].calls["add_patterns"] == 2 * 2
        assert not any(campaigns_held(servant) for servant in servants)

    def test_a_reconnected_endpoint_announces_to_its_new_servant(self):
        netlist, fault_list, patterns = campaign_on("mult8", 40)
        serial = fault_simulator_for(None, netlist, fault_list).run(patterns)

        def drop_the_socket(endpoint, attempt):
            if attempt == 1:
                endpoint.base.close()

        with session_farm(2, _CountingServant) as (endpoints, _servers,
                                                   servants):
            # Endpoint 0: announce, then a lone run_shard on a silently
            # reopened connection (unknown campaign), then the
            # re-announcement to that connection's servant.
            pool = _ScriptedPool(endpoints, lead=3, before=drop_the_socket)
            remote = remote_fault_simulate("mult8", patterns, endpoints,
                                           shards=8, pool=pool)
            first, second = servants[0]
        assert diff_reports(remote, serial) == []
        assert [announced for index, announced, _sent in pool.attempts
                if index == 0][:3] == [False, True, False]
        assert first.calls["begin_campaign"] == 1
        assert second.calls["begin_campaign"] == 1
        assert second.calls["run_shard"] >= 2  # the orphan, then real ones
        assert second.shards_served >= 1
        assert campaigns_held(second) == []


class TestCampaignStateEnds:
    """After ``map`` returns or raises no surviving servant holds state
    (the farm's part of ROADMAP item 3(i))."""

    @staticmethod
    @contextlib.contextmanager
    def farm(kind):
        """Two endpoints; yields (endpoints, servants per endpoint,
        a callable that kills endpoint 0)."""
        if kind == "session":
            with session_farm(2, _CountingServant) as (endpoints, servers,
                                                       servants):
                yield endpoints, servants, servers[0].stop
        else:
            servers = []

            def shared(server):
                servers.append(server)
                return _CountingServant()

            with fault_farm(2, servant_factory=shared) as (endpoints,
                                                           servants):
                yield (endpoints, [[servant] for servant in servants],
                       servers[0].stop_tcp)

    @staticmethod
    def held(servants):
        return [campaigns_held(servant) for made in servants
                for servant in made]

    @pytest.mark.parametrize("kind", ["shared", "session"])
    def test_after_success(self, kind):
        _, _, patterns = figure4_campaign(patterns=8)
        with self.farm(kind) as (endpoints, servants, _kill):
            remote_fault_simulate("figure4", patterns, endpoints,
                                  pool=_ScriptedPool(endpoints))
            held = self.held(servants)
        assert held == [[], []]

    @pytest.mark.parametrize("kind", ["shared", "session"])
    def test_after_a_poison_shard(self, kind):
        _, fault_list, patterns = figure4_campaign(patterns=8)
        with self.farm(kind) as (endpoints, servants, _kill):
            with pytest.raises(ParallelExecutionError,
                               match="every remaining endpoint"):
                _ScriptedPool(endpoints).map(
                    figure4(patterns),
                    [fault_list.names()[:2], ("no-such-fault sa0",),
                     fault_list.names()[2:4]])
            held = self.held(servants)
        assert held == [[], []]

    @pytest.mark.parametrize("kind", ["shared", "session"])
    def test_after_a_dead_endpoint_retry(self, kind):
        netlist, fault_list, patterns = figure4_campaign(patterns=8)
        serial = SerialFaultSimulator(netlist, fault_list).run(patterns)
        def kill_before_the_second_attempt(_endpoint, attempt):
            if attempt == 1:
                kill()

        with self.farm(kind) as (endpoints, servants, kill):
            # Spare shards, so that endpoint 0 has a second attempt.
            pool = _ScriptedPool(endpoints, lead=2,
                                 before=kill_before_the_second_attempt)
            remote = remote_fault_simulate("figure4", patterns, endpoints,
                                           shards=8, pool=pool)
            survivors = servants[1]
        assert diff_reports(remote, serial) == []
        assert [servant.shards_served > 0 for servant in survivors] == \
            [True]
        assert self.held([survivors]) == [[]]


class TestErrorsSurfaceOnTheBlockingCall:
    """``begin_campaign`` only stores, so a bad announcement is not a
    swallowed oneway failure followed by a misleading "unknown" error:
    ``run_shard`` raises the real cause."""

    @pytest.mark.parametrize("announcement, fault, cause", [
        (("c17", "equivalence", True, "nope"), "10sa1",
         "unknown engine 'nope'"),
        (("c17", "bogus", True, None), "10sa1",
         "unknown collapse mode 'bogus'"),
        (("s27", "equivalence", True, None), "10sa1",
         "bench 's27' is sequential"),
        (("c17", "equivalence", True, None), "no-such-fault sa0",
         r"has no fault\(s\) \['no-such-fault sa0'\]"),
    ])
    def test_a_raw_stub_gets_the_real_cause(self, announcement, fault,
                                            cause):
        with fault_farm(1, servant_factory=_CountingServant) as (
                endpoints, servants):
            host, port = parse_endpoint(endpoints[0])
            transport = wrap_transport(TcpTransport(host, port),
                                       batching=True, caching=False)
            stub = RemoteStub(transport, FAULT_FARM_OBJECT,
                              FaultFarmServant.REMOTE_METHODS)
            try:
                stub.invoke_oneway("begin_campaign", "raw", *announcement)
                with pytest.raises(RemoteError, match=cause):
                    stub.run_shard("raw", [fault])
                with pytest.raises(RemoteError,
                                   match="unknown campaign 'other'"):
                    stub.run_shard("other", [])
                stub.invoke_oneway("end_campaign", "raw")
            finally:
                transport.close()
            assert campaigns_held(servants[0]) == []

    def test_a_non_logic_pattern_value_is_named(self):
        """A pattern value that is not a ``Logic`` (here the int 1,
        which marshals as an int) fails the shard with the engine's
        own error, not a silent X."""
        pattern = {net: Logic.ZERO for net in resolve_bench("c17").inputs}
        pattern["3"] = 1
        with fault_farm(1) as (endpoints, _):
            host, port = parse_endpoint(endpoints[0])
            transport = wrap_transport(TcpTransport(host, port),
                                       batching=True, caching=False)
            stub = RemoteStub(transport, FAULT_FARM_OBJECT,
                              FaultFarmServant.REMOTE_METHODS)
            try:
                stub.invoke_oneway("begin_campaign", "raw", "c17",
                                   "equivalence", True, None)
                stub.invoke_oneway("add_patterns", "raw", [pattern])
                with pytest.raises(RemoteError,
                                   match="primary input '3' is 1, not a "
                                         "Logic value"):
                    stub.run_shard("raw", ["10sa1"])
            finally:
                transport.close()
