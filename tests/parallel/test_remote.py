"""Remote fault farm: byte-identical merges, retry, poison shards."""

import collections
import contextlib
import gc
import random
import re
import threading
import time
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compiled import ENGINES, fault_simulator_for
from repro.core.errors import (ParallelExecutionError, RemoteError,
                               SimulationError)
from repro.core.ids import current_connection
from repro.core.signal import Logic
from repro.faults.faultlist import build_fault_list
from repro.faults.serial import FaultSimReport, SerialFaultSimulator
from repro.gates.generators import random_netlist
from repro.parallel import (diff_reports, merge_reports,
                            parallel_fault_simulate, round_robin_shards)
from repro.parallel.faultsim import simulate_shard
from repro.parallel.remote import (FAULT_FARM_OBJECT, FaultFarmServant,
                                   PATTERN_ALPHABET, RemoteCampaign,
                                   RemoteWorkerPool, pack_rows,
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


def packed(bench, patterns):
    """A campaign's wire form: ``bench``'s inputs and the packed rows."""
    inputs = resolve_bench(bench).inputs
    return RemoteCampaign(bench, "equivalence", inputs,
                          pack_rows(inputs, patterns))


def figure4(patterns):
    return packed("figure4", patterns)


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

    def test_ipv6_host_loses_its_brackets(self):
        assert parse_endpoint("[::1]:9000") == ("::1", 9000)
        assert parse_endpoint("[fe80::1%eth0]:80") == ("fe80::1%eth0", 80)
        # Unbracketed, the last colon still starts the port.
        assert parse_endpoint("::1:9000") == ("::1", 9000)
        with pytest.raises(ParallelExecutionError):
            parse_endpoint("[]:9000")

    def test_a_bracketed_endpoint_reaches_an_ipv6_farm(self):
        """``--remote [::1]:PORT`` used to look up the host "[::1]"."""
        server = JavaCADServer("farm6")
        register_fault_farm(server)
        _host, port = server.serve_tcp("::1", 0)
        try:
            endpoint = f"[::1]:{port}"
            transport = TcpTransport(*parse_endpoint(endpoint))
            try:
                assert transport.invoke(FAULT_FARM_OBJECT, "ping") == "pong"
            finally:
                transport.close()
            netlist, fault_list, patterns = figure4_campaign(patterns=16)
            serial = SerialFaultSimulator(netlist, fault_list).run(patterns)
            remote = remote_fault_simulate("figure4", patterns, [endpoint])
            assert diff_reports(remote, serial) == []
        finally:
            server.stop_tcp()

    def test_empty_pool_rejected(self):
        with pytest.raises(ParallelExecutionError):
            RemoteWorkerPool([])


def wire_round_trip(report):
    """``report`` through its wire form and the marshaller."""
    return report_from_wire(unmarshal(marshal(report_to_wire(report))))


class TestReportWireForm:
    def test_round_trip_through_marshaller(self):
        report = FaultSimReport(total_faults=4)
        report.detected.update({"a sa0": 0, "b sa1": 2})
        report.per_pattern.extend([{"a sa0"}, set(), {"b sa1"}])
        rebuilt = wire_round_trip(report)
        assert diff_reports(rebuilt, report) == []
        # The rebuilt report carries plain sets like every locally
        # produced report.
        assert all(type(newly) is set for newly in rebuilt.per_pattern)

    @settings(deadline=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 14),
                           st.integers(1, 3), st.integers(0, 2 ** 16)),
           values=st.lists(st.lists(st.sampled_from(list(Logic)),
                                    min_size=6, max_size=6),
                           max_size=70),
           engine=st.sampled_from(ENGINES), drop_detected=st.booleans())
    @example(shape=(3, 6, 2, 0), values=[], engine="compiled",
             drop_detected=True)
    @example(shape=(3, 6, 2, 0), values=[[Logic.X] * 6] * 5,
             engine="event", drop_detected=False)
    @example(shape=(4, 10, 2, 7), values=[[Logic.Z, Logic.ONE] * 3] * 9,
             engine="compiled", drop_detected=False)
    def test_every_report_survives_the_wire(self, shape, values, engine,
                                            drop_detected):
        """Serial and compiled reports, with and without dropping, over
        {0, 1, X, Z} patterns (none, or none detecting, included) come
        back identical: the detected map in its order, every
        per-pattern set, the fault count."""
        n_inputs, n_gates, n_outputs, seed = shape
        netlist = random_netlist(n_inputs, n_gates, n_outputs, seed=seed)
        patterns = [dict(zip(netlist.inputs, row)) for row in values]
        report = fault_simulator_for(engine, netlist).run(
            patterns, drop_detected=drop_detected)
        rebuilt = wire_round_trip(report)
        assert diff_reports(rebuilt, report) == []
        assert list(rebuilt.detected.items()) == \
            list(report.detected.items())
        assert rebuilt.per_pattern == report.per_pattern
        assert rebuilt.total_faults == report.total_faults
        if drop_detected:
            # Dropping: ``detected`` implies every per-pattern entry.
            assert report_to_wire(report)["earlier"] == {}

    def test_only_what_detected_leaves_out_crosses(self):
        report = FaultSimReport(total_faults=3)
        report.detected.update({"b": 1, "a": 2})
        report.per_pattern.extend([{"a", "b"}, {"b"}, {"a"}])
        assert report_to_wire(report) == {
            "total_faults": 3, "patterns": 3, "detected": {"b": 1, "a": 2},
            "earlier": {"b": [0], "a": [0]}}

    @pytest.mark.parametrize("per_pattern", [
        [{"a"}, {"b"}],   # b is never detected
        [{"a"}, {"a"}],   # a after its detected index
        [set(), set()],   # a missing from its detecting pattern
    ])
    def test_a_report_detected_cannot_account_for_has_no_wire_form(
            self, per_pattern):
        report = FaultSimReport(total_faults=2, detected={"a": 0},
                                per_pattern=per_pattern)
        with pytest.raises(ValueError):
            report_to_wire(report)


def _first_at_least(wire, least):
    """A detected fault whose detected index is at least ``least``."""
    return next(name for name, index in wire["detected"].items()
                if index >= least)


def _stranger(wire):
    wire["detected"]["no-such-fault sa0"] = 0


def _index(value):
    def lie(wire):
        wire["detected"][_first_at_least(wire, 0)] = value
    return lie


def _count(key, value):
    def lie(wire):
        wire[key] = value(wire[key])
    return lie


def _undetected_earlier(wire):
    name = _first_at_least(wire, 1)
    del wire["detected"][name]
    wire["earlier"][name] = [0]


def _earlier(indices):
    def lie(wire):
        name = _first_at_least(wire, 2)
        wire["earlier"][name] = indices(wire["detected"][name])
    return lie


class _LyingServant(FaultFarmServant):
    """Edits each true report's wire dict with ``lie`` before it
    answers."""

    def __init__(self, lie):
        super().__init__()
        self.lie = lie

    def run_shard(self, campaign_id, fault_names, collect_telemetry=False):
        reply = super().run_shard(campaign_id, fault_names,
                                  collect_telemetry)
        self.lie(reply["report"])
        return reply


class TestShardRepliesAreChecked:
    """A reply is merged only if its shard can have produced it; the
    wire form indexes lists with integers read off the wire."""

    @pytest.mark.parametrize("lie, problem", [
        (_stranger, r"detects \['no-such-fault sa0'\], which are not in "
                    r"the shard"),
        (_index(-1), "at -1, not at a pattern index below 16"),
        (_index(16), "at 16, not at a pattern index below 16"),
        (_index(True), "at True, not at a pattern index"),
        (_index(1.0), "at 1.0, not at a pattern index"),
        (_index("1"), "at '1', not at a pattern index"),
        (_count("total_faults", lambda total: total + 1),
         "its total_faults is"),
        (_count("total_faults", float), "its total_faults is"),
        (_count("patterns", lambda _: 10 ** 12), "its patterns is"),
        (_count("detected", list), "detected and earlier entries are not "
                                   "dicts"),
        (_undetected_earlier, "which it does not detect"),
        (_earlier(lambda last: [0, 0]), "not ascending"),
        (_earlier(lambda last: [1, 0]), "not ascending"),
        (_earlier(lambda last: [last]), "not ascending"),
        (_earlier(lambda last: [-1]), "not ascending"),
        (_earlier(lambda last: [False]), "not ascending"),
        (_earlier(lambda last: 0), "not ascending"),
    ])
    def test_a_lying_reply_names_the_endpoint_and_the_shard(self, lie,
                                                            problem):
        netlist, fault_list, patterns = figure4_campaign(patterns=16)
        with fault_farm(1, servant_factory=lambda _server:
                        _LyingServant(lie)) as (endpoints, _):
            with pytest.raises(ParallelExecutionError) as excinfo:
                remote_fault_simulate("figure4", patterns, endpoints,
                                      drop_detected=False)
        assert excinfo.value.shard_index == 0
        assert re.search(
            rf"endpoint {re.escape(endpoints[0])} replied to shard 0 with "
            rf"a report it cannot have produced: .*{problem}",
            str(excinfo.value)), str(excinfo.value)

    def test_an_honest_reply_is_merged(self):
        netlist, fault_list, patterns = figure4_campaign(patterns=16)
        serial = SerialFaultSimulator(netlist, fault_list).run(
            patterns, drop_detected=False)
        with fault_farm(1, servant_factory=lambda _server:
                        _LyingServant(lambda wire: None)) as (endpoints, _):
            remote = remote_fault_simulate("figure4", patterns, endpoints,
                                           drop_detected=False)
        assert diff_reports(remote, serial) == []


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
            inputs = resolve_bench("figure4").inputs
            campaign = RemoteCampaign("not-a-bench", "equivalence", inputs,
                                      pack_rows(inputs, patterns))
            with pytest.raises(ParallelExecutionError,
                               match="unknown bench 'not-a-bench'"):
                pool.map(campaign, [fault_list.names()[:1]])


# ----------------------------------------------------------------------
# The campaign crosses the wire once per endpoint connection
# ----------------------------------------------------------------------

def _counted(name):
    def method(self, campaign_id, *args, **kwargs):
        self.calls[name] += 1
        try:
            return getattr(FaultFarmServant, name)(self, campaign_id, *args,
                                                   **kwargs)
        finally:
            campaign = current_connection().sessions(self).get(campaign_id)
            if campaign is not None:
                self.seen.append(weakref.ref(campaign))
    method.__name__ = name
    return method


class _CountingServant(FaultFarmServant):
    """Counts the calls it serves and the benches it resolves, and keeps
    a weak reference to each campaign it was called on.  ``server`` is
    the ``JavaCADServer`` that :func:`fault_farm` built it for (None in
    :func:`session_farm`)."""

    def __init__(self, server=None):
        super().__init__(resolver=self._resolve)
        self.server = server
        self.calls = collections.Counter()
        self.seen = []

    def _resolve(self, spec):
        self.calls["resolve"] += 1
        return resolve_bench(spec)


for _name in ("begin_campaign", "add_patterns", "run_shard"):
    setattr(_CountingServant, _name, _counted(_name))


def campaigns_held(servant):
    """The campaigns a counting servant was called on that are still
    alive, wherever they are held; reached only through weak
    references, so asking keeps nothing alive."""
    alive = (campaign_ref() for campaign_ref in servant.seen)
    return [campaign for campaign in alive if campaign is not None]


def wait_until_closed(*servers):
    """Wait, at most 10 s, for no server of ``servers`` to report an
    open connection.

    A server is an ``AsyncRMIServer`` or a ``JavaCADServer`` serving
    TCP (read through the front end its ``serve_tcp`` started; a
    stopped one holds nothing).
    """
    deadline = time.monotonic() + 10
    for server in servers:
        front = getattr(server, "_tcp_front", server)
        while front is not None \
                and front.stats.snapshot()["connections_open"]:
            assert time.monotonic() < deadline, "connections never closed"
            time.sleep(0.01)


def held_once_closed(servants, *servers):
    """What each of ``servants`` still holds (:func:`campaigns_held`)
    once ``servers`` report no open connection and a garbage collection
    has freed what only cycles keep (a servant's error traceback holds
    the frames that held its campaign)."""
    wait_until_closed(*servers)
    gc.collect()
    return [campaigns_held(servant) for servant in servants]


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

    def __init__(self, endpoints, lead=0, before=None, **options):
        super().__init__(endpoints, **options)
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
def session_farm(count, servant_cls=None, **server_options):
    """``count`` servers with a servant per connection
    (``session_factory=`` mode); yields (endpoints, servers, servants)
    where ``servants[i]`` lists endpoint i's servants in connection
    order.  ``server_options`` go to each ``AsyncRMIServer``."""
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

            server = AsyncRMIServer(session_factory=factory,
                                    **server_options)
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
                         "add_patterns": 2 * 4, "run_shard": 8}
        # Rows of "01XZ" text, not Logic dicts: each endpoint's
        # announcing BATCH frame is a few kB.
        assert pool.bytes_sent() <= \
            0.1 * self.PER_SHARD_PROTOCOL_BYTES_SENT
        first = [sent for _index, announced, sent in pool.attempts
                 if not announced]
        assert len(first) == 2
        assert max(first) < 8192
        later = [sent for _index, announced, sent in pool.attempts
                 if announced]
        assert len(later) == 6
        assert max(later) < 4096

    @settings(deadline=None)
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


def harness_campaign():
    """The benchmark harness's ``farm_tcp`` campaign: ``mult16``, every
    12th collapsed fault, 128 seed-1 patterns."""
    netlist = resolve_bench("mult16")
    full = build_fault_list(netlist, collapse="equivalence")
    fault_list = full.subset(full.names()[::12])
    rng = random.Random(1)
    patterns = [{net: Logic(rng.getrandbits(1)) for net in netlist.inputs}
                for _ in range(128)]
    return netlist, fault_list, patterns


class _PayloadServant(_CountingServant):
    """Keeps the marshalled size of each ``run_shard`` reply."""

    def __init__(self, server=None):
        super().__init__(server)
        self.payloads = []

    def run_shard(self, *args, **kwargs):
        reply = super().run_shard(*args, **kwargs)
        self.payloads.append(len(marshal(reply)))
        return reply


class TestHarnessCampaignCounts:
    """What the harness's ``farm_tcp`` campaign on 2 endpoints costs in
    counts that repeat exactly on any runner (ROADMAP item 12): the
    frames each endpoint writes, the calls each servant serves, the
    bytes each shard answers with."""

    TOKEN = "farm-secret"

    def test_frames_calls_and_reply_bytes(self):
        netlist, fault_list, patterns = harness_campaign()
        oracle = fault_simulator_for(None, netlist, fault_list).run(patterns)
        with session_farm(2, _PayloadServant, auth_token=self.TOKEN) as (
                endpoints, servers, servants):
            pool = _ScriptedPool(endpoints, token=self.TOKEN)
            remote = remote_fault_simulate(
                "mult16", patterns, endpoints, netlist=netlist,
                fault_list=fault_list, pool=pool)
            wait_until_closed(*servers)
            stats = [server.stats.snapshot() for server in servers]
        assert diff_reports(remote, oracle) == []
        # One connection each, so one AUTH frame each; then one round
        # trip: the BATCH of the announcement and the one run_shard.
        # Closing the connection ends the campaign (no end_campaign).
        assert [each["sessions_started"] for each in stats] == [1, 1]
        assert [1 + pool.stacks[index].base.stats.calls
                for index in (0, 1)] == [2, 2]
        assert [each["calls_served"] for each in stats] == [6, 6]
        assert [each["batches_served"] for each in stats] == [1, 1]
        for (servant,) in servants:
            assert servant.calls == {"resolve": 1, "begin_campaign": 1,
                                     "add_patterns": 4, "run_shard": 1}
        # Under fault dropping a reply lists each detected fault once
        # (13 521 and 13 338 bytes when it listed them again as 128
        # per-pattern sets).
        assert sorted(payload for (servant,) in servants
                      for payload in servant.payloads) == [5991, 6079]


class _RecordingServant(FaultFarmServant):
    """Serves one in-memory netlist under any spec and keeps the
    pattern rows each campaign built."""

    def __init__(self, netlist):
        super().__init__(resolver=lambda _spec: netlist)
        self.rebuilt = []

    def _build(self, campaign):
        built = super()._build(campaign)
        self.rebuilt.append(built[2])
        return built


class TestRowsCrossExactly:
    @settings(max_examples=25, deadline=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 14),
                           st.integers(1, 3), st.integers(0, 2 ** 16)),
           values=st.lists(st.lists(st.sampled_from(list(Logic)),
                                    min_size=6, max_size=6),
                           max_size=70),
           engine=st.sampled_from(ENGINES), shards=st.integers(1, 3))
    def test_farmed_equals_serial_with_z_kept(self, shape, values, engine,
                                              shards):
        """Rows over {0, 1, X, Z} rebuild the client's exact patterns
        (``Z`` stays ``Z``), and the farmed report is the serial one."""
        n_inputs, n_gates, n_outputs, seed = shape
        netlist = random_netlist(n_inputs, n_gates, n_outputs, seed=seed)
        fault_list = build_fault_list(netlist)
        patterns = [dict(zip(netlist.inputs, row)) for row in values]
        serial = fault_simulator_for(engine, netlist, fault_list).run(
            patterns)
        with fault_farm(1, servant_factory=lambda _server:
                        _RecordingServant(netlist)) as (endpoints,
                                                        servants):
            farmed = remote_fault_simulate(
                "in-memory", patterns, endpoints, netlist=netlist,
                fault_list=fault_list, shards=shards, engine=engine)
        assert diff_reports(farmed, serial) == []
        if len(fault_list) > 1:
            assert servants[0].rebuilt
        for rebuilt in servants[0].rebuilt:
            # Read pattern by pattern (as the event engine reads them),
            # the rows are the client's patterns.
            assert list(rebuilt) == patterns
            assert all(type(value) is Logic for pattern in rebuilt
                       for value in pattern.values())


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
            held = held_once_closed(
                servants, *(servant.server for servant in servants))
        # Replaced, not appended to: doubled patterns would change the
        # report's per-pattern history.
        assert diff_reports(remote, serial) == []
        assert [announced for index, announced, _sent in pool.attempts
                if index == 0][:2] == [False, False]
        assert servants[0].calls["begin_campaign"] == 2
        assert servants[0].calls["add_patterns"] == 2 * 2
        assert held == [[], []]

    def test_a_reconnected_endpoint_announces_to_its_new_servant(self):
        netlist, fault_list, patterns = campaign_on("mult8", 40)
        serial = fault_simulator_for(None, netlist, fault_list).run(patterns)

        def drop_the_socket(endpoint, attempt):
            if attempt == 1:
                endpoint.base.close()

        with session_farm(2, _CountingServant) as (endpoints, servers,
                                                   servants):
            # Endpoint 0: announce, then a lone run_shard on a silently
            # reopened connection (unknown campaign), then the
            # re-announcement to that connection's servant.
            pool = _ScriptedPool(endpoints, lead=3, before=drop_the_socket)
            remote = remote_fault_simulate("mult8", patterns, endpoints,
                                           shards=8, pool=pool)
            first, second = servants[0]
            held = held_once_closed(
                [servant for made in servants for servant in made],
                *servers)
        assert diff_reports(remote, serial) == []
        assert [announced for index, announced, _sent in pool.attempts
                if index == 0][:3] == [False, True, False]
        assert first.calls["begin_campaign"] == 1
        assert second.calls["begin_campaign"] == 1
        assert second.calls["run_shard"] >= 2  # the orphan, then real ones
        assert second.shards_served >= 1
        assert held == [[]] * len(held)


class TestCampaignStateEnds:
    """After ``map`` returns or raises, and its closed connections are
    gone from the servers, no surviving servant holds state (the farm's
    part of ROADMAP item 3(i)).  Nothing ends a campaign but its
    connection."""

    @staticmethod
    @contextlib.contextmanager
    def farm(kind):
        """Two endpoints; yields (endpoints, servants per endpoint, a
        callable that kills endpoint 0, the servers)."""
        if kind == "session":
            with session_farm(2, _CountingServant) as (endpoints, servers,
                                                       servants):
                yield endpoints, servants, servers[0].stop, servers
        else:
            servers = []

            def shared(server):
                servers.append(server)
                return _CountingServant(server)

            with fault_farm(2, servant_factory=shared) as (endpoints,
                                                           servants):
                yield (endpoints, [[servant] for servant in servants],
                       servers[0].stop_tcp, servers)

    @staticmethod
    def held(servants, servers):
        return held_once_closed(
            [servant for made in servants for servant in made], *servers)

    @pytest.mark.parametrize("kind", ["shared", "session"])
    def test_after_success(self, kind):
        _, _, patterns = figure4_campaign(patterns=8)
        with self.farm(kind) as (endpoints, servants, _kill, servers):
            remote_fault_simulate("figure4", patterns, endpoints,
                                  pool=_ScriptedPool(endpoints))
            held = self.held(servants, servers)
        assert held == [[], []]

    @pytest.mark.parametrize("kind", ["shared", "session"])
    def test_after_a_poison_shard(self, kind):
        _, fault_list, patterns = figure4_campaign(patterns=8)
        with self.farm(kind) as (endpoints, servants, _kill, servers):
            with pytest.raises(ParallelExecutionError,
                               match="every remaining endpoint"):
                _ScriptedPool(endpoints).map(
                    figure4(patterns),
                    [fault_list.names()[:2], ("no-such-fault sa0",),
                     fault_list.names()[2:4]])
            held = self.held(servants, servers)
        assert held == [[], []]

    @pytest.mark.parametrize("kind", ["shared", "session"])
    def test_after_a_dead_endpoint_retry(self, kind):
        netlist, fault_list, patterns = figure4_campaign(patterns=8)
        serial = SerialFaultSimulator(netlist, fault_list).run(patterns)
        def kill_before_the_second_attempt(_endpoint, attempt):
            if attempt == 1:
                kill()

        with self.farm(kind) as (endpoints, servants, kill, servers):
            # Spare shards, so that endpoint 0 has a second attempt.
            pool = _ScriptedPool(endpoints, lead=2,
                                 before=kill_before_the_second_attempt)
            remote = remote_fault_simulate("figure4", patterns, endpoints,
                                           shards=8, pool=pool)
            survivors = servants[1]
            held = self.held([survivors], servers[1:])
        assert diff_reports(remote, serial) == []
        assert [servant.shards_served > 0 for servant in survivors] == \
            [True]
        assert held == [[]]


class TestErrorsSurfaceOnTheBlockingCall:
    """``begin_campaign`` and ``add_patterns`` only store, so a bad
    announcement is not a swallowed oneway failure followed by a
    misleading "unknown" error: ``run_shard`` raises the real cause."""

    @staticmethod
    @contextlib.contextmanager
    def raw_stub():
        """A raw stub on a one-servant farm; closing it ends ``raw``."""
        with fault_farm(1, servant_factory=_CountingServant) as (
                endpoints, servants):
            host, port = parse_endpoint(endpoints[0])
            transport = wrap_transport(TcpTransport(host, port),
                                       batching=True, caching=False)
            stub = RemoteStub(transport, FAULT_FARM_OBJECT,
                              FaultFarmServant.REMOTE_METHODS)
            try:
                yield stub
            finally:
                transport.close()
            assert held_once_closed(servants, servants[0].server) == [[]]

    @pytest.mark.parametrize("announcement, fault, cause", [
        (("c17", "equivalence", "nope"), "10sa1", "unknown engine 'nope'"),
        (("c17", "bogus", None), "10sa1", "unknown collapse mode 'bogus'"),
        (("s27", "equivalence", None), "10sa1",
         "bench 's27' is sequential"),
        (("c17", "equivalence", None), "no-such-fault sa0",
         r"has no fault\(s\) \['no-such-fault sa0'\]"),
    ])
    def test_a_raw_stub_gets_the_real_cause(self, announcement, fault,
                                            cause):
        bench, collapse, engine = announcement
        inputs = list(resolve_bench("c17").inputs)
        with self.raw_stub() as stub:
            stub.invoke_oneway("begin_campaign", "raw", bench, collapse,
                               inputs, True, engine)
            with pytest.raises(RemoteError, match=cause):
                stub.run_shard("raw", [fault])
            with pytest.raises(RemoteError,
                               match="unknown campaign 'other'"):
                stub.run_shard("other", [])

    @pytest.mark.parametrize("columns, rows, cause", [
        (lambda inputs: inputs[::-1], ["01010"],
         "the announced input columns are not the 5 inputs of bench 'c17'"),
        (lambda inputs: inputs[:4], ["0101"],
         "the announced input columns are not the 5 inputs of bench 'c17'"),
        (list, ["01010", "0101"],
         "pattern row 1 has 4 characters for 5 input columns"),
        (list, ["01x01"],
         "pattern row 0 has 'x', a character outside '01XZ'"),
        (list, [[0, 1, 0, 1, 0]], "pattern row 0 is a list, not a text"),
    ])
    def test_a_bad_announcement_is_a_named_error(self, columns, rows,
                                                 cause):
        """Columns that are not the worker's bench inputs (same spec,
        other content on the two sides) and malformed rows are named
        errors of the shard, never a ``KeyError``."""
        inputs = list(resolve_bench("c17").inputs)
        with self.raw_stub() as stub:
            stub.invoke_oneway("begin_campaign", "raw", "c17",
                               "equivalence", columns(inputs))
            stub.invoke_oneway("add_patterns", "raw", rows)
            with pytest.raises(RemoteError,
                               match="ParallelExecutionError: "
                                     + re.escape(cause)):
                stub.run_shard("raw", ["10sa1"])

    def test_a_client_on_other_bench_content_is_refused(self):
        """The client packs over its netlist's columns; a worker whose
        bench under that spec has other columns refuses every shard."""
        _, _, patterns = figure4_campaign(patterns=4)
        with fault_farm(1) as (endpoints, servants):
            with pytest.raises(ParallelExecutionError,
                               match="input columns are not the 5 "
                                     "inputs of bench 'c17'"):
                remote_fault_simulate(
                    "c17", patterns, endpoints,
                    netlist=resolve_bench("figure4"))
            assert servants[0].shards_served == 0

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("value", [1, "missing"])
    def test_a_non_logic_pattern_value_is_named(self, engine, value):
        """A value that is not a ``Logic`` (the int 1) or a missing input
        raises, before any endpoint is contacted, the error a local run
        of the same campaign raises -- not a silent X."""
        netlist, fault_list, patterns = campaign_on("c17", 4)
        if value == "missing":
            del patterns[2]["3"]
        else:
            patterns[2]["3"] = value
        with pytest.raises(SimulationError) as local:
            fault_simulator_for(engine, netlist, fault_list).run(patterns)
        with fault_farm(1) as (endpoints, _):
            pass  # torn down: reaching it would fail differently
        with pytest.raises(SimulationError) as remote:
            remote_fault_simulate("c17", patterns, endpoints, engine=engine)
        assert str(remote.value) == str(local.value)
        assert "'3'" in str(local.value)

    def test_the_first_bad_pattern_is_named_before_the_first_bad_input(
            self):
        """Two bad values, on different patterns and inputs: the farm and
        a local run of either engine name the earlier pattern's, as a
        serial run meets them, not the earlier input's."""
        netlist, fault_list, patterns = campaign_on("c17", 80)
        first, last = netlist.inputs[0], netlist.inputs[-1]
        patterns[3][last] = 1
        del patterns[70][first]
        errors = set()
        for engine in ENGINES:
            with pytest.raises(SimulationError) as local:
                fault_simulator_for(engine, netlist, fault_list).run(
                    patterns)
            errors.add(str(local.value))
            with fault_farm(1) as (endpoints, _):
                pass  # torn down: reaching it would fail differently
            with pytest.raises(SimulationError) as remote:
                remote_fault_simulate("c17", patterns, endpoints,
                                      engine=engine)
            errors.add(str(remote.value))
        assert errors == {f"primary input {last!r} is 1, not a Logic "
                          f"value"}


def test_the_row_alphabet_is_logic_to_char():
    assert PATTERN_ALPHABET == "".join(
        Logic(code).to_char() for code in range(len(Logic)))
