"""Per-session fault-farm naming: no cross-tenant counter sharing.

The original ``fault_farm_session_factory`` closed over one
``itertools.count`` shared by every tenant, so a session's name -- and
therefore the farm error strings marshalled back to clients -- depended
on how many *other* tenants the factory had already served.  The
factory now derives the name from the tenant's own connection session
id, threaded in by :func:`repro.server.dispatch.call_session_factory`;
the closure counter survives only as a fallback for direct zero-arg
callers.  These tests pin both behaviours.
"""

import contextlib
import random
import threading

import pytest

from repro.compiled import (built_fault_list, clear_build_cache,
                            fault_simulator_for)
from repro.core.signal import Logic
from repro.faults import build_fault_list
from repro.parallel import (diff_reports, merge_reports,
                            reset_session_state, shard_fault_list)
from repro.parallel.remote import (RemoteCampaign, RemoteWorkerPool,
                                   resolve_bench)
from repro.rmi import JavaCADServer, TcpTransport
from repro.server import (DISPATCH_TIERS, AsyncRMIServer,
                          call_session_factory)
from repro.server.farm import fault_farm_session_factory
from repro.telemetry import TELEMETRY


class WhoAmI:
    def __init__(self, session: JavaCADServer):
        self._session = session

    def name(self):
        return self._session.host_name


def probed_farm_factory(**kwargs):
    """The real farm factory, plus a servant exposing the session name."""
    inner = fault_farm_session_factory(**kwargs)

    def factory(session_id=None):
        session = inner(session_id=session_id)
        session.bind("whoami", WhoAmI(session), ["name"])
        return session

    return factory


@contextlib.contextmanager
def running_farm():
    server = AsyncRMIServer(session_factory=probed_farm_factory())
    host, port = server.start()
    try:
        yield host, port
    finally:
        server.stop()


class TestPerTenantNaming:
    def test_two_tenants_get_their_own_connection_ids(self):
        with running_farm() as (host, port):
            first = TcpTransport(host, port)
            second = TcpTransport(host, port)
            try:
                name_a = first.invoke("whoami", "name", (), {})
                name_b = second.invoke("whoami", "name", (), {})
            finally:
                first.close()
                second.close()
        assert name_a == "faultfarm.session.1"
        assert name_b == "faultfarm.session.2"

    def test_reconnecting_tenant_advances_not_repeats(self):
        # A third connection must get id 3 even after the first two
        # closed: ids order connections, they are not a free-list.
        with running_farm() as (host, port):
            for expected in ("faultfarm.session.1",
                             "faultfarm.session.2",
                             "faultfarm.session.3"):
                transport = TcpTransport(host, port)
                try:
                    assert transport.invoke(
                        "whoami", "name", (), {}) == expected
                finally:
                    transport.close()


class TestFactoryFallback:
    def test_zero_arg_callers_still_count_locally(self):
        factory = fault_farm_session_factory()
        names = [factory().host_name for _ in range(3)]
        assert names == ["faultfarm.session.1", "faultfarm.session.2",
                         "faultfarm.session.3"]

    def test_explicit_session_id_wins(self):
        factory = fault_farm_session_factory()
        assert factory(session_id=7).host_name == "faultfarm.session.7"

    def test_call_session_factory_threads_the_id(self):
        factory = fault_farm_session_factory()
        session = call_session_factory(factory, 7)
        assert session.host_name == "faultfarm.session.7"

    def test_call_session_factory_tolerates_zero_arg_factories(self):
        def legacy():
            return JavaCADServer("legacy.session")

        assert call_session_factory(legacy, 9).host_name == \
            "legacy.session"

    def test_shared_bindings_are_rebound(self):
        shared = JavaCADServer("farm.shared")
        shared.bind("whoami", WhoAmI(shared), ["name"])
        factory = fault_farm_session_factory(shared=shared)
        session = factory(session_id=2)
        binding = session.registry.lookup("whoami")
        assert binding.servant._session is shared
        assert session.host_name == "faultfarm.session.2"


class TestSharedBuild:
    """Sessions of one worker share one fault-list build per bench.

    Every connection gets its own servant (see the module docstring),
    and each servant used to keep its own ``(bench, collapse)`` memo --
    so each new session rebuilt the netlist's fault list, which for a
    campaign-per-connection client was most of the campaign.
    """

    @staticmethod
    def _session(endpoint, campaign, shards):
        """One client connection running ``shards``; worker snapshots."""
        TELEMETRY.enable()
        try:
            return RemoteWorkerPool([endpoint]).map(campaign, shards)
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()

    @pytest.mark.parametrize("tier", DISPATCH_TIERS)
    def test_two_sessions_build_mult8_once(self, tier):
        netlist = resolve_bench("mult8")
        fault_list = build_fault_list(netlist)
        fault_list = fault_list.subset(fault_list.names()[::16])
        rng = random.Random(5)
        patterns = tuple({net: Logic(rng.getrandbits(1))
                          for net in netlist.inputs} for _ in range(8))
        oracle = fault_simulator_for(None, netlist, fault_list).run(
            patterns)
        campaign = RemoteCampaign("mult8", "equivalence", patterns)
        shards = [part.names for part in shard_fault_list(fault_list, 2)]
        clear_build_cache()
        server = AsyncRMIServer(
            session_factory=fault_farm_session_factory(),
            dispatch=tier, dispatch_workers=1)
        host, port = server.start()
        try:
            sessions = [self._session(f"{host}:{port}", campaign, shards)
                        for _ in range(2)]
        finally:
            server.stop()
            clear_build_cache()

        def count(metric):
            return sum(outcome.metrics.get(metric, {}).get("value", 0)
                       for outcomes in sessions for outcome in outcomes)

        assert server.stats.snapshot()["sessions_started"] == 2
        # A servant consults the process-wide memo once per campaign
        # (in its first shard) and keeps the pair for the later shards,
        # so two one-campaign sessions look it up twice: one build, one
        # hit -- not once per shard.
        assert count("faults.build_cache.misses") == 1
        assert count("faults.build_cache.hits") == 1
        for outcomes in sessions:
            merged = merge_reports([outcome.value for outcome in outcomes])
            assert diff_reports(merged, oracle) == []

    def test_concurrent_first_shards_wait_for_one_build(self):
        netlist = resolve_bench("c17")
        builds = []
        started = threading.Barrier(4)

        def first_shard():
            started.wait(timeout=10)
            builds.append(built_fault_list(netlist, "dominance"))

        clear_build_cache()
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            threads = [threading.Thread(target=first_shard)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            snapshot = TELEMETRY.metrics.snapshot()
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
            clear_build_cache()
        assert len(builds) == 4
        assert all(built[1] is builds[0][1] for built in builds)
        assert snapshot["faults.build_cache.misses"]["value"] == 1
        assert snapshot["faults.build_cache.hits"]["value"] == 3

    def test_reset_session_state_empties_the_memo(self):
        netlist = resolve_bench("c17")
        _netlist, first = built_fault_list(netlist)
        assert built_fault_list(resolve_bench("c17"))[1] is first
        reset_session_state()
        assert built_fault_list(netlist)[1] is not first
        clear_build_cache()
