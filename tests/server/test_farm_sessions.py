"""Farm sessions of one worker process share one fault-list build.

Every connection keeps its own campaigns (in its connection context),
but the netlist and fault list a campaign resolves come from the
process-wide build memo, once per (bench content, collapse).
"""

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
from repro.server import DISPATCH_TIERS, AsyncRMIServer
from repro.server.farm import fault_farm_session_factory
from repro.telemetry import TELEMETRY


class TestSharedBuild:
    """Sessions of one worker share one fault-list build per bench.

    Each servant used to keep its own ``(bench, collapse)`` memo -- so
    each new session rebuilt the netlist's fault list, which for a
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
