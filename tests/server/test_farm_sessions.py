"""Farm sessions of one worker process share one bench and one build.

Every connection keeps its own campaigns (in its connection context),
but the netlist a campaign resolves comes from the process-wide bench
memo, once per (spec, file content), and its fault list from the build
memo, once per (bench content, collapse).
"""

import random
import threading

import pytest

from repro.compiled import (built_fault_list, clear_build_cache,
                            fault_simulator_for)
from repro.gates.corpus import load_bench
from repro.core.signal import Logic
from repro.faults import build_fault_list
from repro.parallel import (diff_reports, merge_reports,
                            reset_session_state, shard_fault_list)
from repro.parallel.remote import (RemoteCampaign, RemoteWorkerPool,
                                   pack_rows, resolve_bench)
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
        campaign = RemoteCampaign("mult8", "equivalence", netlist.inputs,
                                  pack_rows(netlist.inputs, patterns))
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
        # The bench itself is resolved once per worker process too.
        assert count("faults.bench_cache.misses") == 1
        assert count("faults.bench_cache.hits") == 1
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


def session_count(outcomes, metric):
    """``metric`` summed over one session's worker snapshots."""
    return sum(outcome.metrics.get(metric, {}).get("value", 0)
               for outcome in outcomes)


C17_TEXT = """\
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"""


class TestBenchMemo:
    """``resolve_bench`` is memoized by (spec, file content)."""

    def test_unchanged_content_resolves_once(self, tmp_path):
        path = tmp_path / "c17.bench"
        path.write_text(C17_TEXT)
        clear_build_cache()
        try:
            for spec in ("c17", str(path)):
                assert resolve_bench(spec) is resolve_bench(spec)
            # Same content under another spec is another entry.
            assert resolve_bench(str(path)) is not resolve_bench("c17")
        finally:
            clear_build_cache()

    def test_an_edited_file_is_a_new_key(self, tmp_path):
        path = tmp_path / "c17.bench"
        path.write_text(C17_TEXT)
        first = resolve_bench(str(path))
        path.write_text(C17_TEXT.replace("23 = NAND", "23 = AND"))
        second = resolve_bench(str(path))
        assert second is not first
        assert [gate.cell.name for gate in second.gates].count("AND") == 1
        path.write_text(C17_TEXT)
        assert resolve_bench(str(path)) is first
        clear_build_cache()

    def test_clear_build_cache_empties_the_memo(self):
        first = resolve_bench("c17")
        clear_build_cache()
        second = resolve_bench("c17")
        assert second is not first
        reset_session_state()
        assert resolve_bench("c17") is not second
        clear_build_cache()

    @pytest.mark.parametrize("tier", DISPATCH_TIERS)
    def test_a_long_lived_endpoint_resolves_an_edited_file_again(
            self, tier, tmp_path):
        path = tmp_path / "bench.bench"
        spec = str(path)
        edited = C17_TEXT.replace("23 = NAND(16, 19)", "23 = NOR(16, 7)")

        def campaign_on(text):
            """The campaign, its one shard and its serial oracle."""
            path.write_text(text)
            # Not resolve_bench: the thread tier's servant shares this
            # process's memo, and only the endpoint may fill it here.
            netlist = load_bench(spec)
            fault_list = build_fault_list(netlist)
            rng = random.Random(3)
            patterns = [{net: Logic(rng.randrange(4))
                         for net in netlist.inputs} for _ in range(24)]
            oracle = fault_simulator_for(None, netlist, fault_list).run(
                patterns)
            campaign = RemoteCampaign(spec, "equivalence", netlist.inputs,
                                      pack_rows(netlist.inputs, patterns))
            return campaign, [fault_list.names()], oracle

        clear_build_cache()
        server = AsyncRMIServer(
            session_factory=fault_farm_session_factory(),
            dispatch=tier, dispatch_workers=1)
        host, port = server.start()
        misses = []
        reports = []
        try:
            for text in (C17_TEXT, C17_TEXT, edited):
                campaign, shards, oracle = campaign_on(text)
                outcomes = TestSharedBuild._session(f"{host}:{port}",
                                                    campaign, shards)
                misses.append(session_count(outcomes,
                                            "faults.bench_cache.misses"))
                (outcome,) = outcomes
                assert diff_reports(outcome.value, oracle) == []
                reports.append(outcome.value)
        finally:
            server.stop()
            clear_build_cache()
        # Resolved once for the first content, again after the edit.
        assert misses == [1, 0, 1]
        assert diff_reports(reports[2], reports[0]) != []

    def test_a_forked_worker_starts_with_an_empty_memo(self):
        netlist = resolve_bench("c17")
        campaign = RemoteCampaign("c17", "equivalence", netlist.inputs,
                                  pack_rows(netlist.inputs, []))
        server = AsyncRMIServer(
            session_factory=fault_farm_session_factory(),
            dispatch="process", dispatch_workers=1)
        host, port = server.start()
        try:
            outcomes = TestSharedBuild._session(
                f"{host}:{port}", campaign,
                [build_fault_list(netlist).names()])
        finally:
            server.stop()
        # The parent holds c17; the worker forked from it resolves anew.
        assert resolve_bench("c17") is netlist
        assert session_count(outcomes, "faults.bench_cache.misses") == 1
        assert session_count(outcomes, "faults.bench_cache.hits") == 0
        clear_build_cache()
