"""Table 2 scenarios over corpus benches: publish, evaluate, time."""

import pytest

from repro.bench.scenarios import (run_corpus_scenario,
                                   run_corpus_table2,
                                   shared_bench_provider)
from repro.compiled.engine import DEFAULT_ENGINE
from repro.core import Logic
from repro.gates import load_bench
from repro.gates.simulator import NetlistSimulator
from repro.ip.component import ProviderConnection
from repro.ip.provider import (BenchFunctionalServant, BitPowerServant,
                               IPProvider)
from repro.net.model import LOCALHOST, WAN
from repro.parallel import reset_session_state


class TestPublishBench:
    def test_datasheet_describes_the_bench(self):
        provider = IPProvider()
        provider.publish_bench("s27")
        connection = ProviderConnection(provider, LOCALHOST)
        sheet = connection.describe("s27")
        assert sheet["gates"] == 10
        assert sheet["flip_flops"] == 3
        assert sheet["sequential"] is True

    def test_remote_evaluate_matches_local_simulation(self):
        provider = IPProvider()
        provider.publish_bench("c17")
        connection = ProviderConnection(provider, LOCALHOST)
        stub = connection.stub("c17.module",
                               BenchFunctionalServant.REMOTE_METHODS)
        netlist = load_bench("c17")
        simulator = NetlistSimulator(netlist)
        for value in (0, 1):
            bits = [value] * len(netlist.inputs)
            inputs = {net: Logic(bit)
                      for net, bit in zip(netlist.inputs, bits)}
            expected = [int(v) for v in simulator.outputs(inputs)]
            assert stub.evaluate(bits) == expected

    def test_power_servant_buffers_and_fetches(self):
        provider = IPProvider()
        provider.publish_bench("c17")
        connection = ProviderConnection(provider, LOCALHOST)
        stub = connection.stub("c17.power",
                               BitPowerServant.REMOTE_METHODS)
        session = connection.session
        stub.invoke_oneway("power_buffer", session,
                           [[0, 0, 0, 0, 0], [1, 1, 1, 1, 1]])
        stub.invoke_oneway("mark_bits", session, [1, 0, 1, 0, 1])
        connection.flush()
        powers = stub.fetch_results(session)
        assert len(powers) == 3
        assert all(value >= 0.0 for value in powers)

    def test_wrong_vector_width_rejected(self):
        from repro.core.errors import RemoteError

        provider = IPProvider()
        provider.publish_bench("c17")
        connection = ProviderConnection(provider, LOCALHOST)
        stub = connection.stub("c17.module",
                               BenchFunctionalServant.REMOTE_METHODS)
        with pytest.raises(RemoteError, match="input bits"):
            stub.evaluate([0, 1])


class TestCorpusScenarios:
    def test_remote_modes_agree_on_powers(self):
        """ER (local eval, buffered remote power) and MR (remote eval,
        server-side marking) see the same pattern sequence, so their
        per-pattern power lists are identical -- including sequential
        benches, whose register state threads client-side."""
        for bench in ("c17", "s27"):
            er = run_corpus_scenario("ER", bench, patterns=16,
                                     buffer_size=4)
            mr = run_corpus_scenario("MR", bench, patterns=16,
                                     buffer_size=4)
            assert er.powers == mr.powers, bench
            assert len(er.powers) == 16

    def test_mr_chats_more_than_er(self):
        er = run_corpus_scenario("ER", "s27", patterns=20,
                                 buffer_size=5)
        mr = run_corpus_scenario("MR", "s27", patterns=20,
                                 buffer_size=5)
        assert mr.round_trips > er.round_trips
        assert mr.real > er.real

    def test_wan_slower_than_localhost(self):
        local = run_corpus_scenario("MR", "s27", LOCALHOST, patterns=10)
        wan = run_corpus_scenario("MR", "s27", WAN, patterns=10)
        assert wan.real > local.real

    def test_al_has_no_remote_traffic(self):
        result = run_corpus_scenario("AL", "alu8", patterns=10)
        assert result.remote_calls == 0
        assert result.round_trips == 0
        assert result.host == "NA"

    def test_unknown_scenario_rejected(self):
        from repro.core.errors import DesignError

        with pytest.raises(DesignError, match="unknown scenario"):
            run_corpus_scenario("XX", "c17", patterns=2)

    def test_table_has_seven_rows_in_paper_order(self):
        rows = run_corpus_table2("s27", patterns=8, buffer_size=4)
        assert [row.scenario for row in rows] == \
            ["AL", "ER", "MR", "ER", "MR", "ER", "MR"]
        assert [row.host for row in rows] == \
            ["NA", "localhost", "localhost", "lan", "lan", "wan",
             "wan"]

    def test_shared_provider_memoized(self):
        assert shared_bench_provider("c17") is \
            shared_bench_provider("c17")

    def test_memo_ignores_how_the_default_engine_is_spelled(self):
        assert shared_bench_provider("c17") is \
            shared_bench_provider("c17", None) is \
            shared_bench_provider("c17", engine=DEFAULT_ENGINE)
        assert shared_bench_provider("c17", "event") is not \
            shared_bench_provider("c17")

    def test_reset_session_state_drops_the_bench_provider(self):
        """Session ids restart at ``session1`` after a reset; a bench
        provider that survived it would still hold the previous
        ``session1``'s model and results, and the second run would
        fetch 20 powers and 128 more bytes than the first."""
        runs = []
        for _ in range(2):
            reset_session_state()
            runs.append(run_corpus_scenario("ER", "c17", WAN,
                                            patterns=10))
        first, second = runs
        assert len(first.powers) == len(second.powers) == 10
        assert first.powers == second.powers
        assert first.remote_bytes == second.remote_bytes
        assert (first.cpu, first.real) == (second.cpu, second.real)
