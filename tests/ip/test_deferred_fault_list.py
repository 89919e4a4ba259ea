"""A publish binds ``.test`` without building its fault list.

Table 2's clients call only ``.power`` and ``.module``, so a publish
leaves the testability servant's list unbuilt; the first
``fault_list()`` or ``detection_table()`` builds it, once, and it is the
list an eager build made: the same opaque names in the same order,
each mapped to the same structural class.
"""

import threading

import pytest

from repro.bench import build_figure4, scenarios
from repro.bench.scenarios import run_scenario
from repro.core import FaultSimulationError, Logic
from repro.faults import TestabilityServant
from repro.faults import faultlist
from repro.gates import ip1_block, write_bench
from repro.ip import IPProvider, ProviderConnection
from repro.ip import provider as provider_module
from repro.net import LOCALHOST, WAN
from repro.parallel.merge import diff_reports

WIDTH = 4
MULT = "MultFastLowPower"
FIGURE4_PATTERNS = [{"A": a, "B": b, "C": c, "D": d}
                    for a in (0, 1) for b in (0, 1)
                    for c in (0, 1) for d in (0, 1)]


@pytest.fixture
def builds(monkeypatch):
    """Every ``build_fault_list`` call a publish or a servant makes."""
    calls = []
    real = faultlist.build_fault_list

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(provider_module, "build_fault_list", counted)
    return calls


@pytest.fixture(scope="module")
def ip1_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("ip1") / "IP1.bench"
    path.write_text(write_bench(ip1_block()))
    return str(path)


def published(ip1_spec):
    provider = IPProvider("deferred.provider")
    provider.publish_multiplier(WIDTH, training_patterns=20)
    provider.publish_bench(ip1_spec)
    return provider


def servant_of(provider, name):
    return provider.server.registry.lookup(f"{name}.test").servant


def eager_list(provider, name):
    return faultlist.build_fault_list(provider.private_netlist(name),
                                      obfuscate=True)


def as_tuples(fault_list):
    return [(name, fault_list.fault(name), fault_list.class_of(name))
            for name in fault_list.names()]


def test_a_publish_builds_no_fault_list(builds, ip1_spec):
    published(ip1_spec)
    assert builds == []


def test_an_unknown_collapse_mode_is_still_refused_at_publish(ip1_spec):
    provider = IPProvider("deferred.provider")
    with pytest.raises(FaultSimulationError, match="bogus"):
        provider.publish_bench(ip1_spec, fault_collapse="bogus")
    assert provider.server.registry.names() == ("catalog",)


@pytest.mark.parametrize("first_call", ["fault_list", "detection_table"])
def test_the_first_call_builds_the_eager_list_once(builds, ip1_spec,
                                                   first_call):
    provider = published(ip1_spec)
    for name in (MULT, ip1_spec):
        servant = servant_of(provider, name)
        if first_call == "fault_list":
            servant.fault_list()
        else:
            servant.detection_table(
                [Logic.ONE] * len(servant.netlist.inputs), [])
        servant.fault_list()
        servant.detection_table(
            [Logic.ZERO] * len(servant.netlist.inputs),
            servant.fault_list())
        assert as_tuples(servant.faults) == \
            as_tuples(eager_list(provider, name))
        assert servant.fault_list() == tuple(
            f"f{index}" for index in range(len(servant.faults)))
    assert len(builds) == 2


def test_eight_threads_first_calls_build_once(builds, ip1_spec):
    provider = published(ip1_spec)
    servant = servant_of(provider, MULT)
    start = threading.Barrier(8)
    replies = []

    def first_call():
        start.wait()
        replies.append(servant.fault_list())

    threads = [threading.Thread(target=first_call) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(builds) == 1
    assert len(set(replies)) == 1 and len(replies) == 8
    assert replies[0] == eager_list(provider, MULT).names()


def test_a_table2_mr_run_leaves_the_test_servant_unbuilt(builds):
    scenarios.clear_shared_providers()
    try:
        run_scenario("MR", WAN, width=WIDTH, patterns=10)
        servant = servant_of(scenarios.shared_provider(WIDTH), MULT)
        assert builds == []
        assert servant._faults is None
    finally:
        scenarios.clear_shared_providers()


def test_a_figure5_campaign_reports_as_with_an_eager_list(ip1_spec):
    provider = published(ip1_spec)
    connection = ProviderConnection(provider, LOCALHOST)
    deferred = build_figure4(stub=connection.stub(
        f"{ip1_spec}.test", TestabilityServant.REMOTE_METHODS))
    eager = build_figure4(stub=TestabilityServant(
        provider.private_netlist(ip1_spec),
        eager_list(provider, ip1_spec)))
    first = deferred.simulator.run(FIGURE4_PATTERNS)
    second = eager.simulator.run(FIGURE4_PATTERNS)
    assert diff_reports(first, second) == []
    assert first == second
    assert list(first.detected.items()) == list(second.detected.items())
    assert first.coverage > 0
