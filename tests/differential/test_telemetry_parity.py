"""Telemetry on/off parity for the batched + cached wire.

Observability must be free of observable effect: running the same
batched + cached workload with telemetry enabled and disabled must
produce byte-identical functional results and identical round-trip
counts, and the ``rmi.batch.*`` / ``rmi.cache.*`` metric families must
exist exactly when telemetry is enabled.
"""

import pytest

from repro.telemetry import TELEMETRY, telemetry_session

from .harness import fault_sim_workload, figure2_workload


@pytest.fixture(autouse=True)
def _clean_telemetry():
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


WORKLOADS = {
    "er-chatty": figure2_workload("ER", patterns=30, buffer_size=1,
                                  nonblocking=True, seed=5),
    "fault-sim": fault_sim_workload(23),
}


class TestParity:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_results_identical_with_and_without_telemetry(self, name):
        workload = WORKLOADS[name]
        off = workload(True, True)
        assert TELEMETRY.metrics.names() == ()
        with telemetry_session():
            on = workload(True, True)
        assert on.fingerprint == off.fingerprint
        assert on.round_trips == off.round_trips
        assert on.logical_calls == off.logical_calls

    def test_wire_metrics_only_when_enabled(self):
        workload = WORKLOADS["er-chatty"]
        workload(True, True)
        assert TELEMETRY.metrics.names() == ()
        with telemetry_session():
            workload(True, True)
            names = TELEMETRY.metrics.names()
        batch_families = [n for n in names if n.startswith("rmi.batch.")]
        cache_families = [n for n in names if n.startswith("rmi.cache.")]
        assert "rmi.batch.flushes" in batch_families
        assert "rmi.batch.saved_round_trips" in batch_families
        assert "rmi.batch.calls" in batch_families
        assert "rmi.cache.hits" in cache_families or \
            "rmi.cache.misses" in cache_families

    def test_saved_round_trip_counters_are_nonzero(self):
        """Chatty oneway pushes feed the batch counter; the fault
        simulation's repeated table fetches feed the cache counter."""
        with telemetry_session():
            for name in sorted(WORKLOADS):
                WORKLOADS[name](True, True)
            saved = {family: TELEMETRY.metrics.counter(
                f"rmi.{family}.saved_round_trips").value
                for family in ("batch", "cache")}
        assert saved["batch"] > 0
        assert saved["cache"] > 0
