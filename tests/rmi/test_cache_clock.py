"""Response-cache TTL must follow the session clock, not wall time.

Deterministic runs are driven by the VirtualClock; if cache entries
age by ``time.monotonic`` instead, a slow *real-time* run can expire
entries mid-run that a fast run keeps, breaking the byte-identical
reproduction guarantee the differential harness asserts.
"""

import time as time_module

import pytest

from repro.bench.scenarios import shared_provider
from repro.cache import ResponseCache
from repro.ip.component import ProviderConnection
from repro.net.clock import VirtualClock
from repro.net.model import LOCALHOST


@pytest.fixture
def wall_clock(monkeypatch):
    """A controllable stand-in for the host's monotonic clock."""
    fake = {"now": 0.0}
    monkeypatch.setattr(time_module, "monotonic", lambda: fake["now"])
    return fake


def cached_connection(clock):
    """A caching connection whose 60 s TTL ages by the session clock --
    the explicit cache ``ProviderConnection``'s docstring prescribes."""
    return ProviderConnection(
        shared_provider(8, True), LOCALHOST, clock=clock, caching=True,
        cache=ResponseCache(ttl=60.0, time_fn=lambda: clock.wall))


class TestSessionClockDrivesTtl:
    def test_wall_time_cannot_expire_entries(self, wall_clock):
        connection = cached_connection(VirtualClock())
        connection.describe("MultFastLowPower")
        trips = connection.round_trips
        # Two weeks of *wall* time pass (a slow real-time run);
        # virtual time has barely moved, so the entry must live on.
        wall_clock["now"] += 14 * 24 * 3600.0
        connection.describe("MultFastLowPower")
        assert connection.round_trips == trips

    def test_virtual_time_does_expire_entries(self, wall_clock):
        clock = VirtualClock()
        connection = cached_connection(clock)
        connection.describe("MultFastLowPower")
        trips = connection.round_trips
        clock.wait(120.0)  # virtual time passes the TTL
        connection.describe("MultFastLowPower")
        assert connection.round_trips == trips + 1

    def test_implicit_cache_never_expires(self, wall_clock):
        clock = VirtualClock()
        connection = ProviderConnection(shared_provider(8, True),
                                        LOCALHOST, clock=clock,
                                        caching=True)
        connection.describe("MultFastLowPower")
        trips = connection.round_trips
        wall_clock["now"] += 14 * 24 * 3600.0
        clock.wait(14 * 24 * 3600.0)
        connection.describe("MultFastLowPower")
        assert connection.round_trips == trips
