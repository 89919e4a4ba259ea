"""Dispatch tiers: thread/process semantics and independence.

Byte-identity of per-tenant reports against fresh-process serial runs
lives in tests/differential/test_server_differential.py; this module
pins the *scheduling* contract -- which tiers exist, how sessions are
routed, that one tenant's slow dispatch never stalls another tenant's
replies, that one connection's frames dispatch one at a time in
arrival order, and that no process-tier worker is forked while a
dispatch thread is alive.
"""

import contextlib
import os
import signal
import socket
import struct
import threading
import time

import pytest

from repro.core.errors import RemoteError
from repro.core.ids import next_id
from repro.core.signal import Logic
from repro.parallel.remote import register_fault_farm, resolve_bench
from repro.rmi import CallReply, CallRequest, JavaCADServer, TcpTransport
from repro.server import DISPATCH_TIERS, AsyncRMIServer
from repro.server.dispatch import ProcessDispatcher

ALL_TIERS = list(DISPATCH_TIERS)


class Echo:
    def ping(self, value):
        return value * 2

    def slow(self, value, seconds=0.2):
        time.sleep(seconds)
        return value

    def pid(self):
        return os.getpid()


class SessionIds:
    def next_session_id(self):
        return next_id("session")


class Overlap:
    """Records how many of its calls ever ran at the same time."""

    def __init__(self):
        self._lock = threading.Lock()
        self.active = 0
        self.peak = 0
        self.order = []

    def visit(self, index):
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        time.sleep(0.01)
        with self._lock:
            self.active -= 1
            self.order.append(index)
        return index

    def observed(self):
        return {"peak": self.peak, "order": list(self.order)}


def tier_session():
    server = JavaCADServer("tiers.session")
    server.bind("echo", Echo(), ["ping", "slow", "pid"])
    server.bind("ids", SessionIds(), ["next_session_id"])
    server.bind("overlap", Overlap(), ["visit", "observed"])
    register_fault_farm(server)
    return server


class ForkRecorder:
    """Names of the threads alive in the parent at each ``os.fork``.

    The hook is registered once per process (``os.register_at_fork``
    has no unregister) and records only inside :meth:`recording`.
    """

    def __init__(self):
        self._forks = None
        os.register_at_fork(before=self._before)

    def _before(self):
        if self._forks is not None:
            self._forks.append([thread.name
                                for thread in threading.enumerate()])

    @contextlib.contextmanager
    def recording(self):
        self._forks = forks = []
        try:
            yield forks
        finally:
            self._forks = None


FORKS = ForkRecorder()


@contextlib.contextmanager
def running(tier, **options):
    server = AsyncRMIServer(session_factory=tier_session,
                            dispatch=tier, **options)
    host, port = server.start()
    try:
        yield server, host, port
    finally:
        server.stop()


class TestTierSelection:
    def test_known_tiers(self):
        assert DISPATCH_TIERS == ("thread", "process")

    def test_thread_is_the_default_tier(self):
        server = AsyncRMIServer(session_factory=tier_session)
        assert server.dispatch_tier == "thread"

    def test_unknown_tier_is_rejected(self):
        with pytest.raises(ValueError, match="dispatch"):
            AsyncRMIServer(session_factory=tier_session,
                           dispatch="osmosis")

    @pytest.mark.parametrize("tier", ALL_TIERS)
    def test_round_trip_on_every_tier(self, tier):
        with running(tier) as (_server, host, port):
            transport = TcpTransport(host, port)
            try:
                assert transport.invoke("echo", "ping", (21,), {}) == 42
            finally:
                transport.close()

    @pytest.mark.parametrize("tier", ALL_TIERS)
    def test_repr_names_the_tier(self, tier):
        server = AsyncRMIServer(session_factory=tier_session,
                                dispatch=tier)
        assert f"dispatch={tier!r}" in repr(server)


class TestSessionIdIsolation:
    @pytest.mark.parametrize("tier", ALL_TIERS)
    def test_two_tenants_each_see_fresh_process_ids(self, tier):
        with running(tier) as (_server, host, port):
            first = TcpTransport(host, port)
            second = TcpTransport(host, port)
            try:
                a = [first.invoke("ids", "next_session_id", (), {})
                     for _ in range(3)]
                b = [second.invoke("ids", "next_session_id", (), {})
                     for _ in range(3)]
                # Sticky continuity: the same session resumes its
                # namespace, it does not restart it.
                a += [first.invoke("ids", "next_session_id", (), {})
                      for _ in range(2)]
            finally:
                first.close()
                second.close()
        assert a == [1, 2, 3, 4, 5]
        assert b == [1, 2, 3]

    @pytest.mark.parametrize("tier", ALL_TIERS)
    def test_a_farm_shard_mid_session_leaves_tenant_ids_alone(self, tier):
        """Running a shard used to rewind process state from inside the
        live server, silently un-isolating every tenant."""
        pattern = {net: Logic(1) for net in resolve_bench("c17").inputs}
        barrier = threading.Barrier(2)
        seen = {}

        def tenant(name, host, port):
            transport = TcpTransport(host, port)
            try:
                def draw(count):
                    return [transport.invoke("ids", "next_session_id",
                                             (), {})
                            for _ in range(count)]
                ids = draw(2)
                barrier.wait(timeout=10)
                campaign = f"farm{name}"
                transport.invoke("faultfarm", "begin_campaign",
                                 (campaign, "c17", "equivalence"), {})
                transport.invoke("faultfarm", "add_patterns",
                                 (campaign, [pattern]), {})
                ids += draw(1)
                transport.invoke("faultfarm", "run_shard",
                                 (campaign, []), {})
                seen[name] = ids + draw(2)
            finally:
                transport.close()

        with running(tier) as (_server, host, port):
            threads = [threading.Thread(target=tenant,
                                        args=(name, host, port))
                       for name in ("a", "b")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert seen == {"a": [1, 2, 3, 4, 5], "b": [1, 2, 3, 4, 5]}

    def test_process_tier_routes_sessions_stickily(self):
        dispatcher = ProcessDispatcher(tier_session, workers=3)
        try:
            for session_id in range(1, 10):
                pool = dispatcher.pool_for(session_id)
                assert pool is dispatcher.pool_for(session_id)
                expected = (session_id - 1) % 3
                assert dispatcher._pools.index(pool) == expected
        finally:
            dispatcher.shutdown()

    def test_process_dispatcher_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessDispatcher(tier_session, workers=0)


class TestWorkerDeath:
    def test_a_killed_worker_ends_its_sessions_and_is_replaced(self):
        """SIGKILL one sticky worker mid-session: its tenant gets one
        named error and a closed socket (never a silently re-created
        session with rewound ids), the other slot's tenant is
        unaffected, and new sessions on the dead slot are served."""
        def draw(transport, count):
            return [transport.invoke("ids", "next_session_id", (), {})
                    for _ in range(count)]

        with running("process", dispatch_workers=2) as (server, host, port):
            doomed = TcpTransport(host, port)     # session 1 -> slot 0
            bystander = TcpTransport(host, port)  # session 2 -> slot 1
            try:
                assert draw(doomed, 2) == [1, 2]
                assert draw(bystander, 2) == [1, 2]
                victim = doomed.invoke("echo", "pid", (), {})
                assert victim != bystander.invoke("echo", "pid", (), {})
                os.kill(victim, signal.SIGKILL)
                with pytest.raises(RemoteError, match=(
                        "dispatch worker for session 1 died; "
                        "session state is lost")):
                    draw(doomed, 1)
                # The server closed that connection after the error.
                with pytest.raises(
                        RemoteError,
                        match="connection closed|transport failure"):
                    draw(doomed, 1)
                assert draw(bystander, 2) == [3, 4]
                # The transport reconnects: session 3 -> the dead slot,
                # now a fresh worker, and a fresh session's ids.
                assert draw(doomed, 3) == [1, 2, 3]
                replacement = doomed.invoke("echo", "pid", (), {})
                assert replacement not in (victim, os.getpid())
            finally:
                doomed.close()
                bystander.close()
            server.stop()
            assert server.stats.worker_deaths == 1
            assert server.stats.sessions_started == 3
            assert "worker_deaths=1" in server.stats.summary_line()


class TestForkHygiene:
    def test_no_dispatch_thread_is_alive_at_any_fork(self):
        """A forked worker must never inherit live dispatch threads:
        checked at the fork itself, for both startup forks and the
        replacement fork after a killed worker."""
        name = f"fork-hygiene-{os.getpid()}"
        with FORKS.recording() as forks:
            with running("process", dispatch_workers=2,
                         name=name) as (_server, host, port):
                startup = len(forks)
                doomed = TcpTransport(host, port)     # session 1 -> slot 0
                bystander = TcpTransport(host, port)  # session 2 -> slot 1
                try:
                    assert doomed.invoke("echo", "ping", (1,), {}) == 2
                    assert bystander.invoke("echo", "ping", (2,), {}) == 4
                    os.kill(doomed.invoke("echo", "pid", (), {}),
                            signal.SIGKILL)
                    with pytest.raises(RemoteError, match="died"):
                        doomed.invoke("echo", "ping", (3,), {})
                    with pytest.raises(
                            RemoteError,
                            match="connection closed|transport failure"):
                        doomed.invoke("echo", "ping", (3,), {})
                    # Session 3 lands on the dead slot's replacement.
                    assert doomed.invoke("echo", "ping", (3,), {}) == 6
                finally:
                    doomed.close()
                    bystander.close()
        assert startup == 2
        assert len(forks) == 3
        dispatch = f"{name}-dispatch"
        assert [[thread for thread in alive if thread.startswith(dispatch)]
                for alive in forks] == [[], [], []]


class TestCrossTenantIndependence:
    """A slow tenant must not delay a fast tenant's replies.

    The slow call sleeps, so this holds even on a one-core runner:
    what is being pinned is the *scheduling* (nothing shared between
    tenants), not CPU parallelism.
    """

    SLOW_SECONDS = 0.8

    def _overlap(self, tier):
        with running(tier) as (_server, host, port):
            slow = TcpTransport(host, port)
            fast = TcpTransport(host, port)
            try:
                fast.invoke("echo", "ping", (0,), {})  # open session
                slow_done = threading.Event()

                def slow_call():
                    slow.invoke("echo", "slow", (1,),
                                {"seconds": self.SLOW_SECONDS})
                    slow_done.set()

                worker = threading.Thread(target=slow_call)
                worker.start()
                time.sleep(0.15)  # the slow dispatch is now in flight
                begin = time.monotonic()
                replies = [fast.invoke("echo", "ping", (i,), {})
                           for i in range(5)]
                fast_wall = time.monotonic() - begin
                finished_during = slow_done.is_set()
                worker.join()
            finally:
                slow.close()
                fast.close()
        assert replies == [0, 2, 4, 6, 8]
        return fast_wall, finished_during

    @pytest.mark.parametrize("tier", ALL_TIERS)
    def test_fast_tenant_overlaps_a_slow_tenants_dispatch(self, tier):
        fast_wall, finished_during = self._overlap(tier)
        # All five replies must land while the slow call still holds
        # its executor -- they never queue behind it.
        assert not finished_during
        assert fast_wall < self.SLOW_SECONDS / 2, fast_wall

    @pytest.mark.parametrize("tier", ALL_TIERS)
    def test_pipelined_frames_in_order(self, tier):
        """N frames sent without awaiting any reply: the servant sees
        them in arrival order, never two at once -- while a second
        tenant's slow call is in flight on the same server."""
        count = 12
        with running(tier) as (_server, host, port):
            slow = TcpTransport(host, port)
            worker = threading.Thread(
                target=slow.invoke,
                args=("echo", "slow", (1,),
                      {"seconds": self.SLOW_SECONDS}))
            worker.start()
            try:
                with socket.create_connection((host, port),
                                              timeout=10) as raw:
                    frames = [CallRequest("overlap", "visit",
                                          (index,)).encode()
                              for index in range(count)]
                    frames.append(
                        CallRequest("overlap", "observed").encode())
                    raw.sendall(b"".join(
                        struct.pack(">I", len(frame)) + frame
                        for frame in frames))
                    stream = raw.makefile("rb")
                    replies = []
                    for _ in frames:
                        (length,) = struct.unpack(">I", stream.read(4))
                        replies.append(
                            CallReply.decode(stream.read(length)))
                still_slow = worker.is_alive()
            finally:
                worker.join(timeout=10)
                slow.close()
        assert [reply.result for reply in replies[:count]] \
            == list(range(count))
        assert replies[-1].result == {"peak": 1,
                                      "order": list(range(count))}
        # The pipelined tenant finished under the slow one's dispatch.
        assert still_slow
