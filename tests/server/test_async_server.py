"""AsyncRMIServer: concurrency, limits, auth, TLS, drain, isolation."""

import contextlib
import os
import socket
import struct
import threading
import time

import pytest

from repro.core.errors import RemoteError
from repro.core.ids import next_id
from repro.rmi import (CallReply, CallRequest, JavaCADServer, RemoteStub,
                       TcpTransport, client_ssl_context,
                       server_ssl_context, wrap_transport)
from repro.rmi.protocol import encode_frame, frame_length
from repro.server import AsyncRMIServer, ServerStats
from repro.telemetry import TELEMETRY

TLS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                       "tls")
CERT = os.path.join(TLS_DIR, "server.pem")
KEY = os.path.join(TLS_DIR, "server.key")


class Echo:
    """A minimal servant with a pure call and a slow call."""

    def ping(self, value):
        return value * 2

    def slow(self, value, seconds=0.2):
        time.sleep(seconds)
        return value

    def boom(self):
        raise ValueError("servant fault")


class SessionIds:
    """Exposes one of the id sequences each tenant's scope isolates."""

    def next_session_id(self):
        return next_id("session")


def echo_session():
    server = JavaCADServer("async.session")
    server.bind("echo", Echo(), ["ping", "slow", "boom"])
    server.bind("ids", SessionIds(), ["next_session_id"])
    return server


@contextlib.contextmanager
def running(**options):
    server = AsyncRMIServer(session_factory=echo_session, **options)
    host, port = server.start()
    try:
        yield server, host, port
    finally:
        server.stop()


@contextlib.contextmanager
def connected(host, port, **options):
    transport = TcpTransport(host, port, **options)
    try:
        yield transport
    finally:
        transport.close()


class TestConstruction:
    def test_requires_exactly_one_core(self):
        with pytest.raises(ValueError):
            AsyncRMIServer()
        with pytest.raises(ValueError):
            AsyncRMIServer(JavaCADServer("x"),
                           session_factory=echo_session)

    def test_rejects_silly_limits(self):
        with pytest.raises(ValueError):
            AsyncRMIServer(session_factory=echo_session,
                           max_connections=0)

    @pytest.mark.parametrize("seconds", [0, -1])
    def test_rejects_a_non_positive_idle_timeout(self, seconds):
        # It would time out every tenant's first read at once.
        with pytest.raises(ValueError, match="idle_timeout"):
            AsyncRMIServer(JavaCADServer("x"), idle_timeout=seconds)

    def test_double_start_refused(self):
        with running() as (server, _host, _port):
            with pytest.raises(RemoteError):
                server.start()

    def test_stop_is_idempotent(self):
        server = AsyncRMIServer(session_factory=echo_session)
        server.start()
        server.stop()
        server.stop()

    def test_restart_after_stop(self):
        server = AsyncRMIServer(session_factory=echo_session)
        host, port = server.start()
        server.stop()
        host2, port2 = server.start()
        try:
            with connected(host2, port2) as transport:
                assert transport.invoke("echo", "ping", (4,), {}) == 8
        finally:
            server.stop()


class TestDispatch:
    def test_round_trip(self):
        with running() as (_server, host, port):
            with connected(host, port) as transport:
                assert transport.invoke("echo", "ping", (21,), {}) == 42

    def test_servant_errors_travel_as_error_replies(self):
        with running() as (_server, host, port):
            with connected(host, port) as transport:
                with pytest.raises(RemoteError, match="servant fault"):
                    transport.invoke("echo", "boom", (), {})
                # connection survives the error reply
                assert transport.invoke("echo", "ping", (3,), {}) == 6

    def test_unknown_object_is_an_error_reply(self):
        with running() as (_server, host, port):
            with connected(host, port) as transport:
                with pytest.raises(RemoteError, match="not bound"):
                    transport.invoke("nowhere", "ping", (), {})

    def test_batch_frames_dispatch(self):
        with running() as (server, host, port):
            with connected(host, port) as transport:
                stacked = wrap_transport(transport, batching=True,
                                         caching=False)
                stub = RemoteStub(stacked, "echo", ("ping",))
                stub.invoke_oneway("ping", 1)
                stub.invoke_oneway("ping", 2)
                assert stub.ping(5) == 10
            server.stop()
            assert server.stats.batches_served >= 1
            assert server.stats.calls_served >= 3

    def test_many_concurrent_clients(self):
        clients = 8
        with running(max_connections=clients) as (server, host, port):
            barrier = threading.Barrier(clients)
            results = [None] * clients
            failures = []

            def worker(index):
                try:
                    with connected(host, port) as transport:
                        barrier.wait(timeout=5)
                        values = [transport.invoke("echo", "ping",
                                                   (index * 100 + i,), {})
                                  for i in range(5)]
                        results[index] = values
                        barrier.wait(timeout=10)
                except Exception as exc:  # pragma: no cover - diagnostic
                    failures.append(exc)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not failures
            for index in range(clients):
                assert results[index] == [
                    (index * 100 + i) * 2 for i in range(5)]
            assert server.stats.connections_peak == clients


class TestLimitsAndTimeouts:
    def test_over_capacity_connection_refused_with_reason(self):
        with running(max_connections=1) as (server, host, port):
            with connected(host, port) as first:
                assert first.invoke("echo", "ping", (1,), {}) == 2
                with connected(host, port) as second:
                    with pytest.raises(RemoteError,
                                       match="at capacity"):
                        second.invoke("echo", "ping", (2,), {})
            server.stop()
            assert server.stats.connections_refused == 1

    def test_capacity_frees_when_a_tenant_leaves(self):
        with running(max_connections=1) as (_server, host, port):
            with connected(host, port) as first:
                assert first.invoke("echo", "ping", (1,), {}) == 2
            deadline = time.monotonic() + 5
            while True:
                try:
                    with connected(host, port) as second:
                        assert second.invoke("echo", "ping",
                                             (2,), {}) == 4
                    break
                except RemoteError:
                    if time.monotonic() > deadline:  # pragma: no cover
                        raise
                    time.sleep(0.02)

    def test_idle_timeout_drops_the_connection(self):
        with running(idle_timeout=0.2) as (_server, host, port):
            with connected(host, port) as transport:
                assert transport.invoke("echo", "ping", (1,), {}) == 2
                time.sleep(0.6)
                with pytest.raises(RemoteError):
                    transport.invoke("echo", "ping", (2,), {})

    def test_graceful_drain_flushes_in_flight_work(self):
        with running() as (server, host, port):
            answers = []

            def call():
                with connected(host, port) as transport:
                    answers.append(transport.invoke(
                        "echo", "slow", (7,), {"seconds": 0.3}))

            thread = threading.Thread(target=call)
            thread.start()
            time.sleep(0.1)  # the slow dispatch is now in flight
            server.stop()
            thread.join(timeout=5)
            assert answers == [7]
            assert server.stats.drained is True

    def test_a_client_that_stops_reading_stalls_only_its_own_dispatch(self):
        """Backpressure: the next frame is taken only after the
        previous reply drained, so N pipelined large-reply frames from
        a client that does not read are NOT all dispatched (and their
        replies buffered) -- the loop stalls once the socket is full."""
        count, size = 40, 512 * 1024
        calls = []

        class Blob:
            def make(self, index):
                calls.append(index)
                return [index, "x" * size]

        core = JavaCADServer("async.backpressure")
        core.bind("blob", Blob(), ["make"])
        core.bind("echo", Echo(), ["ping"])
        server = AsyncRMIServer(core)
        host, port = server.start()
        try:
            raw = socket.socket()
            # A small receive buffer keeps the plateau far below count
            # whatever the kernel's autotuning would otherwise allow.
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
            raw.settimeout(30)
            raw.connect((host, port))
            with raw:
                frames = [CallRequest("blob", "make", (index,)).encode()
                          for index in range(count)]
                raw.sendall(b"".join(encode_frame(f) for f in frames))
                seen, since = -1, time.monotonic()
                while time.monotonic() - since < 0.5:  # until it plateaus
                    if len(calls) != seen:
                        seen, since = len(calls), time.monotonic()
                    time.sleep(0.02)
                assert 1 <= seen <= count // 2, seen
                # Stalled on one tenant only: another is served at once.
                with connected(host, port) as other:
                    assert other.invoke("echo", "ping", (4,), {}) == 8
                stream = raw.makefile("rb")
                for index in range(count):
                    reply = CallReply.decode(
                        stream.read(frame_length(stream.read(4))))
                    assert reply.result[0] == index
                    assert len(reply.result[1]) == size
            assert calls == list(range(count))
        finally:
            server.stop()
        assert server.stats.drained is True
        assert server.stats.calls_served == count + 1


class TestAuth:
    def test_token_round_trip(self):
        with running(auth_token="sekrit") as (server, host, port):
            with connected(host, port, token="sekrit") as transport:
                assert transport.invoke("echo", "ping", (21,), {}) == 42
            server.stop()
            assert server.stats.auth_failures == 0
            assert server.stats.sessions_started == 1

    def test_wrong_token_never_reaches_dispatch(self):
        shared = echo_session()
        server = AsyncRMIServer(shared, auth_token="sekrit")
        host, port = server.start()
        try:
            with connected(host, port, token="wrong") as transport:
                with pytest.raises(RemoteError,
                                   match="authentication rejected"):
                    transport.invoke("echo", "ping", (1,), {})
        finally:
            server.stop()
        assert server.stats.auth_failures == 1
        assert server.stats.sessions_started == 0
        assert shared.calls_served == 0  # nothing touched dispatch

    def test_missing_token_is_an_auth_failure(self):
        shared = echo_session()
        server = AsyncRMIServer(shared, auth_token="sekrit")
        host, port = server.start()
        try:
            with connected(host, port) as transport:  # no token at all
                with pytest.raises(RemoteError):
                    transport.invoke("echo", "ping", (1,), {})
        finally:
            server.stop()
        assert server.stats.auth_failures == 1
        assert shared.calls_served == 0

    def test_auth_failures_counted_in_telemetry(self):
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with running(auth_token="sekrit",
                         name="auth.test") as (_server, host, port):
                with connected(host, port, token="nope") as transport:
                    with pytest.raises(RemoteError):
                        transport.invoke("echo", "ping", (1,), {})
            counter = TELEMETRY.metrics.get(
                "server.auth.failures", labels={"server": "auth.test"})
            assert counter is not None and counter.value == 1
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()

    def test_tokenless_server_accepts_token_clients(self):
        with running() as (_server, host, port):
            with connected(host, port, token="anything") as transport:
                assert transport.invoke("echo", "ping", (5,), {}) == 10


class TestFrameCap:
    """A 4-byte length prefix is honoured only up to MAX_FRAME_BYTES."""

    @staticmethod
    def _send_oversized_header(host, port):
        with socket.create_connection((host, port), timeout=5) as raw:
            raw.sendall(struct.pack(">I", 0xFFFFFFFF))
            begin = time.monotonic()
            assert raw.recv(1) == b""  # closed without awaiting a body
            return time.monotonic() - begin

    def test_pre_auth_oversized_header_is_refused_unread(self):
        # A long handshake timeout: the refusal must come from the
        # cap, not from waiting out a body that never arrives.
        with running(auth_token="sekrit", handshake_timeout=30.0
                     ) as (server, host, port):
            assert self._send_oversized_header(host, port) < 5.0
            with connected(host, port, token="sekrit") as transport:
                assert transport.invoke("echo", "ping", (21,), {}) == 42
            server.stop()
            assert server.stats.auth_failures == 1
            assert server.stats.sessions_started == 1

    def test_mid_session_oversized_header_is_a_protocol_error(self):
        with running() as (server, host, port):
            with connected(host, port) as transport:
                assert transport.invoke("echo", "ping", (1,), {}) == 2
                self._send_oversized_header(host, port)
                assert transport.invoke("echo", "ping", (2,), {}) == 4
            server.stop()
            assert server.stats.protocol_errors == 1
            assert server.stats.calls_served == 2


class TestMidSessionAuth:
    """AUTH frames after the handshake: counted, but not as calls.

    Client transports exclude AUTH frames from ``rmi.calls``; the
    server symmetrically excludes them from ``calls_served`` and counts
    them as ``auth_refreshes`` instead, so a stack that re-sends AUTH
    mid-session can never make the two sides' call totals disagree.
    """

    @staticmethod
    def _send_auth(transport, token):
        import struct

        from repro.rmi.protocol import AuthRequest, CallReply

        sock = transport._ensure_socket()
        payload = AuthRequest(token).encode()
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        return CallReply.decode(transport._read_frame(sock))

    def test_refresh_is_counted_but_not_a_call(self):
        with running(auth_token="sekrit") as (server, host, port):
            with connected(host, port, token="sekrit") as transport:
                assert transport.invoke("echo", "ping", (1,), {}) == 2
                reply = self._send_auth(transport, "sekrit")
                assert reply.ok
                assert transport.invoke("echo", "ping", (2,), {}) == 4
            server.stop()
        assert server.stats.auth_refreshes == 1
        assert server.stats.auth_failures == 0
        # Both sides agree: 2 calls, the AUTH frames excluded on each.
        assert server.stats.calls_served == 2
        assert transport.stats.calls == 2

    def test_bad_refresh_token_is_an_auth_failure_not_a_call(self):
        with running(auth_token="sekrit") as (server, host, port):
            with connected(host, port, token="sekrit") as transport:
                assert transport.invoke("echo", "ping", (1,), {}) == 2
                reply = self._send_auth(transport, "wrong")
                assert not reply.ok
                assert "authentication" in (reply.error or "")
                # The session keeps its handshake authentication.
                assert transport.invoke("echo", "ping", (3,), {}) == 6
            server.stop()
        assert server.stats.auth_refreshes == 0
        assert server.stats.auth_failures == 1
        assert server.stats.calls_served == 2

    def test_refresh_on_tokenless_server_is_counted_too(self):
        with running() as (server, host, port):
            with connected(host, port) as transport:
                assert transport.invoke("echo", "ping", (1,), {}) == 2
                assert self._send_auth(transport, "whatever").ok
            server.stop()
        assert server.stats.auth_refreshes == 1
        assert server.stats.calls_served == 1

    def test_refresh_telemetry_counter(self):
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with running(auth_token="sekrit",
                         name="auth.refresh") as (_server, host, port):
                with connected(host, port,
                               token="sekrit") as transport:
                    self._send_auth(transport, "sekrit")
            counter = TELEMETRY.metrics.get(
                "server.auth.refreshes",
                labels={"server": "auth.refresh"})
            assert counter is not None and counter.value == 1
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()


class TestTls:
    def test_tls_round_trip(self):
        context = server_ssl_context(CERT, KEY)
        with running(ssl_context=context) as (_server, host, port):
            with connected(host, port,
                           ssl_context=client_ssl_context(cafile=CERT),
                           server_hostname="localhost") as transport:
                assert transport.invoke("echo", "ping", (21,), {}) == 42

    def test_tls_plus_token(self):
        context = server_ssl_context(CERT, KEY)
        with running(ssl_context=context,
                     auth_token="sekrit") as (server, host, port):
            with connected(host, port, token="sekrit",
                           ssl_context=client_ssl_context(cafile=CERT),
                           server_hostname="localhost") as transport:
                assert transport.invoke("echo", "ping", (3,), {}) == 6
            server.stop()
            assert server.stats.auth_failures == 0

    def test_unverified_client_is_refused_by_tls(self):
        context = server_ssl_context(CERT, KEY)
        with running(ssl_context=context) as (_server, host, port):
            # Default trust store does not contain the test CA.
            with connected(host, port,
                           ssl_context=client_ssl_context(),
                           server_hostname="localhost") as transport:
                with pytest.raises(RemoteError):
                    transport.invoke("echo", "ping", (1,), {})


class TestSessionIsolation:
    def test_each_tenant_sees_fresh_process_ids(self):
        clients = 4
        with running(max_connections=clients) as (_server, host, port):
            barrier = threading.Barrier(clients)
            results = [None] * clients
            failures = []

            def worker(index):
                try:
                    with connected(host, port) as transport:
                        barrier.wait(timeout=5)
                        results[index] = [
                            transport.invoke("ids", "next_session_id",
                                             (), {})
                            for _ in range(3)]
                        barrier.wait(timeout=10)
                except Exception as exc:  # pragma: no cover - diagnostic
                    failures.append(exc)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not failures
            assert results == [[1, 2, 3]] * clients

    def test_isolation_does_not_leak_into_the_parent(self):
        before = next_id("session")
        with running() as (_server, host, port):
            with connected(host, port) as transport:
                for _ in range(5):
                    transport.invoke("ids", "next_session_id", (), {})
        after = next_id("session")
        assert after == before + 1  # tenant ids never touched ours


class TestStatsAndTelemetry:
    def test_stats_snapshot_shape(self):
        stats = ServerStats()
        snapshot = stats.snapshot()
        assert snapshot["connections_open"] == 0
        assert "auth_failures" in snapshot
        assert "drained" in snapshot
        assert "stats:" in stats.summary_line()

    def test_server_metrics_registered_when_enabled(self):
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with running(name="metrics.test") as (_server, host, port):
                with connected(host, port) as transport:
                    transport.invoke("echo", "ping", (1,), {})
            names = TELEMETRY.metrics.names()
            assert any(n.startswith("server.connections.accepted")
                       for n in names)
            assert any(n.startswith("server.calls") for n in names)
            assert any(n.startswith("server.dispatch.latency")
                       for n in names)
            latency = TELEMETRY.metrics.get(
                "server.dispatch.latency",
                labels={"server": "metrics.test"})
            assert latency is not None and latency.count >= 1
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
