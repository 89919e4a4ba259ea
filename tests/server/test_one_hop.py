"""Where a served frame's work runs, and what the front end bounds.

On the thread tier the event loop only splits frames and writes
replies: decoding, accounting, dispatch and encoding run on one
dispatch thread per frame, so the counters are shared by those threads
and must lose no update.  On both tiers a dispatch core that raises is
answered with an error reply shaped like the request's own reply, so
the client gets a named error instead of an undecodable frame, and a
frame that makes the front end itself raise ends only its own
connection: the dispatch thread lives on for the other tenants.  A
connection buffers about one bound of unread bytes, however far ahead
its client pipelines.  A process-tier child that dies after its
tenant reset the connection must still get its slot forked anew.
"""

import contextlib
import os
import signal
import socket
import struct
import sys
import threading
import time

import pytest

from repro.core.errors import RemoteError
from repro.rmi import CallReply, CallRequest, JavaCADServer, TcpTransport
from repro.rmi.protocol import (AuthRequest, BatchRequest, encode_frame,
                                frame_length)
from repro.server import DISPATCH_TIERS, AsyncRMIServer
from repro.server import async_server
from repro.server.async_server import _Connection


class Echo:
    METHODS = ("ping", "size", "slow", "pid")

    def ping(self, value):
        return value * 2

    def size(self, blob):
        return len(blob)

    def slow(self, seconds):
        time.sleep(seconds)
        return seconds

    def pid(self):
        return os.getpid()


def echo_session():
    server = JavaCADServer("one-hop.session")
    server.bind("echo", Echo(), Echo.METHODS)
    return server


class BrokenCore(JavaCADServer):
    """A dispatch core with a bug: every dispatch raises."""

    def dispatch_encoded(self, request, clock=None, shared_host=False):
        raise RuntimeError("dispatch core bug")


def broken_session():
    server = BrokenCore("one-hop.broken")
    server.bind("echo", Echo(), Echo.METHODS)
    return server


@contextlib.contextmanager
def running(factory, tier="thread", name="one-hop", **options):
    server = AsyncRMIServer(session_factory=factory, dispatch=tier,
                            name=name, **options)
    host, port = server.start()
    try:
        yield server, host, port
    finally:
        server.stop()


def exchange(sock, request):
    """Send one request frame on a raw socket; its reply body."""
    sock.sendall(encode_frame(request.encode()))
    stream = sock.makefile("rb")
    return stream.read(frame_length(stream.read(4)))


class TestDecodingLeavesTheLoop:
    def test_call_batch_and_refresh_are_decoded_on_dispatch_threads(
            self, monkeypatch):
        seen = []
        decode = async_server.decode_request

        def recording(frame):
            request = decode(frame)
            seen.append((type(request).__name__,
                         threading.current_thread().name))
            return request

        monkeypatch.setattr(async_server, "decode_request", recording)
        with running(echo_session, name="decode-where") as (
                _server, host, port):
            with socket.create_connection((host, port), timeout=10) as sock:
                assert CallReply.decode(exchange(
                    sock, CallRequest("echo", "ping", (2,)))).result == 4
            transport = TcpTransport(host, port)
            try:
                replies = transport.invoke_batch(
                    [CallRequest("echo", "ping", (value,))
                     for value in (1, 3)])
                assert [reply.result for reply in replies] == [2, 6]
                sock = transport._ensure_socket()
                assert CallReply.decode(
                    exchange(sock, AuthRequest("refresh"))).ok
            finally:
                transport.close()
        assert sorted(kind for kind, _thread in seen) == [
            "AuthRequest", "BatchRequest", "CallRequest"]
        threads = [thread for _kind, thread in seen]
        assert "decode-where-loop" not in threads
        assert all(thread.startswith("decode-where-dispatch-")
                   for thread in threads), threads


@pytest.mark.parametrize("tier", DISPATCH_TIERS)
class TestInternalDispatchFailure:
    def test_a_call_gets_an_error_reply_with_its_call_id(self, tier):
        with running(broken_session, tier) as (_server, host, port):
            with socket.create_connection((host, port), timeout=10) as sock:
                request = CallRequest("echo", "ping", (1,))
                reply = CallReply.decode(exchange(sock, request))
        assert reply.call_id == request.call_id
        assert not reply.ok
        assert reply.error == "internal dispatch failure"

    def test_a_batch_gets_one_error_per_call(self, tier):
        with running(broken_session, tier) as (server, host, port):
            transport = TcpTransport(host, port)
            try:
                calls = [CallRequest("echo", "ping", (value,))
                         for value in (1, 2, 3)]
                replies = transport.invoke_batch(calls)
                assert [reply.call_id for reply in replies] \
                    == [call.call_id for call in calls]
                assert {(reply.ok, reply.error) for reply in replies} \
                    == {(False, "internal dispatch failure")}
                # The wire stayed in step: the connection is still served.
                with pytest.raises(RemoteError,
                                   match="internal dispatch failure"):
                    transport.invoke("echo", "ping", (4,), {})
            finally:
                transport.close()
            server.stop()
        assert server.stats.batches_served == 1
        assert server.stats.calls_served == 4
        assert server.stats.protocol_errors == 0


class TestAFailingFrameEndsOnlyItsConnection:
    """More failing frames than dispatch threads: every thread must
    survive its failure, or the next tenant would wait forever."""

    def test_refreshes_with_a_lone_surrogate_token_are_refused(self):
        with running(echo_session, name="surrogate",
                     auth_token="secret") as (server, host, port):
            tenant = TcpTransport(host, port, timeout=10, token="secret")
            try:
                assert tenant.invoke("echo", "ping", (1,), {}) == 2
                sock = tenant._ensure_socket()
                for _ in range(server.dispatch_workers + 1):
                    reply = CallReply.decode(
                        exchange(sock, AuthRequest("\ud800")))
                    assert (reply.ok, reply.error) \
                        == (False, "authentication failed")
                assert tenant.invoke("echo", "ping", (2,), {}) == 4
            finally:
                tenant.close()
            bystander = TcpTransport(host, port, timeout=10, token="secret")
            try:
                assert bystander.invoke("echo", "ping", (3,), {}) == 6
            finally:
                bystander.close()
            server.stop()
        assert server.stats.auth_failures == server.dispatch_workers + 1
        assert server.stats.drained

    def test_a_raising_frame_aborts_its_connection_only(self, monkeypatch):
        def broken(self, request):
            raise RuntimeError("front-end bug")

        with running(echo_session, name="raising") as (server, host, port):
            monkeypatch.setattr(AsyncRMIServer, "_account_request", broken)
            for _ in range(server.dispatch_workers + 1):
                with socket.create_connection((host, port),
                                              timeout=10) as sock:
                    sock.sendall(encode_frame(
                        CallRequest("echo", "ping", (1,)).encode()))
                    try:
                        rest = sock.makefile("rb").read()
                    except ConnectionResetError:
                        rest = b""
                    assert rest == b""  # aborted unanswered
            monkeypatch.undo()
            bystander = TcpTransport(host, port, timeout=10)
            try:
                assert bystander.invoke("echo", "ping", (3,), {}) == 6
            finally:
                bystander.close()
            server.stop()
        assert server.stats.drained


class TestShutdownPastTheDrainDeadline:
    def test_frames_queued_for_aborted_connections_are_skipped(self):
        """One dispatch thread, five tenants each waiting on a 1 s call:
        after the drain deadline the four still queued never run."""
        server = AsyncRMIServer(session_factory=echo_session,
                                dispatch_workers=1, drain_timeout=0.2,
                                name="skip-closed")
        host, port = server.start()
        sockets = []
        try:
            for _ in range(5):
                sock = socket.create_connection((host, port), timeout=10)
                sock.sendall(encode_frame(
                    CallRequest("echo", "slow", (1.0,)).encode()))
                sockets.append(sock)
            time.sleep(0.3)  # the first call is in dispatch
            started = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - started
        finally:
            server.stop()
            for sock in sockets:
                sock.close()
        assert not server.stats.drained
        assert elapsed < 2.5, elapsed


class TestReadBound:
    def test_reading_pauses_while_a_frame_is_in_dispatch(self):
        """A client pipelining megabytes behind a slow call: the
        server buffers about one bound of them, not all."""
        blob = "x" * (64 * 1024)
        count = 128
        frames = [encode_frame(CallRequest("echo", "slow", (1.0,)).encode())]
        frames += [encode_frame(CallRequest("echo", "size", (blob,)).encode())
                   for _ in range(count)]
        with running(echo_session, name="read-bound") as (
                server, host, port):
            with socket.create_connection((host, port), timeout=30) as sock:
                sender = threading.Thread(
                    target=sock.sendall, args=(b"".join(frames),))
                sender.start()
                time.sleep(0.5)  # the slow call is still in dispatch
                (conn,) = server._connections
                buffered, paused = len(conn.buffer), conn.read_paused
                stream = sock.makefile("rb")
                replies = [CallReply.decode(stream.read(frame_length(
                    stream.read(4)))) for _ in frames]
                sender.join(timeout=30)
        assert not sender.is_alive()
        assert paused
        # At most one read past the bound (asyncio reads <= 256 KiB).
        assert buffered <= _Connection.READ_BUFFER_BYTES + 256 * 1024
        assert [reply.result for reply in replies] \
            == [1.0] + [len(blob)] * count


class TestAccountingUnderContention:
    def test_no_count_is_lost_across_dispatch_threads(self):
        """More tenants than dispatch threads and cores, a short switch
        interval: every call and batch is counted exactly once."""
        clients, rounds = 8, 25
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with running(echo_session, name="contention") as (
                    server, host, port):
                failures = []

                def tenant(index):
                    transport = TcpTransport(host, port, timeout=30)
                    try:
                        for value in range(rounds):
                            assert transport.invoke(
                                "echo", "ping", (value,), {}) == 2 * value
                            replies = transport.invoke_batch(
                                [CallRequest("echo", "ping", (index,))
                                 for _ in range(3)])
                            assert [r.result for r in replies] \
                                == [2 * index] * 3
                    except Exception as exc:  # pragma: no cover - diagnostic
                        failures.append(exc)
                    finally:
                        transport.close()

                threads = [threading.Thread(target=tenant, args=(index,))
                           for index in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                server.stop()
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures
        assert server.stats.calls_served == clients * rounds * 4
        assert server.stats.batches_served == clients * rounds


class TestWorkerDeathAfterDisconnect:
    def test_the_slot_is_replaced_when_its_session_already_left(self):
        """The tenant resets its connection mid-dispatch, then its
        child dies: the death still replaces the slot, so the next
        sessions are served, not handed a dead child."""
        with running(echo_session, "process") as (server, host, port):
            with socket.create_connection((host, port), timeout=10) as sock:
                victim = CallReply.decode(exchange(
                    sock, CallRequest("echo", "pid"))).result
                sock.sendall(encode_frame(CallRequest(
                    "echo", "slow", (1.0,)).encode()))
                time.sleep(0.3)  # the slow call is now in the child
                # Linger 0: close() sends a reset, not an orderly EOF.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while server.stats.snapshot()["worker_deaths"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            # Sessions 2..N land on the least-loaded child: the dead
            # slot's fresh one first.
            for _ in range(server.dispatch_workers):
                transport = TcpTransport(host, port)
                try:
                    assert transport.invoke("echo", "ping", (2,), {}) == 4
                finally:
                    transport.close()
        assert server.stats.worker_deaths == 1
