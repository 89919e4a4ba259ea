"""Real TCP transport: the wire protocol across a process boundary."""

import socket
import struct
import threading

import pytest

from repro.core import RemoteError, SecurityViolationError, Word
from repro.rmi import (JavaCADServer, RemoteStub, SecurityPolicy,
                       TcpTransport)


class MathServant:
    def add(self, a, b):
        return a + b

    def mult_words(self, a, b):
        return Word(a.value * b.value, 2 * a.width)

    def fail(self):
        raise RuntimeError("nope")


@pytest.fixture
def tcp_server():
    server = JavaCADServer("tcp.test.provider")
    server.bind("math", MathServant(), ["add", "mult_words", "fail"])
    host, port = server.serve_tcp()
    yield server, host, port
    server.stop_tcp()


class TestTcpRoundtrips:
    def test_scalar_call(self, tcp_server):
        _server, host, port = tcp_server
        transport = TcpTransport(host, port)
        try:
            assert transport.invoke("math", "add", (2, 3)) == 5
        finally:
            transport.close()

    def test_word_values_cross_the_socket(self, tcp_server):
        _server, host, port = tcp_server
        transport = TcpTransport(host, port)
        try:
            result = transport.invoke("math", "mult_words",
                                      (Word(6, 8), Word(7, 8)))
            assert result == Word(42, 16)
        finally:
            transport.close()

    def test_servant_error_travels(self, tcp_server):
        _server, host, port = tcp_server
        transport = TcpTransport(host, port)
        try:
            with pytest.raises(RemoteError, match="nope"):
                transport.invoke("math", "fail")
        finally:
            transport.close()

    def test_persistent_connection_multiple_calls(self, tcp_server):
        _server, host, port = tcp_server
        transport = TcpTransport(host, port)
        try:
            for i in range(20):
                assert transport.invoke("math", "add", (i, 1)) == i + 1
            assert transport.stats.calls == 20
        finally:
            transport.close()

    def test_concurrent_clients(self, tcp_server):
        _server, host, port = tcp_server
        results = {}

        def client(index):
            transport = TcpTransport(host, port)
            try:
                results[index] = [
                    transport.invoke("math", "add", (index, i))
                    for i in range(10)]
            finally:
                transport.close()

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        for index in range(4):
            assert results[index] == [index + i for i in range(10)]

    def test_stub_over_tcp(self, tcp_server):
        _server, host, port = tcp_server
        transport = TcpTransport(host, port)
        try:
            stub = RemoteStub(transport, "math", ["add"])
            assert stub.add(10, 20) == 30
        finally:
            transport.close()


class TestTcpSecurity:
    def test_connect_back_rule(self, tcp_server):
        _server, host, port = tcp_server
        policy = SecurityPolicy("some.other.provider")
        transport = TcpTransport(host, port, policy=policy)
        with pytest.raises(SecurityViolationError):
            transport.invoke("math", "add", (1, 2))

    def test_relaxed_policy_allows(self, tcp_server):
        _server, host, port = tcp_server
        policy = SecurityPolicy("some.other.provider")
        policy.relax(hosts=[host])
        transport = TcpTransport(host, port, policy=policy)
        try:
            assert transport.invoke("math", "add", (1, 2)) == 3
        finally:
            transport.close()


class TestServerLifecycle:
    def test_double_serve_rejected(self, tcp_server):
        server, _host, _port = tcp_server
        with pytest.raises(RemoteError, match="already serving"):
            server.serve_tcp()

    def test_oversized_frame_header_drops_only_that_connection(
            self, tcp_server):
        _server, host, port = tcp_server
        with socket.create_connection((host, port), timeout=5) as raw:
            raw.sendall(struct.pack(">I", 0xFFFFFFFF))
            assert raw.recv(1) == b""  # closed, body never awaited
        transport = TcpTransport(host, port)
        try:
            assert transport.invoke("math", "add", (2, 3)) == 5
        finally:
            transport.close()

    def test_stop_and_restart(self):
        server = JavaCADServer("restart.test")
        server.bind("math", MathServant(), ["add"])
        _host, port1 = server.serve_tcp()
        server.stop_tcp()
        _host, port2 = server.serve_tcp()
        transport = TcpTransport("127.0.0.1", port2)
        try:
            assert transport.invoke("math", "add", (1, 1)) == 2
        finally:
            transport.close()
            server.stop_tcp()


class TestTcpBatching:
    """BATCH frames across a real socket: one frame, many calls."""

    def test_invoke_batch_over_the_socket(self, tcp_server):
        from repro.rmi.protocol import CallRequest

        _server, host, port = tcp_server
        transport = TcpTransport(host, port)
        try:
            requests = [CallRequest("math", "add", (i, i)) for i in
                        range(5)]
            replies = transport.invoke_batch(requests)
            assert [r.result for r in replies] == [0, 2, 4, 6, 8]
            assert all(r.ok for r in replies)
            assert transport.stats.calls == 1
            assert transport.stats.batches == 1
            assert transport.stats.batched_calls == 5
        finally:
            transport.close()

    def test_batching_transport_over_tcp(self, tcp_server):
        from repro.rmi import BatchingTransport

        _server, host, port = tcp_server
        transport = BatchingTransport(TcpTransport(host, port))
        try:
            transport.invoke("math", "add", (1, 1), oneway=True)
            transport.invoke("math", "add", (2, 2), oneway=True)
            assert transport.invoke("math", "add", (3, 3)) == 6
            assert transport.inner.stats.calls == 1
            assert transport.saved_round_trips == 2
        finally:
            transport.close()

    def test_batch_error_isolation_over_tcp(self, tcp_server):
        from repro.rmi.protocol import CallRequest

        _server, host, port = tcp_server
        transport = TcpTransport(host, port)
        try:
            replies = transport.invoke_batch([
                CallRequest("math", "add", (1, 1)),
                CallRequest("math", "fail"),
                CallRequest("math", "add", (2, 2)),
            ])
            assert replies[0].ok and replies[0].result == 2
            assert not replies[1].ok and "nope" in replies[1].error
            assert replies[2].ok and replies[2].result == 4
        finally:
            transport.close()

    def test_caching_transport_over_tcp(self, tcp_server):
        from repro.rmi import CachePolicy, CachingTransport, PURE_METHODS

        _server, host, port = tcp_server
        transport = CachingTransport(
            TcpTransport(host, port),
            policy=CachePolicy(methods=PURE_METHODS | {"add"}))
        try:
            assert transport.invoke("math", "add", (20, 1)) == 21
            assert transport.invoke("math", "add", (20, 1)) == 21
            assert transport.inner.stats.calls == 1
            assert transport.saved_round_trips == 1
        finally:
            transport.close()
