"""AUTH frames, TLS contexts, connect timeouts, stop_tcp shutdown."""

import os
import socket
import threading
import time

import pytest

from repro.core.errors import RemoteError
from repro.core.ids import next_id
from repro.rmi import (AuthRequest, CallReply, JavaCADServer,
                       TcpTransport, client_ssl_context,
                       decode_request, server_ssl_context)
from repro.rmi.marshal import MarshalError
from repro.rmi.transport import (DEFAULT_CONNECT_TIMEOUT,
                                 DEFAULT_TCP_TIMEOUT)

TLS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                       "tls")
CERT = os.path.join(TLS_DIR, "server.pem")
KEY = os.path.join(TLS_DIR, "server.key")


class Echo:
    def ping(self, value):
        return value + 1


def serve_echo():
    server = JavaCADServer("auth.tls.test")
    server.bind("echo", Echo(), ["ping"])
    host, port = server.serve_tcp("127.0.0.1", 0)
    return server, host, port


class TestAuthFrame:
    def test_round_trip(self):
        request = AuthRequest("hunter2")
        decoded = AuthRequest.decode(request.encode())
        assert decoded.token == "hunter2"
        assert decoded.call_id == request.call_id

    def test_decode_request_recognizes_auth(self):
        decoded = decode_request(AuthRequest("t").encode())
        assert isinstance(decoded, AuthRequest)

    def test_from_wire_rejects_other_kinds(self):
        with pytest.raises(MarshalError):
            AuthRequest.from_wire({"kind": "call", "token": "x", "id": 1})

    def test_wire_shape(self):
        wire = AuthRequest("tok", call_id=7).to_wire()
        assert wire == {"kind": "auth", "token": "tok", "id": 7}


class TestTokenlessServerAuthTolerance:
    def test_serve_tcp_accepts_token_clients(self):
        # serve_tcp() starts the front end without a token; AUTH
        # trivially succeeds so a token-configured client still
        # interoperates.  Enforcement needs AsyncRMIServer(auth_token=).
        server, host, port = serve_echo()
        try:
            transport = TcpTransport(host, port, token="whatever")
            assert transport.invoke("echo", "ping", (1,), {}) == 2
            transport.close()
        finally:
            server.stop_tcp()


class TestTlsConfig:
    def test_server_context_loads_the_fixture_pair(self):
        context = server_ssl_context(CERT, KEY)
        assert context.minimum_version.name in ("TLSv1_2", "TLSv1_3")

    def test_server_context_wraps_load_failures(self):
        with pytest.raises(RemoteError, match="TLS"):
            server_ssl_context("/nonexistent.pem", "/nonexistent.key")

    def test_client_context_verifies_by_default(self):
        import ssl
        context = client_ssl_context(cafile=CERT)
        assert context.verify_mode == ssl.CERT_REQUIRED


class TestConnectTimeout:
    def test_default_is_much_shorter_than_the_call_timeout(self):
        assert DEFAULT_CONNECT_TIMEOUT < DEFAULT_TCP_TIMEOUT

    def test_transport_defaults_are_the_constants(self):
        transport = TcpTransport("127.0.0.1", 1)
        assert transport.timeout == DEFAULT_TCP_TIMEOUT
        assert transport.connect_timeout == DEFAULT_CONNECT_TIMEOUT

    def test_constructor_rejects_nonpositive(self):
        for option in ("timeout", "connect_timeout"):
            with pytest.raises(ValueError, match="must be positive"):
                TcpTransport("127.0.0.1", 1, **{option: 0})

    def test_dead_endpoint_fails_fast_with_oserror_cause(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nobody listens here now
        transport = TcpTransport("127.0.0.1", port, connect_timeout=0.5,
                                 timeout=30.0)
        begin = time.monotonic()
        with pytest.raises(RemoteError) as excinfo:
            transport.connect()
        elapsed = time.monotonic() - begin
        assert isinstance(excinfo.value.__cause__, OSError)
        # Far below the 30s call timeout: the connect path governs.
        assert elapsed < 5.0

    def test_connect_succeeds_eagerly_against_a_live_server(self):
        server, host, port = serve_echo()
        try:
            transport = TcpTransport(host, port)
            transport.connect()
            assert transport.invoke("echo", "ping", (4,), {}) == 5
            transport.close()
        finally:
            server.stop_tcp()


class TestServeTcpIdScopes:
    def test_each_client_draws_ids_from_one(self):
        # Per-connection IdScope through the facade: ids drawn while
        # serving one client never advance another client's sequence.
        class Ids:
            def draw(self):
                return next_id("session")

        server = JavaCADServer("auth.tls.ids")
        server.bind("ids", Ids(), ["draw"])
        host, port = server.serve_tcp("127.0.0.1", 0)
        first, second = TcpTransport(host, port), TcpTransport(host, port)
        try:
            drawn = {"first": [], "second": []}
            for _ in range(3):
                drawn["first"].append(first.invoke("ids", "draw", (), {}))
                drawn["second"].append(second.invoke("ids", "draw", (), {}))
            assert drawn == {"first": [1, 2, 3], "second": [1, 2, 3]}
        finally:
            first.close()
            second.close()
            server.stop_tcp()


class TestStopTcpShutdown:
    def test_stop_closes_every_client_and_allows_restart(self):
        baseline = threading.active_count()
        server, host, port = serve_echo()
        transports = [TcpTransport(host, port) for _ in range(3)]
        try:
            for index, transport in enumerate(transports):
                assert transport.invoke("echo", "ping",
                                        (index,), {}) == index + 1
            server.stop_tcp()
            for transport in transports:
                with pytest.raises(RemoteError):
                    transport.invoke("echo", "ping", (0,), {})
        finally:
            for transport in transports:
                transport.close()
        deadline = time.monotonic() + 5
        while threading.active_count() > baseline and \
                time.monotonic() < deadline:
            time.sleep(0.02)
        assert threading.active_count() <= baseline
        host, port = server.serve_tcp("127.0.0.1", 0)
        try:
            again = TcpTransport(host, port)
            assert again.invoke("echo", "ping", (6,), {}) == 7
            again.close()
        finally:
            server.stop_tcp()

    def test_stop_start_cycles_do_not_leak_threads(self):
        baseline = threading.active_count()
        for _ in range(5):
            server, host, port = serve_echo()
            transport = TcpTransport(host, port)
            assert transport.invoke("echo", "ping", (1,), {}) == 2
            transport.close()
            server.stop_tcp()
        deadline = time.monotonic() + 5
        while threading.active_count() > baseline and \
                time.monotonic() < deadline:
            time.sleep(0.02)
        assert threading.active_count() <= baseline

    def test_stop_while_clients_connected(self):
        server, host, port = serve_echo()
        transport = TcpTransport(host, port)
        assert transport.invoke("echo", "ping", (1,), {}) == 2
        server.stop_tcp()
        with pytest.raises(RemoteError):
            transport.invoke("echo", "ping", (2,), {})
        transport.close()

    def test_stop_without_clients_is_quick(self):
        server, _host, _port = serve_echo()
        begin = time.monotonic()
        server.stop_tcp()
        assert time.monotonic() - begin < 2.0
