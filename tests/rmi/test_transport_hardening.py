"""TcpTransport failure accounting: errors counted, sockets released.

The transport must account socket-level failures (refused connections,
truncated frames, dead peers) in ``TransportStats.errors`` and drop the
cached socket so the next call reconnects cleanly.
"""

import socket
import ssl
import struct
import threading

import pytest

from repro.core import RemoteError
from repro.rmi import JavaCADServer, TcpTransport
from repro.rmi.protocol import CallRequest


def _free_port():
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class _TruncatingServer:
    """Accepts one framed request, replies with a truncated frame."""

    def __init__(self, reply=struct.pack(">I", 80) + b"oops"):
        self._reply = reply
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._socket.bind(("127.0.0.1", 0))
        self._socket.listen(1)
        self.host, self.port = self._socket.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        connection, _address = self._socket.accept()
        with connection:
            # Read the request frame fully, then promise an 80-byte
            # reply but send only 4 bytes before closing.
            header = connection.recv(4)
            (length,) = struct.unpack(">I", header)
            remaining = length
            while remaining:
                chunk = connection.recv(remaining)
                if not chunk:
                    return
                remaining -= len(chunk)
            connection.sendall(self._reply)

    def close(self):
        self._socket.close()
        self._thread.join(timeout=2.0)


class TestConnectFailures:
    def test_connection_refused_counts_an_error(self):
        transport = TcpTransport("127.0.0.1", _free_port(), timeout=1.0)
        with pytest.raises(RemoteError, match="transport failure"):
            transport.invoke("math", "add", (1, 2))
        assert transport.stats.errors == 1
        assert transport.stats.calls == 0
        assert transport._socket is None

    def test_each_refused_attempt_is_counted(self):
        transport = TcpTransport("127.0.0.1", _free_port(), timeout=1.0)
        for _ in range(3):
            with pytest.raises(RemoteError):
                transport.invoke("math", "add", (1, 2))
        assert transport.stats.errors == 3


class TestStreamFailures:
    def test_truncated_frame_counts_error_and_closes_socket(self):
        server = _TruncatingServer()
        try:
            transport = TcpTransport(server.host, server.port,
                                     timeout=2.0)
            with pytest.raises(RemoteError):
                transport.invoke("math", "add", (1, 2))
            assert transport.stats.errors == 1
            # The desynchronized socket must not be reused.
            assert transport._socket is None
        finally:
            server.close()

    def test_oversized_reply_header_is_refused_before_allocating(self):
        # Without the cap the client would recv(4 GiB) on the peer's
        # say-so.
        server = _TruncatingServer(reply=struct.pack(">I", 0xFFFFFFFF))
        try:
            transport = TcpTransport(server.host, server.port,
                                     timeout=2.0)
            with pytest.raises(RemoteError, match="exceeds"):
                transport.invoke("math", "add", (1, 2))
            assert transport.stats.errors == 1
            assert transport._socket is None
        finally:
            server.close()

    def test_peer_close_before_reply_counts_error(self):
        acceptor = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        acceptor.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        acceptor.bind(("127.0.0.1", 0))
        acceptor.listen(1)
        host, port = acceptor.getsockname()

        def slam():
            connection, _address = acceptor.accept()
            connection.close()

        thread = threading.Thread(target=slam, daemon=True)
        thread.start()
        try:
            transport = TcpTransport(host, port, timeout=2.0)
            with pytest.raises(RemoteError):
                transport.invoke("math", "add", (1, 2))
            assert transport.stats.errors == 1
            assert transport._socket is None
        finally:
            thread.join(timeout=2.0)
            acceptor.close()

    def test_reconnects_cleanly_after_failure(self):
        """After an error drops the socket, a live server answers the
        next invoke on a fresh connection."""
        transport = TcpTransport("127.0.0.1", _free_port(), timeout=1.0)
        with pytest.raises(RemoteError):
            transport.invoke("math", "add", (1, 2))

        class Servant:
            def add(self, a, b):
                return a + b

        server = JavaCADServer("recover.test.provider")
        server.bind("math", Servant(), ["add"])
        host, port = server.serve_tcp()
        try:
            transport.host, transport.port = host, port
            assert transport.invoke("math", "add", (2, 3)) == 5
            assert transport.stats.errors == 1
            assert transport.stats.calls == 1
        finally:
            transport.close()
            server.stop_tcp()


class _VanishedSocket:
    """A connected socket whose peer is gone: ``sendall`` or ``recv``
    raises what the kernel reported, else ``recv`` reads EOF."""

    def __init__(self, send_error=None, recv_error=None):
        self.send_error, self.recv_error = send_error, recv_error

    def sendall(self, data):
        if self.send_error is not None:
            raise self.send_error

    def recv(self, count):
        if self.recv_error is not None:
            raise self.recv_error
        return b""

    def close(self):
        pass


class TestVanishedPeer:
    """EOF, reset and broken pipe read as one error, naming the call
    and the peer, however the race between them went."""

    @pytest.mark.parametrize("connection", [
        _VanishedSocket(),
        _VanishedSocket(recv_error=ConnectionResetError(104, "reset")),
        _VanishedSocket(send_error=BrokenPipeError(32, "broken pipe")),
        _VanishedSocket(send_error=ConnectionResetError(104, "reset")),
        _VanishedSocket(recv_error=ssl.SSLEOFError(8, "EOF")),
    ], ids=["eof", "reset-on-recv", "epipe", "reset-on-send", "tls-eof"])
    def test_one_wording(self, connection):
        transport = TcpTransport("127.0.0.1", 9, timeout=1.0)
        transport._socket = connection
        with pytest.raises(RemoteError) as failure:
            transport.invoke("math", "add", (1, 2))
        assert str(failure.value) == (
            "transport failure calling math.add on 127.0.0.1:9: "
            "connection closed by 127.0.0.1:9")
        assert transport.stats.errors == 1
        assert transport._socket is None

    @pytest.mark.parametrize("reset", [False, True], ids=["fin", "rst"])
    def test_a_real_peer_closing_after_the_request(self, reset):
        acceptor = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        acceptor.bind(("127.0.0.1", 0))
        acceptor.listen(1)
        host, port = acceptor.getsockname()

        def vanish():
            connection, _address = acceptor.accept()
            connection.recv(4096)
            if reset:  # close with a reset instead of a FIN
                connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                      struct.pack("ii", 1, 0))
            connection.close()

        thread = threading.Thread(target=vanish, daemon=True)
        thread.start()
        try:
            transport = TcpTransport(host, port, timeout=2.0)
            with pytest.raises(RemoteError) as failure:
                transport.invoke("math", "add", (1, 2))
            assert str(failure.value) == (
                f"transport failure calling math.add on {host}:{port}: "
                f"connection closed by {host}:{port}")
        finally:
            thread.join(timeout=2.0)
            acceptor.close()


class TestSuccessPathUnchanged:
    def test_successful_calls_do_not_count_errors(self):
        class Servant:
            def add(self, a, b):
                return a + b

        server = JavaCADServer("ok.test.provider")
        server.bind("math", Servant(), ["add"])
        host, port = server.serve_tcp()
        try:
            transport = TcpTransport(host, port)
            assert transport.invoke("math", "add", (1, 2)) == 3
            assert transport.stats.errors == 0
            assert transport.stats.calls == 1
        finally:
            transport.close()
            server.stop_tcp()

    def test_request_frames_still_decode(self):
        # Guard against the hardening changing the wire format.
        request = CallRequest("math", "add", (1, 2), {})
        assert CallRequest.decode(request.encode()).method == "add"
