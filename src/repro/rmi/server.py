"""JavaCADServer: hosts IP servants and dispatches remote calls.

A server owns a registry of servants and can accept calls through two
paths:

* an **in-process endpoint** with a simulated network
  (:class:`~repro.net.model.NetworkModel`) -- deterministic and used by
  the benchmarks;
* a **real TCP endpoint** over localhost sockets -- used by the
  integration tests to prove that the substrate genuinely works across a
  process boundary with the same wire format.

Servant methods can charge virtual server CPU through the thread-local
:func:`current_server_context`, which routes shared-host contention into
the client's wall clock exactly as the paper observed on the local-host
configuration.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Any, Optional, Sequence, Tuple

from ..core.errors import RemoteError
from ..net.clock import CostModel, VirtualClock
from ..net.model import NetworkModel
from ..telemetry.runtime import TELEMETRY
from .protocol import (AuthRequest, BatchReply, BatchRequest, CallReply,
                       CallRequest, decode_request, frame_length)
from .registry import Binding, Registry

_thread_state = threading.local()


class ServerCallContext:
    """Per-call server-side accounting handle."""

    def __init__(self, clock: Optional[VirtualClock], shared_host: bool):
        self.clock = clock
        self.shared_host = shared_host
        self.charged = 0.0

    def charge(self, seconds: float) -> None:
        """Charge virtual server CPU for the current remote call."""
        self.charged += seconds
        if self.clock is not None:
            self.clock.charge_server_cpu(seconds,
                                         shared_host=self.shared_host)


def current_server_context() -> Optional[ServerCallContext]:
    """The server-call context of the current thread, if dispatching."""
    return getattr(_thread_state, "server_context", None)


class JavaCADServer:
    """An IP provider's server: registry + dispatch + optional TCP door."""

    def __init__(self, host_name: str = "provider.host.name",
                 cost_model: Optional[CostModel] = None):
        self.host_name = host_name
        self.cost = cost_model or CostModel()
        self.registry = Registry()
        self._tcp_socket: Optional[socket.socket] = None
        self._tcp_thread: Optional[threading.Thread] = None
        self._tcp_stop = threading.Event()
        self._tcp_connections: set = set()
        self._tcp_workers: set = set()
        self._tcp_lock = threading.Lock()
        self.calls_served = 0

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------

    def bind(self, name: str, servant: Any,
             methods: Sequence[str]) -> Binding:
        """Expose ``methods`` of ``servant`` under ``name``."""
        return self.registry.bind(name, servant, methods)

    def rebind(self, name: str, servant: Any,
               methods: Sequence[str]) -> Binding:
        """Expose, replacing any previous binding of the same name."""
        return self.registry.rebind(name, servant, methods)

    # ------------------------------------------------------------------
    # Dispatch (shared by both transports)
    # ------------------------------------------------------------------

    def dispatch(self, request: CallRequest,
                 clock: Optional[VirtualClock] = None,
                 shared_host: bool = False) -> CallReply:
        """Execute one call against the registry and build the reply.

        Unknown objects, non-whitelisted methods and servant exceptions
        all produce error replies rather than crashing the server.
        """
        context = ServerCallContext(clock, shared_host)
        context.charge(self.cost.server_dispatch)
        _thread_state.server_context = context
        self.calls_served += 1
        span = None
        if TELEMETRY.enabled:
            span = TELEMETRY.tracer.span(
                "rmi.dispatch", category="rmi", clock=clock,
                args={"server": self.host_name,
                      "object": request.object_name,
                      "method": request.method}).start()
            TELEMETRY.metrics.counter(
                "rmi.dispatch.calls", labels={"server": self.host_name}).inc()
        try:
            binding = self.registry.lookup(request.object_name)
            binding.check_method(request.method)
            method = getattr(binding.servant, request.method)
            result = method(*request.args, **request.kwargs)
            return CallReply(request.call_id, ok=True, result=result)
        except Exception as exc:  # noqa: BLE001 - servant faults must travel
            if span is not None:
                span.set("error", f"{type(exc).__name__}: {exc}")
                TELEMETRY.metrics.counter(
                    "rmi.dispatch.errors",
                    labels={"server": self.host_name}).inc()
            return CallReply(request.call_id, ok=False,
                             error=f"{type(exc).__name__}: {exc}")
        finally:
            if span is not None:
                span.set("server_cpu_s", context.charged)
                span.finish()
            _thread_state.server_context = None

    def dispatch_batch(self, batch: BatchRequest,
                       clock: Optional[VirtualClock] = None,
                       shared_host: bool = False) -> BatchReply:
        """Execute a BATCH frame's calls in order, in one server pass.

        Each inner call goes through the exact same :meth:`dispatch`
        path it would take alone (method whitelists, per-call error
        replies, server CPU charging), so batching never changes what a
        call computes -- only how many frames cross the wire.  A failed
        call does not abort the rest of the batch; its error reply
        rides back in position.
        """
        span = None
        if TELEMETRY.enabled:
            span = TELEMETRY.tracer.span(
                "rmi.dispatch_batch", category="rmi", clock=clock,
                args={"server": self.host_name,
                      "calls": len(batch.calls)}).start()
            TELEMETRY.metrics.counter(
                "rmi.dispatch.batches",
                labels={"server": self.host_name}).inc()
        try:
            replies = tuple(self.dispatch(call, clock=clock,
                                          shared_host=shared_host)
                            for call in batch.calls)
            return BatchReply(batch.batch_id, replies)
        finally:
            if span is not None:
                span.finish()

    # ------------------------------------------------------------------
    # In-process endpoint
    # ------------------------------------------------------------------

    def connect(self, network: NetworkModel,
                clock: Optional[VirtualClock] = None,
                cost_model: Optional[CostModel] = None):
        """Create an in-process transport to this server.

        Import is local to avoid a module cycle with ``transport``.
        """
        from .transport import InProcessTransport
        return InProcessTransport(self, network, clock=clock,
                                  cost_model=cost_model or self.cost)

    # ------------------------------------------------------------------
    # TCP endpoint (real sockets, integration tests)
    # ------------------------------------------------------------------

    def serve_tcp(self, host: str = "127.0.0.1",
                  port: int = 0) -> Tuple[str, int]:
        """Start serving framed requests on a TCP socket; returns address."""
        if self._tcp_socket is not None:
            raise RemoteError("server is already serving TCP")
        server_socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server_socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server_socket.bind((host, port))
        server_socket.listen(8)
        server_socket.settimeout(0.2)
        self._tcp_socket = server_socket
        self._tcp_stop.clear()
        self._tcp_thread = threading.Thread(
            target=self._tcp_accept_loop, name=f"{self.host_name}-tcp",
            daemon=True)
        self._tcp_thread.start()
        return server_socket.getsockname()

    def stop_tcp(self, join_timeout: float = 2.0) -> None:
        """Stop the TCP acceptor and close every open connection.

        Shutdown order matters: the stop event is set (and the accept
        thread joined) *before* the listening socket closes, so an
        in-flight ``accept`` can never raise into the accept thread
        from a socket torn down under it.  Connection worker threads
        are then joined against one shared deadline -- a wedged servant
        cannot hang shutdown forever, but a healthy one gets to finish
        writing its last reply.
        """
        self._tcp_stop.set()
        if self._tcp_thread is not None:
            self._tcp_thread.join(timeout=join_timeout)
            self._tcp_thread = None
        if self._tcp_socket is not None:
            self._tcp_socket.close()
            self._tcp_socket = None
        with self._tcp_lock:
            connections = list(self._tcp_connections)
            self._tcp_connections.clear()
            workers = list(self._tcp_workers)
            self._tcp_workers.clear()
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            connection.close()
        deadline = time.monotonic() + join_timeout
        for worker in workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))

    def _tcp_accept_loop(self) -> None:
        assert self._tcp_socket is not None
        while not self._tcp_stop.is_set():
            try:
                connection, _address = self._tcp_socket.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            if self._tcp_stop.is_set():
                # Stop raced the accept: refuse the connection instead
                # of spawning a worker that shutdown will not see.
                connection.close()
                break
            worker = threading.Thread(
                target=self._tcp_serve_connection, args=(connection,),
                daemon=True)
            with self._tcp_lock:
                self._tcp_workers.add(worker)
            worker.start()

    def _tcp_serve_connection(self, connection: socket.socket) -> None:
        with self._tcp_lock:
            self._tcp_connections.add(connection)
        try:
            with connection:
                while not self._tcp_stop.is_set():
                    frame = _read_frame(connection)
                    if frame is None:
                        return
                    request = decode_request(frame)
                    if isinstance(request, AuthRequest):
                        # The blocking server keeps no token; AUTH
                        # trivially succeeds so token-configured
                        # clients interoperate.  Token *enforcement*
                        # lives in repro.server.AsyncRMIServer.
                        payload = CallReply(request.call_id, ok=True,
                                            result="ok").encode()
                    elif isinstance(request, BatchRequest):
                        batch_reply = self.dispatch_batch(request)
                        payload = _encode_batch_reply(request, batch_reply)
                    else:
                        reply = self.dispatch(request)
                        payload = _encode_reply(request, reply)
                    _write_frame(connection, payload)
        except OSError:
            return
        finally:
            with self._tcp_lock:
                self._tcp_connections.discard(connection)
                self._tcp_workers.discard(threading.current_thread())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"JavaCADServer({self.host_name!r}, "
                f"{len(self.registry.names())} bindings)")


def _encode_reply(request: CallRequest, reply: CallReply) -> bytes:
    """Encode a reply; a marshal failure becomes an error reply.

    Typically a MarshalError: the servant produced a result that may
    not cross the boundary (an attempted IP leak).  Report it as a
    fault instead of desynchronizing the stream.
    """
    try:
        return reply.encode()
    except Exception as exc:  # noqa: BLE001
        return CallReply(request.call_id, ok=False,
                         error=f"{type(exc).__name__}: {exc}").encode()


def _encode_batch_reply(request: BatchRequest,
                        reply: BatchReply) -> bytes:
    """Encode a batch reply, downgrading unmarshallable results per call."""
    try:
        return reply.encode()
    except Exception:  # noqa: BLE001 - isolate the offending call(s)
        replies = []
        for call, call_reply in zip(request.calls, reply.replies):
            try:
                call_reply.encode()
                replies.append(call_reply)
            except Exception as exc:  # noqa: BLE001
                replies.append(CallReply(
                    call.call_id, ok=False,
                    error=f"{type(exc).__name__}: {exc}"))
        return BatchReply(request.batch_id, tuple(replies)).encode()


def _read_frame(connection: socket.socket) -> Optional[bytes]:
    """Read one length-prefixed frame; None on clean EOF."""
    header = _read_exact(connection, 4)
    if header is None:
        return None
    try:
        length = frame_length(header)
    except RemoteError:
        return None  # oversized: drop the connection unread
    return _read_exact(connection, length)


def _read_exact(connection: socket.socket, count: int) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = connection.recv(remaining)
        except socket.timeout:
            continue
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _write_frame(connection: socket.socket, payload: bytes) -> None:
    connection.sendall(struct.pack(">I", len(payload)) + payload)
