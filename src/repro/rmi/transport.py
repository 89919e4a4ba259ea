"""Client-side transports: how stubs reach a JavaCAD server.

Two interchangeable implementations of the same invoke contract:

* :class:`InProcessTransport` executes the servant in-process but still
  pushes every argument and result through the restricted marshaller and
  charges a :class:`~repro.net.model.NetworkModel`-driven virtual clock.
  This is the deterministic path used by all benchmarks.
* :class:`TcpTransport` speaks the framed wire protocol over a real TCP
  socket, enforcing the security policy's connect-back rule.

Both count calls and payload bytes, which Figure 3's buffer-size sweep
reads back.
"""

from __future__ import annotations

import contextlib
import socket
import ssl
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.errors import RemoteError, check_positive
from ..core.ids import ConnectionContext, entered
from ..net.clock import CostModel, VirtualClock
from ..net.model import NetworkModel
from ..telemetry.metrics import DEFAULT_BYTES_BUCKETS
from ..telemetry.runtime import TELEMETRY
from .protocol import (AuthRequest, BatchReply, BatchRequest, CallReply,
                       CallRequest, decode_request, encode_frame,
                       frame_length)
from .security import SecurityPolicy
from .server import JavaCADServer

_BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

_NO_SPAN = contextlib.nullcontext()
"""Stands in for the span while telemetry is off (``as span`` is None)."""

DEFAULT_TCP_TIMEOUT = 5.0
"""Socket timeout (seconds) of a transport built without one."""

DEFAULT_CONNECT_TIMEOUT = 1.0
"""Timeout (seconds) for the initial TCP connect.  Deliberately much
shorter than :data:`DEFAULT_TCP_TIMEOUT`: connecting to a live host on
a sane network takes milliseconds, so a dead or unroutable endpoint
should fail in about a second rather than inheriting the per-call
timeout sized for slow servant work."""

# A peer that vanished mid-exchange reads as one error however the
# kernel told us: an EOF (``TcpTransport._read_exact``), a reset or a
# broken pipe.  Which of them arrives first is a race.
_PEER_GONE = (EOFError, ConnectionResetError, BrokenPipeError,
              ssl.SSLEOFError)


@dataclass
class TransportStats:
    """Call/byte counters maintained by every transport.

    At a base transport, ``calls`` counts *round trips*: a BATCH frame
    of N inner calls increments ``calls`` once and ``batches`` once.
    """

    calls: int = 0
    oneway_calls: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    errors: int = 0
    batches: int = 0
    batched_calls: int = 0

    def record(self, sent: int, received: int, oneway: bool) -> None:
        """Account one completed call."""
        self.calls += 1
        if oneway:
            self.oneway_calls += 1
        self.bytes_sent += sent
        self.bytes_received += received

    def record_batch(self, sent: int, received: int, size: int,
                     oneway: bool) -> None:
        """Account one completed BATCH round trip carrying ``size`` calls."""
        self.record(sent, received, oneway)
        self.batches += 1
        self.batched_calls += size


class Transport:
    """Client transport: one round trip, whatever the wire.

    :meth:`invoke` and :meth:`invoke_batch` build their request and
    hand it to :meth:`_round_trip`, the only place a request frame
    becomes an accounted reply.  A wire transport supplies just
    :meth:`_exchange`; wrappers (batching, caching) override the two
    public methods instead.
    """

    kind = "abstract"
    """The ``transport`` label on this transport's spans and metrics."""

    clock: Optional[VirtualClock] = None
    """Virtual clock the spans are timed on (real wires have none)."""

    peer = ""
    """Who answers, as named in error messages; set by wire transports."""

    def __init__(self) -> None:
        self.stats = TransportStats()

    def invoke(self, object_name: str, method: str,
               args: Tuple[Any, ...] = (),
               kwargs: Optional[Dict[str, Any]] = None,
               oneway: bool = False) -> Any:
        """Invoke ``object_name.method(*args, **kwargs)`` remotely.

        A oneway call returns None immediately (fire-and-forget); the
        paper uses this for non-blocking gate-level simulation runs.
        Its failure never raises to the issuer but still counts in
        ``stats.errors`` (like a lost oneway frame).
        """
        replies = self._round_trip(CallRequest(
            object_name, method, tuple(args), dict(kwargs or {}),
            oneway=oneway))
        return None if oneway else replies[0].result

    def invoke_batch(self, requests: Sequence[CallRequest]
                     ) -> List[CallReply]:
        """Send several calls as one BATCH frame; one round trip.

        Returns one :class:`CallReply` per request, in order, without
        raising for per-call errors -- the caller (normally a
        :class:`~repro.rmi.batching.BatchingTransport`) decides which
        failures are fire-and-forget and which must surface.
        """
        if not requests:
            return []
        return list(self._round_trip(BatchRequest(tuple(requests))))

    def _round_trip(self, request: Any) -> Tuple[CallReply, ...]:
        """Send one CALL or BATCH frame; its accounted replies.

        Accounting invariant: every round trip moves exactly one of
        {``stats.record``/``record_batch``, ``stats.errors``}.  The
        reply is therefore decoded and checked BEFORE the success
        counters move, so an error reply, an undecodable frame or a
        batch that died mid-reply counts only as an error.  A CALL's
        error reply raises unless the call was oneway; a BATCH hands
        its per-call error replies back to the caller.
        """
        batch = isinstance(request, BatchRequest)
        if batch:
            calls = request.calls
            # Fire-and-forget only if nobody waits on any of the replies.
            oneway = all(call.oneway for call in calls)
        else:
            calls = (request,)
            oneway = request.oneway
        with (self._span(request) if TELEMETRY.enabled
              else _NO_SPAN) as span:
            marshal_begin = time.perf_counter() if span is not None else 0.0
            payload = request.encode()
            reply_bytes = self._exchange(payload, oneway, request, span)
            try:
                replies = (BatchReply.decode(reply_bytes).replies if batch
                           else (CallReply.decode(reply_bytes),))
            except Exception as exc:
                self._count_error(span)
                self.close()  # a desynchronized wire is never reused
                raise RemoteError(
                    f"undecodable reply while {self._what(request)}: "
                    f"{exc}") from exc
            if len(replies) != len(calls):
                self._count_error(span)
                raise RemoteError(
                    f"batch reply carries {len(replies)} replies for "
                    f"{len(calls)} calls")
            sent, received = len(payload), len(reply_bytes)
            if span is not None:
                self._account(span, sent, received,
                              len(calls) if batch else 0, oneway,
                              time.perf_counter() - marshal_begin)
            if batch:
                self.stats.record_batch(sent, received, len(calls), oneway)
            elif replies[0].ok:
                self.stats.record(sent, received, oneway)
            else:
                self._count_error(span)
                if not oneway:
                    raise RemoteError(
                        replies[0].error or "remote call failed")
            return replies

    def _what(self, request: Any) -> str:
        """The exchange of ``request`` as an error message names it
        (built only for an error)."""
        if isinstance(request, BatchRequest):
            return (f"sending a {len(request.calls)}-call batch to "
                    f"{self.peer}")
        return (f"calling {request.object_name}.{request.method} "
                f"on {self.peer}")

    def _span(self, request: Any) -> Any:
        """The ``rmi.invoke`` / ``rmi.invoke_batch`` span of a request."""
        if isinstance(request, BatchRequest):
            name = "rmi.invoke_batch"
            args = {**self._span_labels(), "calls": len(request.calls)}
        else:
            name = "rmi.invoke"
            args = {"object": request.object_name,
                    "method": request.method,
                    **self._span_labels(), "oneway": request.oneway}
        return TELEMETRY.tracer.span(name, category="rmi",
                                     clock=self.clock, args=args)

    def _exchange(self, payload: bytes, oneway: bool, request: Any,
                  span: Optional[Any]) -> bytes:
        """Carry one encoded request to the server; its reply bytes.

        The per-wire half of a round trip.  ``oneway`` says nobody
        waits for the reply; ``request`` is what ``payload`` encodes
        (:meth:`_what` names it in errors).  A wire-level failure is
        counted once (:meth:`_count_error`) and raised as
        :class:`~repro.core.errors.RemoteError`.
        """
        raise NotImplementedError

    def _span_labels(self) -> Dict[str, Any]:
        """Span attributes naming this transport (and its peer)."""
        return {"transport": self.kind}

    def _count_error(self, span: Optional[Any]) -> None:
        """Count one failed round trip (``span``: telemetry is on)."""
        self.stats.errors += 1
        if span is not None:
            TELEMETRY.metrics.counter(
                "rmi.errors", labels={"transport": self.kind}).inc()

    def _account(self, span: Any, sent: int, received: int,
                 batch_size: int, oneway: bool,
                 marshal_seconds: float) -> None:
        """Record one answered round trip's telemetry (only when
        enabled); ``batch_size`` is 0 for a plain CALL frame."""
        span.set("request_bytes", sent)
        span.set("reply_bytes", received)
        if batch_size:
            span.set("batch_size", batch_size)
        span.set("marshal_wall_s", marshal_seconds)
        metrics = TELEMETRY.metrics
        labels = {"transport": self.kind}
        metrics.counter("rmi.calls", labels=labels).inc()
        if batch_size:
            metrics.counter("rmi.batch.frames", labels=labels).inc()
            metrics.histogram("rmi.batch.size",
                              buckets=_BATCH_SIZE_BUCKETS,
                              labels=labels).observe(batch_size)
        elif oneway:
            metrics.counter("rmi.oneway_calls", labels=labels).inc()
        metrics.histogram("rmi.request_bytes",
                          buckets=DEFAULT_BYTES_BUCKETS,
                          labels=labels).observe(sent)
        metrics.histogram("rmi.reply_bytes",
                          buckets=DEFAULT_BYTES_BUCKETS,
                          labels=labels).observe(received)
        metrics.counter("rmi.marshal_wall_seconds",
                        labels=labels).inc(marshal_seconds)

    def flush(self) -> None:
        """Push out any locally queued traffic (no-op on base transports)."""

    def close(self) -> None:
        """Release any underlying resources."""


class InProcessTransport(Transport):
    """Deterministic transport: real marshalling, simulated network.

    The full client-side cost structure of an RMI call is charged to the
    virtual clock:

    * ``marshal_call`` + ``marshal_per_byte * request`` of client CPU,
    * a blocking network wait of ``network.call_time(request, reply)``
      (or an asynchronous completion for oneway calls),
    * ``marshal_per_byte * reply`` of client CPU to unmarshal.

    Server CPU is charged separately through the dispatch path and
    contends with the client only when ``network.shared_host`` is set.

    The transport is one connection: its ``context`` holds the servant
    state of its sessions (ids come from the caller's scope).
    """

    kind = "in-process"

    def __init__(self, server: JavaCADServer, network: NetworkModel,
                 clock: Optional[VirtualClock] = None,
                 cost_model: Optional[CostModel] = None,
                 policy: Optional[SecurityPolicy] = None):
        super().__init__()
        self.server = server
        self.peer = server.host_name
        self.network = network
        self.clock = clock or VirtualClock()
        self.cost = cost_model or CostModel()
        self.policy = policy
        self._link_free = 0.0  # virtual time the shared link is busy until
        self.context = ConnectionContext()

    def _exchange(self, payload: bytes, oneway: bool, request: Any,
                  span: Optional[Any]) -> bytes:
        if self.policy is not None:
            self.policy.check_connect(self.server.host_name)
        # One marshal_call per frame: this is the fixed per-call
        # overhead that batching amortizes.
        self.clock.charge_cpu(self.cost.marshal_call
                              + self.cost.marshal_per_byte * len(payload))
        with entered(self.context):
            reply_bytes = self.server.dispatch_encoded(
                decode_request(payload), clock=self.clock,
                shared_host=self.network.shared_host)
        # Java object serialization carries class descriptors and object
        # headers; the wire image is several times the raw payload.
        factor = self.cost.wire_overhead_factor
        network_time = self.network.call_time(
            int(len(payload) * factor), int(len(reply_bytes) * factor))
        if span is not None:
            span.set("network_time_s", network_time)
        if oneway:
            # Non-blocking transfers still share one physical link: each
            # starts when the link frees up, so back-to-back buffers queue
            # rather than overlapping perfectly.  Nobody waits for the
            # reply, so no unmarshal CPU is charged either.
            start = max(self.clock.wall, self._link_free)
            self._link_free = start + network_time
            self.clock.begin_async(self._link_free - self.clock.wall)
        else:
            queue_delay = max(0.0, self._link_free - self.clock.wall)
            self.clock.wait(queue_delay + network_time)
            self._link_free = self.clock.wall
            self.clock.charge_cpu(self.cost.marshal_per_byte
                                  * len(reply_bytes))
        return reply_bytes

    def close(self) -> None:
        """Drop the connection's session state."""
        self.context = ConnectionContext()


class TcpTransport(Transport):
    """A real socket transport speaking the framed wire protocol.

    Socket-level failures (connection refused, resets, truncated
    frames, timeouts) are counted in ``stats.errors`` and tear down the
    cached socket, so the next invoke reconnects from a clean state
    instead of reusing a desynchronized stream.

    Security on the wire is optional and composes:

    * ``ssl_context`` wraps the socket in TLS before any frame moves
      (build one with :func:`repro.rmi.tlsconfig.client_ssl_context`);
    * ``token`` sends an AUTH frame as the very first frame after
      connecting and raises :class:`~repro.core.errors.RemoteError` if
      the server refuses it -- the transport never issues application
      calls on an unauthenticated connection.

    The initial connect (plus TLS and AUTH handshake) runs under the
    shorter ``connect_timeout`` so dead hosts fail fast; established
    calls use ``timeout``.
    """

    kind = "tcp"

    def __init__(self, host: str, port: int,
                 policy: Optional[SecurityPolicy] = None,
                 timeout: float = DEFAULT_TCP_TIMEOUT,
                 connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
                 ssl_context: Optional[ssl.SSLContext] = None,
                 server_hostname: Optional[str] = None,
                 token: Optional[str] = None):
        super().__init__()
        check_positive("timeout", timeout)
        check_positive("connect_timeout", connect_timeout)
        self.host = host
        self.port = port
        self.peer = f"{host}:{port}"
        self.policy = policy
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.ssl_context = ssl_context
        self.server_hostname = server_hostname or host
        self.token = token
        self._socket: Optional[socket.socket] = None
        self._lock = threading.Lock()

    def connect(self) -> None:
        """Eagerly open (and authenticate) the connection.

        Normally the socket opens lazily on the first invoke; callers
        that want connect failures surfaced early -- e.g. the remote
        pool's bounded-retry startup loop -- call this instead.  Raises
        :class:`~repro.core.errors.RemoteError` on refusal, TLS
        failure, or a rejected AUTH token.
        """
        with self._lock:
            try:
                self._ensure_socket()
            except (OSError, EOFError) as exc:
                self._close_locked()
                raise RemoteError(
                    f"cannot connect to {self.host}:{self.port}: "
                    f"{exc}") from exc
            except RemoteError:
                self._close_locked()
                raise

    def _ensure_socket(self) -> socket.socket:
        if self._socket is None:
            if self.policy is not None:
                self.policy.check_connect(self.host)
            connection = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout)
            try:
                if self.ssl_context is not None:
                    connection = self.ssl_context.wrap_socket(
                        connection, server_hostname=self.server_hostname)
                connection.settimeout(self.timeout)
                if self.token is not None:
                    self._authenticate(connection)
            except BaseException:
                connection.close()
                raise
            self._socket = connection
        return self._socket

    def _authenticate(self, connection: socket.socket) -> None:
        """Run the AUTH handshake as the connection's first frames."""
        payload = AuthRequest(self.token or "").encode()
        connection.sendall(encode_frame(payload))
        reply = CallReply.decode(self._read_frame(connection))
        if not reply.ok:
            if TELEMETRY.enabled:
                TELEMETRY.metrics.counter(
                    "rmi.auth.rejections",
                    labels={"transport": "tcp"}).inc()
            raise RemoteError(
                f"authentication rejected by {self.host}:{self.port}: "
                f"{reply.error or 'invalid token'}")

    def _close_locked(self) -> None:
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:  # pragma: no cover - close is best effort
                pass
            self._socket = None

    def _span_labels(self) -> Dict[str, Any]:
        return {"transport": "tcp", "host": self.host}

    def _exchange(self, payload: bytes, oneway: bool, request: Any,
                  span: Optional[Any]) -> bytes:
        """Send one frame and read its reply frame.

        Every frame is answered, oneway or not, so ``oneway`` changes
        nothing here.  A socket-level failure is counted once in
        ``stats.errors`` and drops the socket, so a later invoke starts
        from a clean connection.
        """
        with self._lock:
            try:
                connection = self._ensure_socket()
                connection.sendall(encode_frame(payload))
                return self._read_frame(connection)
            except (OSError, EOFError, RemoteError) as exc:
                self._count_error(span)
                self._close_locked()
                if isinstance(exc, RemoteError):
                    raise
                cause = (f"connection closed by {self.peer}"
                         if isinstance(exc, _PEER_GONE) else exc)
                raise RemoteError(
                    f"transport failure {self._what(request)}: "
                    f"{cause}") from exc

    def _read_frame(self, connection: socket.socket) -> bytes:
        header = self._read_exact(connection, 4)
        return self._read_exact(connection, frame_length(header))

    def _read_exact(self, connection: socket.socket, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            chunk = connection.recv(remaining)
            if not chunk:
                raise EOFError("connection closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        with self._lock:
            self._close_locked()
