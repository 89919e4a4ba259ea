"""AsyncRMIServer: the asyncio multi-tenant front end for JavaCADServer.

This is the only TCP server in the tree -- the paper's multi-client
JavaCAD server, one door for every user
(``JavaCADServer.serve_tcp`` merely starts it with its defaults).
The *dispatch core* stays in :mod:`repro.rmi.server`
(``JavaCADServer.dispatch`` / ``dispatch_batch``, with its method
whitelists, error replies and telemetry); this module is the front
end:

* an :mod:`asyncio` event loop owns every socket -- thousands of idle
  connections cost file descriptors, not threads;
* servant work leaves the loop through a selectable **dispatch tier**
  (``dispatch=``): ``thread`` runs on a bounded shared thread pool
  with no lock between tenants, and ``process`` ships frames to forked
  worker processes with sticky session routing so CPU-bound servant
  work escapes the GIL entirely;
* each connection is one request loop -- read a frame, dispatch it,
  write the reply, ``drain()``, next -- so its frames dispatch
  strictly one at a time in arrival order, and a client that stops
  reading stalls only its own loop instead of ballooning server
  memory;
* connections beyond ``max_connections`` are refused with a proper
  error frame, not an unexplained reset;
* an optional shared **bearer token** is enforced before any frame can
  reach dispatch, and optional **TLS** wraps the whole exchange;
* every connection owns an :class:`~repro.core.ids.IdScope` entered
  around each of its dispatches, so a tenant draws the ids of a fresh
  process -- which is what makes a farmed fault report byte-identical
  to a serial run.

The server runs its event loop on a dedicated thread behind a
synchronous ``start()`` / ``stop()`` facade for the CLI, tests and
benchmarks.
"""

from __future__ import annotations

import asyncio
import hmac
import itertools
import ssl
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from ..core.errors import RemoteError
from ..core.ids import IdScope, id_scope
from ..rmi.protocol import (AuthRequest, BatchReply, BatchRequest,
                            CallReply, decode_request, encode_frame,
                            frame_length)
from ..rmi.server import JavaCADServer
from ..telemetry.runtime import TELEMETRY
from .dispatch import (ProcessDispatcher, SessionFactory,
                       call_session_factory)

DEFAULT_MAX_CONNECTIONS = 64
DEFAULT_DISPATCH_WORKERS = 4
DEFAULT_HANDSHAKE_TIMEOUT = 5.0
DEFAULT_DRAIN_TIMEOUT = 5.0

DISPATCH_TIERS = ("thread", "process")
"""Selectable dispatch tiers, cheapest-setup first.

``thread``: a shared pool of ``dispatch_workers`` threads and no lock
between tenants -- a slow tenant never stalls the rest, though
CPU-bound Python still shares the GIL.  ``process``: frames ship to
forked worker processes with sticky session routing -- CPU-bound
servant work runs truly in parallel.  Both keep each tenant
byte-identical to a fresh-process serial run."""


@dataclass
class ServerStats:
    """Aggregate counters for one :class:`AsyncRMIServer` lifetime."""

    connections_accepted: int = 0
    connections_refused: int = 0
    connections_open: int = 0
    connections_peak: int = 0
    sessions_started: int = 0
    auth_failures: int = 0
    auth_refreshes: int = 0
    calls_served: int = 0
    batches_served: int = 0
    protocol_errors: int = 0
    worker_deaths: int = 0
    """Process-tier workers found dead at dispatch, counted once per
    session that lost its state with them."""
    drained: bool = True
    """Whether the last shutdown flushed every in-flight reply before
    the drain deadline (False means work was cut off)."""

    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy of the counters."""
        with self._lock:
            return {
                "connections_accepted": self.connections_accepted,
                "connections_refused": self.connections_refused,
                "connections_open": self.connections_open,
                "connections_peak": self.connections_peak,
                "sessions_started": self.sessions_started,
                "auth_failures": self.auth_failures,
                "auth_refreshes": self.auth_refreshes,
                "calls_served": self.calls_served,
                "batches_served": self.batches_served,
                "protocol_errors": self.protocol_errors,
                "worker_deaths": self.worker_deaths,
                "drained": self.drained,
            }

    def summary_line(self) -> str:
        """One-line summary (``serve``/``faultworker`` print it at exit)."""
        snap = self.snapshot()
        return ("server stats: "
                f"accepted={snap['connections_accepted']} "
                f"refused={snap['connections_refused']} "
                f"peak={snap['connections_peak']} "
                f"sessions={snap['sessions_started']} "
                f"auth_failures={snap['auth_failures']} "
                f"calls={snap['calls_served']} "
                f"batches={snap['batches_served']} "
                f"worker_deaths={snap['worker_deaths']} "
                f"drained={snap['drained']}")


class _Connection:
    """Per-connection state (event-loop thread only)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 session: Optional[JavaCADServer],
                 session_id: int):
        self.reader = reader
        self.writer = writer
        # Process tier: the session and its scope live in the sticky
        # worker, so ``session`` is None and ``scope`` stays unused.
        self.session = session
        self.scope = IdScope()
        self.session_id = session_id
        # A frame has been read and its reply is not yet flushed.
        self.busy = False
        self.task: Optional["asyncio.Task[None]"] = None

    def abort(self) -> None:
        """Tear the transport down immediately (shutdown path)."""
        transport = self.writer.transport
        if transport is not None:
            transport.abort()


class AsyncRMIServer:
    """Asyncio front end multiplexing tenants onto a dispatch core.

    Exactly one of ``server`` (a shared :class:`JavaCADServer` every
    connection dispatches against) or ``session_factory`` (a callable
    returning a *fresh* ``JavaCADServer`` per connection, for servants
    that keep per-tenant state such as the fault farm) must be given.

    ``dispatch`` selects how servant work leaves the event loop (see
    :data:`DISPATCH_TIERS`): ``thread`` (default) is the shared pool
    of ``dispatch_workers`` threads, and ``process`` routes each
    session stickily to one of ``dispatch_workers`` forked worker
    processes (the session factory crosses by fork inheritance, so it
    need not be picklable).  On both, a connection's frames dispatch
    one at a time in arrival order inside that connection's own
    :class:`~repro.core.ids.IdScope`, which preserves per-tenant
    byte-identity with a fresh-process serial run.
    """

    def __init__(self, server: Optional[JavaCADServer] = None, *,
                 session_factory: Optional[SessionFactory] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_connections: int = DEFAULT_MAX_CONNECTIONS,
                 auth_token: Optional[str] = None,
                 ssl_context: Optional[ssl.SSLContext] = None,
                 idle_timeout: Optional[float] = None,
                 handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
                 drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
                 dispatch_workers: int = DEFAULT_DISPATCH_WORKERS,
                 dispatch: str = "thread",
                 name: str = "async-rmi"):
        if (server is None) == (session_factory is None):
            raise ValueError(
                "exactly one of server / session_factory is required")
        if max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {max_connections}")
        if idle_timeout is not None and idle_timeout <= 0:
            # wait_for(timeout<=0) expires at once: every tenant's
            # first read would time out and drop the connection.
            raise ValueError(
                f"idle_timeout must be positive (or None for never), "
                f"got {idle_timeout}")
        if dispatch not in DISPATCH_TIERS:
            raise ValueError(
                f"unknown dispatch tier {dispatch!r}; expected one of "
                f"{DISPATCH_TIERS}")
        self._shared_server = server
        self._session_factory = session_factory
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.auth_token = auth_token
        self.ssl_context = ssl_context
        self.idle_timeout = idle_timeout
        self.handshake_timeout = handshake_timeout
        self.drain_timeout = drain_timeout
        self.dispatch_workers = dispatch_workers
        self.dispatch_tier = dispatch
        self.name = name
        self.stats = ServerStats()
        self.address: Optional[Tuple[str, int]] = None
        self._session_ids = itertools.count(1)
        self._dispatcher: Optional[ProcessDispatcher] = None
        self._connections: Set[_Connection] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._listener: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._finished = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._draining = False

    # ------------------------------------------------------------------
    # Synchronous facade
    # ------------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Run the event loop on a background thread; return address."""
        if self._thread is not None:
            raise RemoteError(f"{self.name} is already running")
        self._started.clear()
        self._finished.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name=f"{self.name}-loop", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            error = self._startup_error
            raise RemoteError(
                f"{self.name} failed to start: {error}") from error
        assert self.address is not None
        return self.address

    def stop(self, timeout: Optional[float] = None) -> None:
        """Drain and stop the server; join the loop thread."""
        thread = self._thread
        if thread is None:
            return
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> "AsyncRMIServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Event loop body
    # ------------------------------------------------------------------

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - report to starter
            if not self._started.is_set():
                self._startup_error = exc
            else:
                raise
        finally:
            self._started.set()
            self._finished.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._draining = False
        try:
            if self.dispatch_tier == "process":
                factory = self._session_factory
                if factory is None:
                    # Shared-core mode: workers dispatch against their
                    # fork-inherited copy of the shared server (its
                    # servants must be per-call pure, the documented
                    # contract for sharing them at all).
                    shared = self._shared_server
                    factory = lambda: shared  # noqa: E731
                self._dispatcher = ProcessDispatcher(
                    factory, self.dispatch_workers)
                # Fork every worker before the first tenant arrives.
                await asyncio.gather(*[
                    asyncio.wrap_future(future)
                    for future in self._dispatcher.warm_futures()])
            # The dispatch thread pool comes up only after the process
            # tier has forked its workers: a forked child must never
            # inherit live dispatch threads (pinned at fork time by
            # tests/server/test_dispatch_tiers.py::TestForkHygiene).
            self._executor = ThreadPoolExecutor(
                max_workers=self.dispatch_workers,
                thread_name_prefix=f"{self.name}-dispatch")
            self._listener = await asyncio.start_server(
                self._handle_connection, self.host, self.port,
                ssl=self.ssl_context)
            sockname = self._listener.sockets[0].getsockname()
            self.address = (sockname[0], sockname[1])
            if TELEMETRY.enabled:
                TELEMETRY.metrics.gauge(
                    "server.dispatch.workers",
                    labels={"server": self.name,
                            "tier": self.dispatch_tier}).set(
                        self.dispatch_workers)
            self._started.set()
            await self._stop_event.wait()
            await self._shutdown()
        finally:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
            if self._dispatcher is not None:
                self._dispatcher.shutdown()
                self._dispatcher = None
            self._listener = None
            self._loop = None
            self._stop_event = None

    async def _shutdown(self) -> None:
        """Stop accepting, flush in-flight replies, close what remains."""
        self._draining = True
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        clean = True
        while any(conn.busy for conn in self._connections):
            if loop.time() >= deadline:
                clean = False
                break
            await asyncio.sleep(0.01)
        with self.stats._lock:
            self.stats.drained = clean
        tasks = []
        for conn in list(self._connections):
            conn.abort()
            if conn.task is not None:
                conn.task.cancel()
                tasks.append(conn.task)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        with self.stats._lock:
            open_now = self.stats.connections_open
        if self._draining or open_now >= self.max_connections:
            await self._refuse(writer)
            return
        accounted = False
        conn: Optional[_Connection] = None
        try:
            self._count_open(+1)
            accounted = True
            self._bump("server.connections.accepted",
                       "connections_accepted")
            if not await self._authenticate(reader, writer):
                return
            # Session state is built only for authenticated tenants, so
            # a wrong token can never reach a session or the dispatch
            # core.
            session_id = next(self._session_ids)
            session: Optional[JavaCADServer] = None
            if self._dispatcher is None:
                session = (self._shared_server
                           if self._shared_server is not None
                           else call_session_factory(
                               self._session_factory,  # type: ignore[arg-type]
                               session_id))
            conn = _Connection(reader, writer, session, session_id)
            conn.task = asyncio.current_task()
            self._connections.add(conn)
            self._bump("server.sessions", "sessions_started")
            await self._serve(conn)
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        finally:
            if conn is not None:
                self._connections.discard(conn)
                if self._dispatcher is not None:
                    self._dispatcher.forget(conn.session_id)
            if accounted:
                self._count_open(-1)
            transport = writer.transport
            if transport is not None:
                transport.abort()

    async def _refuse(self, writer: asyncio.StreamWriter) -> None:
        """Reply with a capacity error frame and close."""
        self._bump("server.connections.refused", "connections_refused")
        try:
            payload = CallReply(
                0, ok=False,
                error=(f"server at capacity "
                       f"({self.max_connections} connections); "
                       f"retry later")).encode()
            writer.write(encode_frame(payload))
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    async def _authenticate(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> bool:
        """Enforce the shared bearer token before any dispatch.

        With a token configured, the *first* frame must be a matching
        AUTH frame; anything else (a call, a bad token, garbage) is
        counted as an auth failure and refused without ever touching
        the dispatch core.  Without a token, AUTH frames are accepted
        trivially so token-configured clients still interoperate.
        """
        if self.auth_token is None:
            return True
        try:
            frame = await asyncio.wait_for(
                self._read_frame(reader),
                timeout=self.handshake_timeout)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError, OSError, RemoteError):
            # RemoteError: an oversized length prefix, refused unread.
            self._auth_failure()
            return False
        try:
            request = decode_request(frame)
        except Exception:  # noqa: BLE001 - garbage is an auth failure
            self._auth_failure()
            return False
        if not isinstance(request, AuthRequest) or not hmac.compare_digest(
                request.token.encode("utf-8"),
                self.auth_token.encode("utf-8")):
            self._auth_failure()
            call_id = request.call_id \
                if isinstance(request, AuthRequest) else 0
            await self._send_frame(writer, CallReply(
                call_id, ok=False,
                error="authentication failed").encode())
            return False
        await self._send_frame(writer, CallReply(
            request.call_id, ok=True, result="ok").encode())
        return True

    async def _serve(self, conn: _Connection) -> None:
        """The connection's request loop: one frame at a time.

        Read -> decode -> account -> dispatch (or mid-session AUTH
        refresh) -> write -> ``drain()`` -> next.  Taking the next
        frame only after the previous reply drained *is* the in-order
        guarantee (a session's servant calls stay strictly sequential
        even when the client pipelines frames) and *is* the
        backpressure: a client that stops reading stalls its own loop
        and, through TCP flow control, its own sends.  Other
        connections' loops interleave freely on the dispatch tier.
        """
        while not self._draining:
            try:
                frame = await asyncio.wait_for(
                    self._read_frame(conn.reader),
                    timeout=self.idle_timeout)
                request = decode_request(frame)
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ConnectionError, OSError):
                return
            except Exception:  # noqa: BLE001 - protocol violation
                # Undecodable bytes or an oversized length prefix.
                self._bump(None, "protocol_errors")
                return
            conn.busy = True
            try:
                if isinstance(request, AuthRequest):
                    payload = self._refresh_auth(request)
                else:
                    self._account_request(request)
                    try:
                        payload = await self._dispatch(conn, request, frame)
                    except BrokenProcessPool:
                        await self._send_frame(
                            conn.writer, self._worker_died(conn, request))
                        return
                    except Exception:  # noqa: BLE001 - executor crash
                        payload = CallReply(
                            0, ok=False, error="internal dispatch failure"
                        ).encode()
                # A failed write ends the loop (the handler swallows
                # the error and closes the connection).
                conn.writer.write(encode_frame(payload))
                await conn.writer.drain()
            finally:
                conn.busy = False

    def _refresh_auth(self, request: AuthRequest) -> bytes:
        """Mid-session AUTH: re-verify the token and count the frame.

        Refreshes are *excluded* from ``calls_served``/``server.calls``
        on purpose -- the client transport does not count its AUTH
        frames in ``rmi.calls`` either, so both sides keep agreeing on
        the call totals (pinned in tests/server/test_async_server.py).
        They are counted separately as ``auth_refreshes``; a refresh
        with a wrong token is an auth failure and an error reply, but
        the session itself stays authenticated from its handshake.
        """
        if self.auth_token is not None and not hmac.compare_digest(
                request.token.encode("utf-8"),
                self.auth_token.encode("utf-8")):
            self._auth_failure()
            return CallReply(request.call_id, ok=False,
                             error="authentication failed").encode()
        self._bump("server.auth.refreshes", "auth_refreshes")
        return CallReply(request.call_id, ok=True, result="ok").encode()

    def _account_request(self, request: Any) -> None:
        """Count one dispatched frame (parent-side, every tier)."""
        if isinstance(request, BatchRequest):
            self._bump("server.batches", "batches_served")
            with self.stats._lock:
                self.stats.calls_served += len(request.calls)
            if TELEMETRY.enabled:
                TELEMETRY.metrics.counter(
                    "server.calls",
                    labels={"server": self.name}).inc(len(request.calls))
        else:
            self._bump("server.calls", "calls_served")

    async def _dispatch(self, conn: _Connection, request: Any,
                        frame: bytes) -> bytes:
        """Run one request on the configured tier; encoded reply bytes.

        The latency histogram spans submit-to-reply on both tiers
        (wait for a pool thread or the sticky worker included), and
        ``server.dispatch.queue_depth`` counts dispatches in flight
        (at most one per connection).
        """
        assert self._loop is not None
        start = time.perf_counter()
        self._queue_depth(+1)
        try:
            if self._dispatcher is not None:
                return await asyncio.wrap_future(
                    self._dispatcher.submit(conn.session_id, frame))
            return await self._loop.run_in_executor(
                self._executor, self._execute, conn, request)
        finally:
            self._queue_depth(-1)
            if TELEMETRY.enabled:
                TELEMETRY.metrics.histogram(
                    "server.dispatch.latency",
                    labels={"server": self.name}).observe(
                        time.perf_counter() - start)

    @staticmethod
    def _execute(conn: _Connection, request: Any) -> bytes:
        """Thread tier: dispatch on a pool thread, in the tenant's scope."""
        assert conn.session is not None
        with id_scope(conn.scope):
            return conn.session.dispatch_encoded(request)

    def _worker_died(self, conn: _Connection, request: Any) -> bytes:
        """Account a dead sticky worker; the session's last reply.

        The session's servants and id scope died with the worker.
        Re-creating them on a fresh worker would rewind the tenant's
        ids -- silently different bytes -- so the session ends with a
        named error instead, and only *new* sessions use the slot's
        replacement worker.
        """
        assert self._dispatcher is not None
        self._bump("server.dispatch.worker_deaths", "worker_deaths")
        self._dispatcher.replace_dead_worker(conn.session_id)
        error = (f"dispatch worker for session {conn.session_id} died; "
                 f"session state is lost — reconnect")
        if isinstance(request, BatchRequest):
            return BatchReply(request.batch_id, tuple(
                CallReply(call.call_id, ok=False, error=error)
                for call in request.calls)).encode()
        return CallReply(request.call_id, ok=False, error=error).encode()

    # ------------------------------------------------------------------
    # Frame + accounting helpers
    # ------------------------------------------------------------------

    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader) -> bytes:
        header = await reader.readexactly(4)
        return await reader.readexactly(frame_length(header))

    @staticmethod
    async def _send_frame(writer: asyncio.StreamWriter,
                          payload: bytes) -> None:
        try:
            writer.write(encode_frame(payload))
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    def _auth_failure(self) -> None:
        self._bump("server.auth.failures", "auth_failures")

    def _bump(self, metric: Optional[str], stat: str) -> None:
        with self.stats._lock:
            setattr(self.stats, stat, getattr(self.stats, stat) + 1)
        if metric is not None and TELEMETRY.enabled:
            TELEMETRY.metrics.counter(
                metric, labels={"server": self.name}).inc()

    def _count_open(self, delta: int) -> None:
        with self.stats._lock:
            self.stats.connections_open += delta
            if self.stats.connections_open > self.stats.connections_peak:
                self.stats.connections_peak = self.stats.connections_open
            open_now = self.stats.connections_open
            peak = self.stats.connections_peak
        if TELEMETRY.enabled:
            labels = {"server": self.name}
            TELEMETRY.metrics.gauge(
                "server.connections.open", labels=labels).set(open_now)
            TELEMETRY.metrics.gauge(
                "server.connections.peak", labels=labels).set(peak)

    def _queue_depth(self, delta: int) -> None:
        if TELEMETRY.enabled:
            TELEMETRY.metrics.gauge(
                "server.dispatch.queue_depth",
                labels={"server": self.name}).inc(delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._thread is not None else "stopped"
        return (f"AsyncRMIServer({self.name!r}, {state}, "
                f"dispatch={self.dispatch_tier!r}, "
                f"max_connections={self.max_connections})")
