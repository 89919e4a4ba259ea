"""AsyncRMIServer: the asyncio multi-tenant front end for JavaCADServer.

This is the only TCP server in the tree -- the paper's multi-client
JavaCAD server, one door for every user
(``JavaCADServer.serve_tcp`` merely starts it with its defaults).
The *dispatch core* stays in :mod:`repro.rmi.server`
(``JavaCADServer.dispatch`` / ``dispatch_batch``, with its method
whitelists, error replies and telemetry); this module is the front
end:

* an :mod:`asyncio` event loop owns every socket -- thousands of idle
  connections cost file descriptors, not threads.  Each connection is
  an :class:`asyncio.Protocol` that splits frames off one buffer and
  writes replies back; the loop does no other per-frame work;
* every frame leaves the loop exactly once, for one of
  ``dispatch_workers`` threads fed from one queue, each of which
  decodes, dispatches and encodes it with no lock between tenants;
* the ``process`` tier (``dispatch=``) runs ``dispatch_workers``
  pre-forked copies of that same server, one dispatch thread each; the
  parent only accepts and hands each socket to the least-loaded child,
  so CPU-bound servant work escapes the GIL;
* a connection takes its next frame only after the previous reply was
  written and its transport is not paused for writing, so its frames
  dispatch strictly one at a time in arrival order, and a client that
  stops reading stalls only itself instead of ballooning server
  memory;
* connections beyond ``max_connections`` are refused with a proper
  error frame, not an unexplained reset;
* an optional shared **bearer token** is enforced before any frame can
  reach dispatch, and optional **TLS** wraps the whole exchange;
* every connection owns a :class:`~repro.core.ids.ConnectionContext`
  entered around each of its dispatches, so a tenant draws the ids of
  a fresh process -- which makes a farmed fault report byte-identical
  to a serial run -- and its servant state dies with it.

The server runs its event loop on a dedicated thread behind a
synchronous ``start()`` / ``stop()`` facade for the CLI, tests and
benchmarks.
"""

from __future__ import annotations

import asyncio
import gc
import hmac
import itertools
import mmap
import os
import queue
import signal
import socket
import ssl
import sys
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.errors import RemoteError, check_count
from ..core.ids import ConnectionContext, IdScope, entered
from ..rmi.protocol import (AuthRequest, BatchReply, BatchRequest,
                            CallReply, decode_request, encode_frame,
                            frame_length)
from ..rmi.server import JavaCADServer
from ..telemetry.runtime import TELEMETRY

SessionFactory = Callable[[], JavaCADServer]

DEFAULT_MAX_CONNECTIONS = 64
DEFAULT_DISPATCH_WORKERS = 4
DEFAULT_HANDSHAKE_TIMEOUT = 5.0
DEFAULT_DRAIN_TIMEOUT = 5.0

DISPATCH_TIERS = ("thread", "process")
"""Selectable dispatch tiers, cheapest-setup first.

``thread``: ``dispatch_workers`` threads on one shared queue and no
lock between tenants -- a slow tenant never stalls the rest, though
CPU-bound Python still shares the GIL.  ``process``:
``dispatch_workers`` pre-forked one-thread servers, each serving the
connections handed to it -- CPU-bound servant work runs truly in
parallel.  Both keep each tenant byte-identical to a fresh-process
serial run."""

_CHILD_STATS = ("sessions_started", "auth_failures", "auth_refreshes",
                "calls_served", "batches_served", "protocol_errors")
"""What a process-tier child counts and its parent sums; the parent
counts accepts, refusals, open connections and deaths itself."""

_SLOT = {name: word for word, name in enumerate(
    _CHILD_STATS + ("closed", "cut", "handed"))}
"""A process-tier child's slot in its parent's shared map: one 8-byte
word per name.  The child writes each of its words the moment the
count changes -- ``_CHILD_STATS``, the connections it finished and
whether its drain was cut off; the parent writes ``handed``, the
connections it handed that child.  The parent reads the live slots and
adds a slot into its own stats once its child is gone."""
_CLOSED, _CUT, _HANDED = _SLOT["closed"], _SLOT["cut"], _SLOT["handed"]

_EXIT_GRACE = 0.5
"""Seconds past ``drain_timeout`` a draining child gets to exit before
it is killed."""


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
    """Process-tier children that died while serving (their
    connections closed with them)."""
    drained: bool = True
    """Whether the last shutdown flushed every in-flight reply before
    the drain deadline (False means work was cut off)."""

    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)
    _slots: List[memoryview] = field(default_factory=list, repr=False)
    """Process tier, parent: every child's slot (see ``_SLOT``)."""

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy of the counters, a parent's children's
        slots added in."""
        with self._lock:
            snap = {each.name: getattr(self, each.name)
                    for each in fields(self) if each.name[0] != "_"}
            for slot in self._slots:
                for key in _CHILD_STATS:
                    snap[key] += slot[_SLOT[key]]
                snap["connections_open"] += slot[_HANDED] - slot[_CLOSED]
                snap["drained"] = snap["drained"] and not slot[_CUT]
        return snap

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


class _Connection(asyncio.Protocol):
    """One connection: splits frames, writes replies (loop thread).

    A dispatch thread reads only ``session`` and ``context`` (both set
    before the connection's first frame is queued) and hands its reply
    back through :meth:`replied`.
    """

    READ_BUFFER_BYTES = 256 * 1024
    """Unread bytes buffered before reading pauses -- or the whole
    frame in progress, if that is larger."""

    def __init__(self, server: "AsyncRMIServer",
                 refused: bool = False) -> None:
        self.server = server
        self.refused = refused
        """Handed over past the parent's ``max_connections``."""
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = bytearray()
        self.session: Optional[JavaCADServer] = None
        self.context = ConnectionContext(IdScope())
        self.session_id = 0
        """0 until the connection is authenticated."""
        self.busy = False
        """A frame has been taken and its reply is not yet flushed."""
        self.write_paused = False
        self.read_paused = False
        self.eof = False
        self.closed = False
        self.idle_since = 0.0
        self.submitted = 0.0
        """When the frame in flight was submitted (telemetry only)."""
        self.timer: Optional[asyncio.TimerHandle] = None

    # -- asyncio.Protocol ----------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.server._accept(self)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self.pump()

    def eof_received(self) -> bool:
        # The peer sent its last frame: answer what is buffered, then
        # close (pump does once nothing is left).
        self.eof = True
        self.pump()
        return not self.closed

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        if self.busy:  # the last reply has now flushed
            self._done()
        self.pump()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if not (self.closed or self.session_id):
            self.server._auth_failure()  # reset before AUTH
        self.closed = True
        if self.timer is not None:
            self.timer.cancel()
        self.server._forget(self)

    # -- frames in, replies out -----------------------------------------

    def pump(self) -> None:
        """Submit buffered frames, one at a time, while replies flow.

        The next frame is taken only once the previous reply was
        written and the transport is not paused for writing: that is
        both the in-order guarantee (a session's servant calls stay
        strictly sequential even when the client pipelines frames) and
        the backpressure (a client that stops reading stalls only
        itself).
        """
        while not (self.busy or self.write_paused or self.closed
                   or self.server._draining):
            frame = self._take_frame()
            if frame is None:
                if self.eof and not self.closed:
                    if not self.session_id:
                        self.server._auth_failure()  # left before AUTH
                    self.close()
                break
            self.busy = True
            self.server._submit(self, frame)
        if self.read_paused or len(self.buffer) > self.READ_BUFFER_BYTES:
            self._regulate_reading()

    def _take_frame(self) -> Optional[bytes]:
        """The next complete frame body, if buffered.

        The length prefix is checked before any of its body is waited
        for: an oversized one ends the connection at once.
        """
        buffer = self.buffer
        if len(buffer) < 4:
            return None
        try:
            end = 4 + frame_length(buffer[:4])
        except RemoteError:
            self.server._oversized(self)
            return None
        if len(buffer) < end:
            return None
        frame = bytes(buffer[4:end])
        del buffer[:end]
        return frame

    def _regulate_reading(self) -> None:
        """Pause reading past the buffer bound, resume below it."""
        limit = self.READ_BUFFER_BYTES
        if len(self.buffer) >= 4:
            try:
                limit = max(limit, 4 + frame_length(self.buffer[:4]))
            except RemoteError:
                pass  # refused once it reaches the head of the buffer
        over = len(self.buffer) > limit
        if over != self.read_paused and not self.closed:
            self.read_paused = over
            if over:
                self.transport.pause_reading()  # type: ignore[union-attr]
            else:
                self.transport.resume_reading()  # type: ignore[union-attr]

    def finish(self, reply: bytes) -> None:
        """Write one framed reply; the frame is done once it flushed."""
        if self.closed:
            self.busy = False
            return
        self.transport.write(reply)  # type: ignore[union-attr]
        if not self.write_paused:
            self._done()

    def replied(self, reply: Optional[bytes]) -> None:
        """A dispatch came back to the loop: write it, take the next.

        ``None`` is an undecodable frame: the connection ends unanswered.
        """
        if self.submitted:
            self.server._observe_dispatch(self.submitted)
            self.submitted = 0.0
        if reply is None:
            self.busy = False
            self.abort()
            return
        self.finish(reply)
        self.pump()

    def _done(self) -> None:
        self.busy = False
        loop = self.server._loop
        if self.server.idle_timeout is not None and loop is not None:
            self.idle_since = loop.time()

    # -- timers ----------------------------------------------------------

    def arm(self, delay: float) -> None:
        self.timer = self.server._loop.call_later(  # type: ignore[union-attr]
            delay, self._expire)

    def _expire(self) -> None:
        """Handshake or idle timer.  The idle timer re-arms lazily: a
        frame never touches it, the expiry checks how long the
        connection has actually been waiting."""
        self.timer = None
        if self.closed:
            return
        server = self.server
        if not self.session_id:
            server._auth_failure()  # no AUTH within handshake_timeout
            self.abort()
            return
        timeout = server.idle_timeout
        assert timeout is not None and server._loop is not None
        if self.busy or self.write_paused:
            self.arm(timeout)
            return
        deadline = self.idle_since + timeout
        if server._loop.time() >= deadline:
            self.abort()
        else:
            self.timer = server._loop.call_at(deadline, self._expire)

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        """Flush what was written, then close."""
        self.closed = True
        if self.transport is not None:
            self.transport.close()

    def abort(self) -> None:
        """Tear the transport down immediately."""
        self.closed = True
        if self.transport is not None:
            self.transport.abort()


def _replied_from(box: List[_Connection], reply: Optional[bytes]) -> None:
    """A dispatch thread's reply, on the loop: the connection it served
    is the one in ``box``, which is left empty."""
    box.pop().replied(reply)


@dataclass
class _Child:
    """A process-tier child server, as its parent sees it."""

    pid: int
    """0 once the child has exited and been reaped."""
    channel: socket.socket
    """The parent's end of the child's ``SOCK_SEQPACKET`` pair: sockets
    and the drain order go down it, a "started" byte and the child's
    EOF come up."""
    slot: memoryview
    """The child's words in the parent's shared map (see ``_SLOT``)."""

    @property
    def load(self) -> int:
        return self.slot[_HANDED] - self.slot[_CLOSED]


class AsyncRMIServer:
    """Asyncio front end multiplexing tenants onto a dispatch core.

    Exactly one of ``server`` (a shared :class:`JavaCADServer` every
    connection dispatches against) or ``session_factory`` (a
    zero-argument callable returning a ``JavaCADServer`` per
    connection) must be given.  Either way each connection has its own
    :class:`~repro.core.ids.ConnectionContext`, where servants keep
    their per-tenant state.

    ``dispatch`` selects how servant work leaves the event loop (see
    :data:`DISPATCH_TIERS`): ``thread`` (default) is
    ``dispatch_workers`` threads on one queue, and ``process`` forks
    ``dispatch_workers`` copies of this server at ``start()``, each a
    one-thread ``thread``-tier server that owns the connections handed
    to it (the core or session factory crosses by fork inheritance, so
    it need not be picklable).  On both, a connection's frames dispatch
    one at a time in arrival order inside that connection's context,
    which preserves per-tenant byte-identity with a fresh-process
    serial run.
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
        check_count("max_connections", max_connections)
        if idle_timeout is not None and not idle_timeout > 0:
            # It would expire at once: every tenant would be dropped
            # before its first frame (a NaN one is due at every turn of
            # the loop, which then spins).
            raise ValueError(
                f"idle_timeout must be positive (or None for never), "
                f"got {idle_timeout}")
        if not handshake_timeout > 0:
            # Same expiry: even a correct token would be refused.
            raise ValueError(f"handshake_timeout must be positive, "
                             f"got {handshake_timeout}")
        if not drain_timeout >= 0:
            raise ValueError(f"drain_timeout must be >= 0, "
                             f"got {drain_timeout}")
        check_count("dispatch_workers", dispatch_workers)
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
        self._children: List[_Child] = []
        """Process tier, parent: one per slot, in slot order."""
        self._accepting: Optional[socket.socket] = None
        """Process tier, parent: the listening socket."""
        self._channel: Optional[socket.socket] = None
        """Process tier, child: its end of the parent's socket pair."""
        self._slot: Optional[memoryview] = None
        """Process tier, child: its slot in the parent's shared map."""
        self._adopting: Set["asyncio.Task[None]"] = set()
        """Process tier, child: TLS handshakes in progress."""
        self._queue: "queue.SimpleQueue[Optional[Tuple[_Connection, bytes]]]" \
            = queue.SimpleQueue()
        self._dispatch_threads: List[threading.Thread] = []
        self._connections: Set[_Connection] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._listener: Optional[asyncio.base_events.Server] = None
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
        if self.dispatch_tier == "process":
            try:
                self._prefork()
            except Exception as error:
                raise RemoteError(
                    f"{self.name} failed to start: {error}") from error
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
        self._loop = loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._draining = False
        try:
            if self._children:  # process tier: the parent hands off
                loop.add_reader(self._accepting.fileno(),  # type: ignore
                                self._hand_off)
                for slot in range(len(self._children)):
                    self._watch(slot)
            else:
                # Dispatch threads start only here, after any fork: a
                # process-tier child starts its own (pinned at fork
                # time by TestForkHygiene in
                # tests/server/test_dispatch_tiers.py).
                self._dispatch_threads = [
                    threading.Thread(
                        target=self._dispatch_thread, args=(loop,),
                        name=f"{self.name}-dispatch-{index}", daemon=True)
                    for index in range(self.dispatch_workers)]
                for thread in self._dispatch_threads:
                    thread.start()
                if self._channel is not None:  # a process-tier child
                    loop.add_reader(self._channel.fileno(), self._adopt)
                else:
                    self._listener = await loop.create_server(
                        lambda: _Connection(self), self.host, self.port,
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
            if self._children:
                await self._drain_children()
            else:
                await self._shutdown()
        finally:
            for _thread in self._dispatch_threads:
                self._queue.put(None)
            for thread in self._dispatch_threads:
                thread.join()
            self._dispatch_threads = []
            self._children = []
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
        if self._slot is not None:
            self._slot[_CUT] = int(not clean)
        for conn in list(self._connections):
            conn.abort()
        while self._connections:  # connection_lost runs on a later turn
            await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # Connection lifecycle (loop thread)
    # ------------------------------------------------------------------

    def _accept(self, conn: _Connection) -> None:
        with self.stats._lock:
            open_now = self.stats.connections_open
        if conn.refused or self._draining \
                or open_now >= self.max_connections:
            self._refuse(conn)
            return
        self._connections.add(conn)
        self._count_open(+1)
        self._bump("server.connections.accepted", "connections_accepted")
        if self.auth_token is None:
            self._start_session(conn)
        else:
            conn.arm(self.handshake_timeout)

    def _refuse(self, conn: _Connection) -> None:
        """Reply with a capacity error frame and close."""
        self._bump("server.connections.refused", "connections_refused")
        conn.transport.write(encode_frame(  # type: ignore[union-attr]
            CallReply(0, ok=False,
                      error=(f"server at capacity "
                             f"({self.max_connections} connections); "
                             f"retry later")).encode()))
        conn.close()

    def _start_session(self, conn: _Connection) -> None:
        """Session state is built only for authenticated tenants, so a
        wrong token can never reach a session or the dispatch core."""
        if conn.timer is not None:
            conn.timer.cancel()
            conn.timer = None
        conn.session = (self._shared_server
                        if self._shared_server is not None
                        else self._session_factory())  # type: ignore[misc]
        conn.session_id = next(self._session_ids)
        self._bump("server.sessions", "sessions_started")
        if self.idle_timeout is not None:
            assert self._loop is not None
            conn.idle_since = self._loop.time()
            conn.arm(self.idle_timeout)

    def _forget(self, conn: _Connection) -> None:
        """The connection is gone (``connection_lost``)."""
        if conn not in self._connections:
            return  # refused at capacity: never accounted
        self._connections.discard(conn)
        self._count_open(-1)
        if self._slot is not None:
            self._slot[_CLOSED] += 1

    def _oversized(self, conn: _Connection) -> None:
        """A length prefix above ``MAX_FRAME_BYTES``: refused unread."""
        if conn.session_id:
            self._bump(None, "protocol_errors")
        else:
            self._auth_failure()
        conn.abort()

    # ------------------------------------------------------------------
    # Process tier: pre-forked servers, one socket pair each
    # ------------------------------------------------------------------

    def _prefork(self) -> None:
        """Bind the listener, map the children's slots and fork every
        child, all before the loop thread exists; each child sends one
        byte once it serves."""
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        self._accepting = socket.create_server((self.host, self.port),
                                               family=family)
        self._accepting.setblocking(False)
        self.address = self._accepting.getsockname()[:2]
        words = len(_SLOT)
        shared = memoryview(mmap.mmap(
            -1, 8 * words * self.dispatch_workers)).cast("q")
        self.stats._slots = [shared[index * words:(index + 1) * words]
                             for index in range(self.dispatch_workers)]
        try:
            for index in range(self.dispatch_workers):
                child = self._fork_child(index)
                self._children.append(child)
                if not child.channel.recv(1):
                    raise RemoteError("a child server exited at start-up")
        except BaseException:
            for child in self._children:
                os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)
                child.channel.close()
            self._children = []
            self._accepting.close()
            raise

    def _fork_child(self, index: int) -> _Child:
        ours, theirs = socket.socketpair(socket.AF_UNIX,
                                         socket.SOCK_SEQPACKET)
        slot = self.stats._slots[index]
        pid = os.fork()
        if pid == 0:
            self._serve_as_child(theirs, slot)
        theirs.close()
        return _Child(pid, ours, slot)

    def _serve_as_child(self, channel: socket.socket,
                        slot: memoryview) -> None:
        """The forked child: a one-thread ``thread``-tier copy of this
        server that serves the sockets its parent hands it, counting
        into ``slot``, until told to drain; then it exits."""
        status = 1
        try:
            from ..parallel.scenarios import reset_session_state

            # Not the parent's handlers; and a terminal's Ctrl-C, which
            # reaches the whole process group, is the parent's to turn
            # into a drain -- it must not kill the children first.
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            reset_session_state()
            os.closerange(3, channel.fileno())
            os.closerange(channel.fileno() + 1, os.sysconf("SC_OPEN_MAX"))
            # Inherited objects may own the fds just closed: the
            # collector must never finalize one onto a reused number,
            # nor may a traceback be printed through one.
            gc.freeze()
            sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
            child = AsyncRMIServer(
                self._shared_server, session_factory=self._session_factory,
                max_connections=self.max_connections,
                auth_token=self.auth_token, ssl_context=self.ssl_context,
                idle_timeout=self.idle_timeout,
                handshake_timeout=self.handshake_timeout,
                drain_timeout=self.drain_timeout, dispatch_workers=1,
                name=self.name)
            child.address = self.address
            child._channel = channel
            child._slot = slot
            child.start()
            channel.send(b"s")
            child._finished.wait()
            status = 0
        finally:
            os._exit(status)

    def _watch(self, slot: int) -> None:
        assert self._loop is not None
        self._loop.add_reader(self._children[slot].channel.fileno(),
                              self._heard, slot)

    def _hand_off(self) -> None:
        """Parent: pass one accepted socket to the least-loaded child
        (ties in slot order).  Past ``max_connections`` it goes flagged
        as refused, so the child answers it inside TLS like any other
        refusal."""
        try:
            sock, _peer = self._accepting.accept()  # type: ignore[union-attr]
        except OSError:  # another wake-up took it
            return
        with sock:
            refused = sum(each.load for each in self._children) \
                >= self.max_connections
            child = min(self._children, key=lambda each: each.load)
            try:
                socket.send_fds(child.channel, [b"r" if refused else b"a"],
                                [sock.fileno()])
            except OSError:
                return  # the child just died; the client sees a close
        if refused:
            self._bump("server.connections.refused", "connections_refused")
            return
        child.slot[_HANDED] += 1
        self._count_open(0)
        self._bump("server.connections.accepted", "connections_accepted")

    def _heard(self, slot: int) -> None:
        """Parent: a replacement child's "started" byte, or a child's
        EOF -- it exited.  Its slot goes into the stats (its open
        connections closed with it); an exit before the drain is a
        death: count it, fork the slot anew."""
        assert self._loop is not None
        child = self._children[slot]
        try:
            if child.channel.recv(1):
                return
        except OSError:
            pass
        self._loop.remove_reader(child.channel.fileno())
        child.channel.close()
        os.waitpid(child.pid, 0)
        child.pid = 0
        with self.stats._lock:
            for key in _CHILD_STATS:
                setattr(self.stats, key,
                        getattr(self.stats, key) + child.slot[_SLOT[key]])
            self.stats.drained = self.stats.drained \
                and not child.slot[_CUT]
            for word in range(len(child.slot)):
                child.slot[word] = 0
        self._count_open(0)
        if not self._draining:
            self._bump("server.dispatch.worker_deaths", "worker_deaths")
            self._children[slot] = self._fork_child(slot)
            self._watch(slot)

    async def _drain_children(self) -> None:
        """Parent: stop accepting, tell every child to drain, and kill
        any still running ``_EXIT_GRACE`` past ``drain_timeout``."""
        assert self._loop is not None and self._accepting is not None
        self._draining = True
        self._loop.remove_reader(self._accepting.fileno())
        self._accepting.close()
        with self.stats._lock:
            self.stats.drained = True
        for child in self._children:
            try:
                child.channel.send(b"d")
            except OSError:
                pass  # already gone: its EOF is on the way
        deadline = self._loop.time() + self.drain_timeout + _EXIT_GRACE
        while any(child.pid for child in self._children):
            if self._loop.time() >= deadline:
                deadline = float("inf")
                with self.stats._lock:
                    self.stats.drained = False
                for child in self._children:
                    if child.pid:
                        os.kill(child.pid, signal.SIGKILL)
            await asyncio.sleep(0.01)

    def _adopt(self) -> None:
        """Child: take the next handed-over socket; the drain order, or
        the parent's EOF, stops this server."""
        assert self._loop is not None and self._channel is not None
        try:
            flag, fds, _flags, _address = socket.recv_fds(
                self._channel, 1, 1)
        except OSError:
            flag, fds = b"", []
        if not fds:
            self._loop.remove_reader(self._channel.fileno())
            self._stop_event.set()  # type: ignore[union-attr]
            return
        task = self._loop.create_task(self._connect(
            socket.socket(fileno=fds[0]), refused=flag == b"r"))
        self._adopting.add(task)
        task.add_done_callback(self._adopting.discard)

    async def _connect(self, sock: socket.socket, refused: bool) -> None:
        """Child: run TLS (if any) on a handed-over socket, then serve
        it as the thread tier serves an accepted one."""
        try:
            await self._loop.connect_accepted_socket(  # type: ignore
                lambda: _Connection(self, refused), sock,
                ssl=self.ssl_context)
        except OSError:  # a failed TLS handshake, a reset
            sock.close()
            if not refused:
                self._slot[_CLOSED] += 1  # type: ignore[index]

    # ------------------------------------------------------------------
    # One frame: the handshake on the loop, everything else one hop away
    # ------------------------------------------------------------------

    def _submit(self, conn: _Connection, frame: bytes) -> None:
        if not conn.session_id:
            self._handshake(conn, frame)
        else:
            self._count_submit(conn)
            self._queue.put((conn, frame))

    def _handshake(self, conn: _Connection, frame: bytes) -> None:
        """Enforce the shared bearer token before any dispatch.

        With a token configured, the *first* frame must be a matching
        AUTH frame; anything else (a call, a bad token, garbage) is
        counted as an auth failure and refused without ever touching
        the dispatch core.  Without a token there is no handshake: the
        session starts at once and AUTH frames are accepted trivially
        as refreshes, so token-configured clients still interoperate.
        """
        try:
            request = decode_request(frame)
        except Exception:  # noqa: BLE001 - garbage is an auth failure
            self._auth_failure()
            conn.abort()
            return
        if not isinstance(request, AuthRequest) or not self._token_ok(
                request):
            self._auth_failure()
            call_id = request.call_id \
                if isinstance(request, AuthRequest) else 0
            conn.finish(encode_frame(CallReply(
                call_id, ok=False, error="authentication failed").encode()))
            conn.close()
            return
        self._start_session(conn)
        conn.finish(encode_frame(CallReply(
            request.call_id, ok=True, result="ok").encode()))

    def _dispatch_thread(self, loop: asyncio.AbstractEventLoop) -> None:
        """Thread tier: serve queued frames until the ``None`` sentinel.

        A frame whose connection was already aborted (by a reset or a
        shutdown past its drain deadline) is skipped: its reply would
        be dropped.  A frame that raises ends only its own connection;
        the thread keeps serving everyone else.
        """
        get = self._queue.get
        while True:
            item = get()
            if item is None:
                return
            conn, frame = item
            reply: Optional[bytes] = None
            if not conn.closed:
                try:
                    reply = self._serve_frame(conn, frame)
                except Exception:  # noqa: BLE001 - end this tenant only
                    pass
            # The loop takes the connection out of ``box``.  Waking the
            # loop lets the GIL go, and this thread may not run again
            # before the client has its reply and has closed: it must
            # not keep a closed connection's context (and its servant
            # state) alive meanwhile.
            box = [conn]
            del item, conn, frame
            loop.call_soon_threadsafe(_replied_from, box, reply)

    def _serve_frame(self, conn: _Connection,
                     frame: bytes) -> Optional[bytes]:
        """Decode, account, dispatch and encode one frame on a dispatch
        thread, in the tenant's connection context; the framed reply.
        A mid-session AUTH is answered, not dispatched; ``None`` is an
        undecodable frame, a protocol error that ends the connection."""
        try:
            request = decode_request(frame)
        except Exception:  # noqa: BLE001 - protocol violation
            self._bump(None, "protocol_errors")
            return None
        if isinstance(request, AuthRequest):
            return encode_frame(self._refresh_auth(request))
        self._account_request(request)
        assert conn.session is not None
        try:
            with entered(conn.context):
                reply = conn.session.dispatch_encoded(request)
        except Exception:  # noqa: BLE001 - a bug in the dispatch core
            reply = self._error_reply(request, "internal dispatch failure")
        return encode_frame(reply)

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
        if self.auth_token is not None and not self._token_ok(request):
            self._auth_failure()
            return CallReply(request.call_id, ok=False,
                             error="authentication failed").encode()
        self._bump("server.auth.refreshes", "auth_refreshes")
        return CallReply(request.call_id, ok=True, result="ok").encode()

    def _token_ok(self, request: AuthRequest) -> bool:
        # "surrogatepass": a token string may carry a lone surrogate
        # (JSON allows "\ud800"); it must be compared, not raise.
        assert self.auth_token is not None
        return hmac.compare_digest(
            request.token.encode("utf-8", "surrogatepass"),
            self.auth_token.encode("utf-8", "surrogatepass"))

    def _account_request(self, request: Any) -> None:
        """Count one dispatched frame."""
        if isinstance(request, BatchRequest):
            self._bump("server.batches", "batches_served")
            self._bump("server.calls", "calls_served", len(request.calls))
        else:
            self._bump("server.calls", "calls_served")

    @staticmethod
    def _error_reply(request: Any, error: str) -> bytes:
        """An error reply shaped like the request's own reply: the call
        id echoed, and for a BATCH one error per call."""
        if isinstance(request, BatchRequest):
            return BatchReply(request.batch_id, tuple(
                CallReply(call.call_id, ok=False, error=error)
                for call in request.calls)).encode()
        return CallReply(request.call_id, ok=False, error=error).encode()

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------

    def _count_submit(self, conn: _Connection) -> None:
        """``server.dispatch.latency`` spans submit to reply on the
        loop, queue wait included; ``server.dispatch.queue_depth``
        counts dispatches in flight (at most one per connection)."""
        if TELEMETRY.enabled:
            conn.submitted = time.perf_counter()
            self._queue_depth(+1)

    def _observe_dispatch(self, submitted: float) -> None:
        self._queue_depth(-1)
        TELEMETRY.metrics.histogram(
            "server.dispatch.latency",
            labels={"server": self.name}).observe(
                time.perf_counter() - submitted)

    def _auth_failure(self) -> None:
        self._bump("server.auth.failures", "auth_failures")

    def _bump(self, metric: Optional[str], stat: str, by: int = 1) -> None:
        """Count ``by`` more ``stat``; a process-tier child writes the
        new count into its slot at once."""
        with self.stats._lock:
            count = getattr(self.stats, stat) + by
            setattr(self.stats, stat, count)
            if self._slot is not None and stat in _SLOT:
                self._slot[_SLOT[stat]] = count
        if metric is not None and TELEMETRY.enabled:
            TELEMETRY.metrics.counter(
                metric, labels={"server": self.name}).inc(by)

    def _count_open(self, delta: int) -> None:
        """Move the open count by ``delta`` and raise the peak.  A
        parent's own count stays 0: it adds what its children's slots
        hold open."""
        with self.stats._lock:
            self.stats.connections_open += delta
            open_now = self.stats.connections_open + sum(
                child.load for child in self._children)
            self.stats.connections_peak = max(self.stats.connections_peak,
                                              open_now)
            peak = self.stats.connections_peak
        if TELEMETRY.enabled:
            labels = {"server": self.name}
            TELEMETRY.metrics.gauge(
                "server.connections.open", labels=labels).set(open_now)
            TELEMETRY.metrics.gauge(
                "server.connections.peak", labels=labels).set(peak)

    def _queue_depth(self, delta: int) -> None:
        TELEMETRY.metrics.gauge(
            "server.dispatch.queue_depth",
            labels={"server": self.name}).inc(delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._thread is not None else "stopped"
        return (f"AsyncRMIServer({self.name!r}, {state}, "
                f"dispatch={self.dispatch_tier!r}, "
                f"max_connections={self.max_connections})")
