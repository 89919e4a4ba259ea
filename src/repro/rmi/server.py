"""JavaCADServer: hosts IP servants and dispatches remote calls.

A server owns a registry of servants and the dispatch core; calls
reach it through two paths:

* an **in-process endpoint** with a simulated network
  (:class:`~repro.net.model.NetworkModel`) -- deterministic and used by
  the benchmarks;
* a **real TCP endpoint** -- :class:`repro.server.AsyncRMIServer`, the
  one socket front end.  ``serve_tcp()`` starts it with its defaults
  around this server; build it directly for a token, TLS, a
  per-connection session factory or the process dispatch tier.

Servant methods can charge virtual server CPU through the thread-local
:func:`current_server_context`, which routes shared-host contention into
the client's wall clock exactly as the paper observed on the local-host
configuration.
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Sequence, Tuple

from ..core.errors import RemoteError
from ..net.clock import CostModel, VirtualClock
from ..net.model import NetworkModel
from ..telemetry.runtime import TELEMETRY
from .protocol import BatchReply, BatchRequest, CallReply, CallRequest
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
    """An IP provider's server: registry + dispatch core."""

    def __init__(self, host_name: str = "provider.host.name",
                 cost_model: Optional[CostModel] = None):
        self.host_name = host_name
        self.cost = cost_model or CostModel()
        self.registry = Registry()
        self._tcp_front: Optional[Any] = None
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
    # Dispatch (shared by every path)
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

    def dispatch_encoded(self, request: Any,
                         clock: Optional[VirtualClock] = None,
                         shared_host: bool = False) -> bytes:
        """Dispatch one decoded CALL or BATCH; its encoded reply.

        The one entry the in-process transport and both server tiers
        use, so the IP-leak guard runs on every path: a result that
        may not cross the boundary (typically a MarshalError -- an
        attempted IP leak) travels as an error reply instead of
        desynchronizing the stream, and inside a BATCH only the
        offending calls are downgraded.
        """
        if isinstance(request, BatchRequest):
            reply: Any = self.dispatch_batch(request, clock=clock,
                                             shared_host=shared_host)
        else:
            reply = self.dispatch(request, clock=clock,
                                  shared_host=shared_host)
        try:
            return reply.encode()
        except Exception:  # noqa: BLE001 - isolate the offending call(s)
            if isinstance(reply, BatchReply):
                return BatchReply(reply.batch_id, tuple(
                    _marshallable(item) for item in reply.replies)).encode()
            return _marshallable(reply).encode()

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
    # TCP endpoint (real sockets)
    # ------------------------------------------------------------------

    def serve_tcp(self, host: str = "127.0.0.1",
                  port: int = 0) -> Tuple[str, int]:
        """Serve on :class:`~repro.server.AsyncRMIServer` with its
        defaults (no token, no TLS); returns the bound address."""
        if self._tcp_front is not None:
            raise RemoteError("server is already serving TCP")
        # Local import: repro.server imports this module.
        from ..server.async_server import AsyncRMIServer
        front = AsyncRMIServer(self, host=host, port=port,
                               name=self.host_name)
        address = front.start()
        self._tcp_front = front
        return address

    def stop_tcp(self, join_timeout: float = 2.0) -> None:
        """Stop serving; in-flight replies get ``join_timeout`` to flush."""
        front, self._tcp_front = self._tcp_front, None
        if front is not None:
            front.drain_timeout = join_timeout
            front.stop(timeout=join_timeout)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"JavaCADServer({self.host_name!r}, "
                f"{len(self.registry.names())} bindings)")


def _marshallable(reply: CallReply) -> CallReply:
    """``reply``, or an error reply if its result may not cross."""
    try:
        reply.encode()
        return reply
    except Exception as exc:  # noqa: BLE001
        return CallReply(reply.call_id, ok=False,
                         error=f"{type(exc).__name__}: {exc}")
