"""Call batching: coalescing RMI traffic into multi-call BATCH frames.

The paper's central cost is the round trip between the user's design
and the provider's private model: every remote-module evaluation and
remote-estimator query is one blocking ``transport.invoke``.  A
:class:`BatchingTransport` wraps any base transport and amortizes that
cost on the wire:

* **oneway calls are queued**, not sent -- non-blocking traffic issued
  within one scheduler delta accumulates locally;
* the next **blocking call coalesces the queue**: everything pending
  plus the blocking call itself travels as one
  :class:`~repro.rmi.protocol.BatchRequest` frame, dispatched
  server-side in one pass, answered in one round trip;
* a queue that reaches ``max_batch`` flushes on its own, bounding both
  client memory and frame size.

Because calls execute server-side in exactly the order they were
issued, batching changes *when* bytes move, never *what* the calls
compute -- the property ``tests/differential`` asserts byte-for-byte.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.errors import RemoteError, check_count
from ..telemetry.runtime import TELEMETRY
from .protocol import CallReply, CallRequest
from .transport import Transport, _BATCH_SIZE_BUCKETS

DEFAULT_MAX_BATCH = 64
"""Flush threshold for the oneway queue (frame-size bound)."""


class BatchingTransport(Transport):
    """Queue oneway calls and coalesce them with the next blocking call.

    The wrapper's own ``stats`` count *logical* invocations (what the
    application issued); the wrapped transport's ``stats.calls`` count
    the round trips that actually crossed the wire.  The difference is
    the saved traffic, surfaced as :attr:`saved_round_trips` and the
    ``rmi.batch.*`` telemetry counters.
    """

    def __init__(self, inner: Transport,
                 max_batch: int = DEFAULT_MAX_BATCH):
        # One call per batch would never coalesce anything.
        check_count("max_batch", max_batch, 2)
        super().__init__()
        self.inner = inner
        self.max_batch = max_batch
        self._lock = threading.RLock()
        self._queue: List[CallRequest] = []

    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Oneway calls queued and not yet flushed."""
        with self._lock:
            return len(self._queue)

    @property
    def saved_round_trips(self) -> int:
        """Round trips avoided so far: batched calls minus frames sent."""
        inner = self.inner.stats
        return inner.batched_calls - inner.batches

    def invoke(self, object_name: str, method: str,
               args: Tuple[Any, ...] = (),
               kwargs: Optional[Dict[str, Any]] = None,
               oneway: bool = False) -> Any:
        request = CallRequest(object_name, method, tuple(args),
                              dict(kwargs or {}), oneway=oneway)
        self.stats.calls += 1
        if oneway:
            self.stats.oneway_calls += 1
            with self._lock:
                self._queue.append(request)
                if len(self._queue) >= self.max_batch:
                    self._flush_locked()
            return None
        with self._lock:
            if not self._queue:
                # Nothing to coalesce: a lone blocking call travels as
                # the plain single-call frame it always did.
                return self.inner.invoke(object_name, method, args,
                                         kwargs, oneway=False)
            requests = self._queue + [request]
            self._queue = []
            replies = self._send(requests)
        self._check_oneway_replies(requests[:-1], replies[:-1])
        final = replies[-1]
        if not final.ok:
            self.stats.errors += 1
            raise RemoteError(final.error or "remote call failed")
        return final.result

    def invoke_batch(self, requests: Sequence[CallRequest]
                     ) -> List[CallReply]:
        """Pass a pre-built batch through, flushing queued traffic first."""
        with self._lock:
            pending, self._queue = self._queue, []
            combined = pending + list(requests)
            replies = self._send(combined)
        self._check_oneway_replies(pending, replies[:len(pending)])
        return replies[len(pending):]

    def flush(self) -> None:
        """Send any queued oneway calls as one all-oneway BATCH frame."""
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        """Drain queued traffic if possible, then close the stack.

        ``close`` runs on teardown paths where the inner transport may
        already be closed or broken, so it must never raise: queued
        oneways are *drained* when the wire still works, and *dropped*
        otherwise -- each dropped call counted in ``stats.errors`` and
        the ``rmi.errors`` telemetry, exactly like frames lost on a
        dead wire.
        """
        with self._lock:
            requests, self._queue = self._queue, []
        if requests:
            try:
                replies = self._send(requests)
            except Exception:
                self.stats.errors += len(requests)
                if TELEMETRY.enabled:
                    TELEMETRY.metrics.counter(
                        "rmi.errors",
                        labels={"transport": "batching"}).inc(len(requests))
            else:
                self._check_oneway_replies(requests, replies)
        try:
            self.inner.close()
        except Exception:  # pragma: no cover - close is best effort
            pass

    # ------------------------------------------------------------------

    def _flush_locked(self) -> None:
        if not self._queue:
            return
        requests, self._queue = self._queue, []
        replies = self._send(requests)
        self._check_oneway_replies(requests, replies)

    def _send(self, requests: List[CallRequest]) -> List[CallReply]:
        if len(requests) == 1 and requests[0].oneway:
            # A flush of one is not a batch; keep the single-call frame.
            request = requests[0]
            self.inner.invoke(request.object_name, request.method,
                              request.args, request.kwargs, oneway=True)
            return [CallReply(request.call_id, ok=True)]
        replies = self.inner.invoke_batch(requests)
        if TELEMETRY.enabled:
            metrics = TELEMETRY.metrics
            metrics.counter("rmi.batch.flushes").inc()
            metrics.counter("rmi.batch.calls").inc(len(requests))
            metrics.counter("rmi.batch.saved_round_trips").inc(
                len(requests) - 1)
            metrics.histogram("rmi.batch.queue_size",
                              buckets=_BATCH_SIZE_BUCKETS).observe(
                                  len(requests))
        return replies

    def _check_oneway_replies(self, requests: Sequence[CallRequest],
                              replies: Sequence[CallReply]) -> None:
        """Account failures of queued fire-and-forget calls.

        Oneway semantics never raise to the issuer (who has long moved
        on), but the failures are not silent either: they count in
        ``stats.errors`` and the ``rmi.errors`` telemetry, exactly like
        a lost oneway frame on a real wire.
        """
        for request, reply in zip(requests, replies):
            if not reply.ok:
                self.stats.errors += 1
                if TELEMETRY.enabled:
                    TELEMETRY.metrics.counter(
                        "rmi.errors",
                        labels={"transport": "batching"}).inc()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BatchingTransport({self.inner!r}, "
                f"pending={self.pending}, max_batch={self.max_batch})")
