"""Process-wide wire options: batching/caching defaults + wrapping.

The CLI's ``--rmi-batch`` / ``--rmi-cache`` flags (and tests) configure
one process-wide :class:`WireOptions` instance, mirroring how
``repro.telemetry.runtime.TELEMETRY`` works; every
:class:`~repro.ip.component.ProviderConnection` consults it when its
constructor is not given explicit overrides.  :func:`wrap_transport`
is the single place that knows the correct stacking order:

    CachingTransport(BatchingTransport(base))

Cache first (client-most) so a hit never even enters the batch queue;
batching below so misses and stateful traffic still coalesce.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Callable, Iterator, Optional

from ..cache import ResponseCache
from .batching import DEFAULT_MAX_BATCH, BatchingTransport
from .caching import CachePolicy, CachingTransport
from .transport import (DEFAULT_CONNECT_TIMEOUT, DEFAULT_TCP_TIMEOUT,
                        Transport)


@dataclasses.dataclass
class WireOptions:
    """Mutable process-wide defaults for the invocation layer."""

    batching: bool = False
    caching: bool = False
    max_batch: int = DEFAULT_MAX_BATCH
    cache_entries: int = 1024
    cache_ttl: Optional[float] = None
    rmi_timeout: float = DEFAULT_TCP_TIMEOUT
    """Socket timeout for :class:`~repro.rmi.transport.TcpTransport`
    instances constructed without an explicit override (the CLI's
    ``--rmi-timeout`` flag); slow providers and CI can raise it
    without code changes."""
    connect_timeout: float = DEFAULT_CONNECT_TIMEOUT
    """Timeout for the initial TCP connect (and TLS/AUTH
    handshake), separate from ``rmi_timeout``: a dead or
    unroutable host should fail in about a second instead of
    inheriting the full per-call timeout meant for slow servant
    work.  The CLI's ``--rmi-connect-timeout`` flag overrides it."""
    cache_time_fn: Optional[Callable[[], float]] = None
    """Clock driving response-cache TTL expiry.  ``None`` lets each
    cache fall back to ``time.monotonic`` -- correct for real
    wall-clock deployments, but wrong for runs driven by the
    deterministic :class:`~repro.net.clock.VirtualClock`, where a
    long wall-clock run could expire entries mid-run and break
    byte-identical reproduction.  Virtual-clock sessions pin this
    (see :class:`~repro.ip.component.ProviderConnection`, which
    defaults its cache to the session clock's wall time)."""

    def configure(self, **options: Any) -> None:
        """Update the named defaults (None leaves a field unchanged)."""
        unknown = options.keys() - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise TypeError(f"unknown wire options: {sorted(unknown)}")
        for name in ("rmi_timeout", "connect_timeout"):
            value = options.get(name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name, value in options.items():
            if value is not None:
                setattr(self, name, value)

    def reset(self) -> None:
        """Back to the plain-wire defaults."""
        self.__init__()


WIRE_OPTIONS = WireOptions()
"""The process-wide wire options every new connection consults."""


@contextlib.contextmanager
def wire_session(**options: Any) -> Iterator[WireOptions]:
    """Apply wire options (the :class:`WireOptions` fields, by name)
    for a block, restoring the previous state."""
    saved = {f.name: getattr(WIRE_OPTIONS, f.name)
             for f in dataclasses.fields(WIRE_OPTIONS)}
    try:
        WIRE_OPTIONS.configure(**options)
        yield WIRE_OPTIONS
    finally:
        for name, value in saved.items():
            setattr(WIRE_OPTIONS, name, value)


def wrap_transport(base: Transport,
                   batching: Optional[bool] = None,
                   caching: Optional[bool] = None,
                   max_batch: Optional[int] = None,
                   cache: Optional[ResponseCache] = None,
                   policy: Optional[CachePolicy] = None,
                   cache_time_fn: Optional[Callable[[], float]] = None
                   ) -> Transport:
    """Stack the configured wrappers on top of a base transport.

    ``None`` arguments fall back to :data:`WIRE_OPTIONS`; the returned
    transport is the base itself when neither feature is on.
    ``cache_time_fn`` names the clock the implicitly created response
    cache uses for TTL expiry (sessions on a virtual clock pass their
    own, so wall time cannot expire entries mid-run).
    """
    use_batching = WIRE_OPTIONS.batching if batching is None else batching
    use_caching = WIRE_OPTIONS.caching if caching is None else caching
    transport = base
    if use_batching:
        transport = BatchingTransport(
            transport, max_batch=max_batch or WIRE_OPTIONS.max_batch)
    if use_caching:
        if cache is None:  # an empty shared cache is falsy -- test `is`
            cache = ResponseCache(max_entries=WIRE_OPTIONS.cache_entries,
                                  ttl=WIRE_OPTIONS.cache_ttl,
                                  time_fn=(cache_time_fn
                                           or WIRE_OPTIONS.cache_time_fn))
        transport = CachingTransport(transport, cache=cache, policy=policy)
    return transport


def base_transport_of(transport: Transport) -> Transport:
    """Unwrap batching/caching layers down to the wire transport.

    The base transport's ``stats.calls`` is the true round-trip count,
    which the differential harness and the ablation benchmarks assert
    against.
    """
    seen = set()
    while id(transport) not in seen:
        seen.add(id(transport))
        inner = getattr(transport, "inner", None)
        if not isinstance(inner, Transport):
            return transport
        transport = inner
    return transport
