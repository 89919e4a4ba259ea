"""Stacking the invocation-layer wrappers on a base transport.

:func:`wrap_transport` is the single place that knows the correct
stacking order:

    CachingTransport(BatchingTransport(base))

Cache first (client-most) so a hit never even enters the batch queue;
batching below so misses and stateful traffic still coalesce.  What a
connection's wire is, is what its constructor was given: there is no
process-wide switch.
"""

from __future__ import annotations

from typing import Optional

from ..cache import ResponseCache
from .batching import DEFAULT_MAX_BATCH, BatchingTransport
from .caching import CachePolicy, CachingTransport
from .transport import Transport


def wrap_transport(base: Transport,
                   batching: bool = False,
                   caching: bool = False,
                   max_batch: int = DEFAULT_MAX_BATCH,
                   cache: Optional[ResponseCache] = None,
                   policy: Optional[CachePolicy] = None) -> Transport:
    """Stack the requested wrappers on top of a base transport.

    The returned transport is the base itself when neither feature is
    on.  The response cache created when ``caching`` is on and no
    ``cache`` is given never expires entries; a caller that wants
    expiry passes its own, e.g. ``ResponseCache(ttl=60.0,
    time_fn=lambda: clock.wall)`` on a virtual-clock session (wall
    time must not expire entries mid-run there).
    """
    transport = base
    if batching:
        transport = BatchingTransport(transport, max_batch=max_batch)
    if caching:
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
