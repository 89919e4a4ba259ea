"""Response caching: memoizing pure remote calls on the wire.

Some remote calls are *pure*: given the same arguments they always
return the same value, because they read only provider-side state that
never changes within a session -- data sheets, precharacterized fault
lists, detection tables, gate-level timing, combinational module
evaluations.  A :class:`CachingTransport` wraps any transport and
answers repeats of those calls from a content-addressed
:class:`~repro.cache.ResponseCache` without crossing the wire at all.

Purity is declared, not guessed: a :class:`CachePolicy` whitelists the
methods that may be memoized.  Stateful traffic (buffered pattern
pushes, session fetches, resets) always goes through.  Cached entries
store the *marshalled* reply bytes and unmarshal per hit, so a hit is
observationally identical to a round trip -- the property the
differential harness asserts.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..cache import ResponseCache, cache_key
from ..core.errors import MarshalError, RemoteError
from ..telemetry.runtime import TELEMETRY
from .marshal import marshal, unmarshal
from .protocol import CallReply, CallRequest
from .transport import Transport

PURE_METHODS: FrozenSet[str] = frozenset({
    # Marketplace / catalog reads.
    "list_components", "describe",
    # Remote estimator queries (Figure 2's accurate-timing example).
    "output_timing",
    # Virtual fault simulation (Figures 4-5): precharacterized lists
    # and per-configuration detection tables are deterministic.
    "fault_list", "detection_table",
    # Combinational remote-module evaluation (MR scenario).
    "evaluate",
})
"""Methods of the stock servants that are pure by contract."""


class CachePolicy:
    """Which (object, method) pairs may be served from cache.

    The default policy memoizes :data:`PURE_METHODS` on any object.
    ``objects`` restricts caching to specific bound names; extra
    methods can be whitelisted per deployment.
    """

    def __init__(self, methods: FrozenSet[str] = PURE_METHODS,
                 objects: Optional[FrozenSet[str]] = None):
        self.methods = frozenset(methods)
        self.objects = frozenset(objects) if objects is not None else None

    def is_cacheable(self, object_name: str, method: str) -> bool:
        """Whether a call to ``object_name.method`` may be memoized."""
        if method not in self.methods:
            return False
        return self.objects is None or object_name in self.objects


class CachingTransport(Transport):
    """Serve repeats of pure calls from a response cache.

    The wrapper's ``stats`` count logical invocations; the wrapped
    transport's stats count what actually crossed the wire.  Hits and
    misses are always counted on the cache itself; the ``rmi.cache.*``
    telemetry counters are emitted only when telemetry is enabled.
    """

    def __init__(self, inner: Transport,
                 cache: Optional[ResponseCache] = None,
                 policy: Optional[CachePolicy] = None):
        super().__init__()
        self.inner = inner
        # Not ``cache or ...``: an empty ResponseCache is falsy (len 0)
        # and a caller's shared cache must never be silently replaced.
        self.cache = cache if cache is not None else ResponseCache()
        self.policy = policy or CachePolicy()

    # ------------------------------------------------------------------

    def invoke(self, object_name: str, method: str,
               args: Tuple[Any, ...] = (),
               kwargs: Optional[Dict[str, Any]] = None,
               oneway: bool = False) -> Any:
        self.stats.calls += 1
        if oneway:
            # Fire-and-forget calls exist *for* their side effects;
            # they are never pure and never cached.
            self.stats.oneway_calls += 1
            return self.inner.invoke(object_name, method, args, kwargs,
                                     oneway=True)
        if not self.policy.is_cacheable(object_name, method):
            return self._passthrough(object_name, method, args, kwargs)
        try:
            key = cache_key(object_name, method, args, kwargs)
        except MarshalError:
            # Unmarshallable arguments will be rejected by the wire
            # anyway; let the inner transport produce the diagnostic.
            return self._passthrough(object_name, method, args, kwargs)
        hit = self.cache.get(key)
        if hit is not None:
            self._count("rmi.cache.hits")
            self._count("rmi.cache.saved_round_trips")
            return unmarshal(hit)
        self._count("rmi.cache.misses")
        # Errors are never memoized: only a successful, marshallable
        # result earns a cache entry.
        result = self._passthrough(object_name, method, args, kwargs)
        self.cache.put(key, marshal(result))
        return result

    def invoke_batch(self, requests: Sequence[CallRequest]
                     ) -> List[CallReply]:
        """Pass a pre-built batch through uncached (already coalesced)."""
        return self.inner.invoke_batch(requests)

    def flush(self) -> None:
        """Delegate to the wrapped transport (relevant when batching)."""
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()

    # ------------------------------------------------------------------
    # Invalidation hooks
    # ------------------------------------------------------------------

    def invalidate(self, object_name: str,
                   method: Optional[str] = None) -> int:
        """Drop cached replies of one object (optionally one method)."""
        return self.cache.invalidate(object_name, method)

    def clear_cache(self) -> int:
        """Drop every cached reply."""
        return self.cache.clear()

    # ------------------------------------------------------------------

    def _passthrough(self, object_name: str, method: str,
                     args: Tuple[Any, ...],
                     kwargs: Optional[Dict[str, Any]]) -> Any:
        try:
            return self.inner.invoke(object_name, method, args, kwargs,
                                     oneway=False)
        except RemoteError:
            self.stats.errors += 1
            raise

    def _count(self, name: str) -> None:
        if TELEMETRY.enabled:
            TELEMETRY.metrics.counter(name).inc()

    @property
    def saved_round_trips(self) -> int:
        """Round trips answered from cache instead of the wire."""
        return self.cache.stats.hits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CachingTransport({self.inner!r}, cache={self.cache!r})"
