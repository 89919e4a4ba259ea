"""Content-addressed response caching for the RMI wire.

A :class:`ResponseCache` memoizes the *marshalled reply bytes* of pure
remote calls, keyed by a content address derived from the object name,
the method name and the canonicalized marshalled arguments.  Storing
wire bytes (rather than live result objects) has two properties the
differential harness relies on:

* a cache hit reproduces exactly what the wire would have delivered --
  the stored bytes are unmarshalled per hit, so callers never share or
  mutate one another's result objects;
* only values that can legally cross the IP-protection boundary are
  ever cached, because anything else fails to marshal in the first
  place.

Eviction is LRU over a bounded entry count, entries can carry a TTL,
and explicit invalidation hooks exist for provider-side state changes
(a re-published component, a reset session).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..core.errors import check_count, check_positive
from ..rmi.marshal import marshal


def _canonical(wire: Any) -> Any:
    """Sort the item lists of tagged dict/set nodes for stable hashing.

    The marshaller preserves dict insertion order on the wire (two equal
    dicts built in different orders produce different bytes); a cache
    key must not care, so dict items are re-sorted by their serialized
    key here.  Sets are already sorted by the marshaller.
    """
    if isinstance(wire, dict):
        tag = wire.get("$t")
        value = wire.get("v")
        if tag == "dict":
            items = [[_canonical(k), _canonical(v)] for k, v in value]
            items.sort(key=lambda item: json.dumps(item[0], sort_keys=True))
            return {"$t": "dict", "v": items}
        if isinstance(value, list):
            out = dict(wire)
            out["v"] = [_canonical(x) for x in value]
            return out
        return wire
    if isinstance(wire, list):
        return [_canonical(x) for x in wire]
    return wire


def cache_key(object_name: str, method: str,
              args: Tuple[Any, ...] = (),
              kwargs: Optional[Mapping[str, Any]] = None) -> str:
    """The content address of one remote call.

    Equal payloads (by value, regardless of dict insertion order) map to
    the same key; any difference in object, method or argument values
    produces a distinct key.  The key embeds ``object.method`` in clear
    so invalidation hooks can match by prefix.
    """
    wire = marshal(tuple(args))
    kw_wire = marshal(dict(kwargs or {}))
    canonical = json.dumps(
        [_canonical(json.loads(wire.decode())),
         _canonical(json.loads(kw_wire.decode()))],
        sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return f"{object_name}.{method}:{digest}"


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting, always maintained (telemetry-free)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0

    @property
    def saved_round_trips(self) -> int:
        """Round trips that never happened: one per hit."""
        return self.hits

    def snapshot(self) -> Dict[str, int]:
        """A JSON-ready view of the counters."""
        return {
            "hits": self.hits, "misses": self.misses, "puts": self.puts,
            "evictions": self.evictions, "expirations": self.expirations,
            "invalidations": self.invalidations,
            "saved_round_trips": self.saved_round_trips,
        }


@dataclass
class _Entry:
    value: bytes
    stored_at: float
    expires_at: Optional[float]


class ResponseCache:
    """A bounded, TTL-aware, LRU map from content address to reply bytes.

    Parameters
    ----------
    max_entries:
        Upper bound on live entries; inserting beyond it evicts the
        least recently used entry.
    ttl:
        Default time-to-live in seconds, positive and finite (``None`` =
        no expiry).
    time_fn:
        Clock used for TTL bookkeeping; injectable so tests (and
        virtual-time callers) control expiry deterministically.
    """

    def __init__(self, max_entries: int = 1024,
                 ttl: Optional[float] = None,
                 time_fn: Optional[Callable[[], float]] = None):
        check_count("max_entries", max_entries)
        if ttl is not None:
            check_positive("ttl", ttl)
        import time
        self.max_entries = max_entries
        self.ttl = ttl
        self._time = time_fn or time.monotonic
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self.stats = CacheStats()

    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        """The cached bytes for ``key``, or None (miss or expired)."""
        now = self._time()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if entry.expires_at is not None and now >= entry.expires_at:
                del self._entries[key]
                self.stats.expirations += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.value

    def put(self, key: str, value: bytes,
            ttl: Optional[float] = None) -> None:
        """Store ``value`` under ``key`` (``ttl`` overrides the default)."""
        if not isinstance(value, bytes):
            raise TypeError("ResponseCache stores marshalled bytes only")
        if ttl is not None:
            check_positive("ttl", ttl)
        now = self._time()
        live_ttl = self.ttl if ttl is None else ttl
        expires = now + live_ttl if live_ttl is not None else None
        with self._lock:
            self._entries[key] = _Entry(value, now, expires)
            self._entries.move_to_end(key)
            self.stats.puts += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Invalidation hooks
    # ------------------------------------------------------------------

    def invalidate(self, object_name: str,
                   method: Optional[str] = None) -> int:
        """Drop every entry for an object (optionally one method).

        This is the coherence hook: call it when provider-side state a
        "pure" method depends on changes out of band (a component is
        re-published, a servant rebound).  Returns the number of
        entries dropped.
        """
        prefix = f"{object_name}.{method}:" if method is not None \
            else f"{object_name}."
        with self._lock:
            doomed = [key for key in self._entries
                      if key.startswith(prefix)]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> int:
        """Drop everything; returns the number of entries dropped."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += count
        return count

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ResponseCache({len(self)}/{self.max_entries} entries, "
                f"hits={self.stats.hits}, misses={self.stats.misses})")
