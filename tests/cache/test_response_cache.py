"""ResponseCache: LRU bounds, TTL expiry, invalidation, accounting."""

import pytest

from repro.cache import ResponseCache, cache_key


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestBasics:
    def test_get_put_round_trip(self):
        cache = ResponseCache()
        key = cache_key("o", "m", (1,))
        assert cache.get(key) is None
        cache.put(key, b"reply")
        assert cache.get(key) == b"reply"
        assert key in cache
        assert len(cache) == 1

    def test_bytes_only(self):
        cache = ResponseCache()
        with pytest.raises(TypeError, match="marshalled bytes"):
            cache.put("k", "not bytes")

    def test_overwrite_updates_value(self):
        cache = ResponseCache()
        cache.put("o.m:1", b"old")
        cache.put("o.m:1", b"new")
        assert cache.get("o.m:1") == b"new"
        assert len(cache) == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_entries >= 1"):
            ResponseCache(max_entries=0)
        with pytest.raises(ValueError, match="ttl must be positive"):
            ResponseCache(ttl=0)


class TestLru:
    def test_eviction_order_is_least_recently_used(self):
        cache = ResponseCache(max_entries=2)
        cache.put("a.m:1", b"1")
        cache.put("b.m:2", b"2")
        cache.get("a.m:1")          # refresh a -> b is now the LRU
        cache.put("c.m:3", b"3")
        assert cache.get("b.m:2") is None
        assert cache.get("a.m:1") == b"1"
        assert cache.get("c.m:3") == b"3"
        assert cache.stats.evictions == 1

    def test_size_never_exceeds_bound(self):
        cache = ResponseCache(max_entries=4)
        for index in range(20):
            cache.put(f"o.m:{index}", b"x")
            assert len(cache) <= 4
        assert cache.stats.evictions == 16


class TestTtl:
    def test_entries_expire(self):
        clock = FakeClock()
        cache = ResponseCache(ttl=10.0, time_fn=clock)
        cache.put("o.m:1", b"v")
        clock.advance(9.9)
        assert cache.get("o.m:1") == b"v"
        clock.advance(0.2)
        assert cache.get("o.m:1") is None
        assert cache.stats.expirations == 1
        assert len(cache) == 0

    def test_per_entry_ttl_overrides_default(self):
        clock = FakeClock()
        cache = ResponseCache(ttl=100.0, time_fn=clock)
        cache.put("o.m:short", b"s", ttl=1.0)
        cache.put("o.m:long", b"l")
        clock.advance(2.0)
        assert cache.get("o.m:short") is None
        assert cache.get("o.m:long") == b"l"

    def test_no_ttl_means_no_expiry(self):
        clock = FakeClock()
        cache = ResponseCache(time_fn=clock)
        cache.put("o.m:1", b"v")
        clock.advance(1e9)
        assert cache.get("o.m:1") == b"v"


class TestInvalidation:
    def _seeded(self):
        cache = ResponseCache()
        cache.put(cache_key("catalog", "describe", ("A",)), b"a")
        cache.put(cache_key("catalog", "describe", ("B",)), b"b")
        cache.put(cache_key("catalog", "list_components"), b"l")
        cache.put(cache_key("timing", "output_timing"), b"t")
        return cache

    def test_invalidate_object(self):
        cache = self._seeded()
        assert cache.invalidate("catalog") == 3
        assert len(cache) == 1
        assert cache.get(cache_key("timing", "output_timing")) == b"t"

    def test_invalidate_method(self):
        cache = self._seeded()
        assert cache.invalidate("catalog", "describe") == 2
        assert cache.get(cache_key("catalog", "list_components")) == b"l"

    def test_clear(self):
        cache = self._seeded()
        assert cache.clear() == 4
        assert len(cache) == 0
        assert cache.stats.invalidations == 4


class TestStats:
    def test_snapshot_and_saved_round_trips(self):
        cache = ResponseCache()
        cache.put("o.m:1", b"v")
        cache.get("o.m:1")
        cache.get("o.m:1")
        cache.get("o.m:missing")
        snapshot = cache.stats.snapshot()
        assert snapshot["hits"] == 2
        assert snapshot["misses"] == 1
        assert snapshot["puts"] == 1
        assert snapshot["saved_round_trips"] == 2
        assert cache.stats.saved_round_trips == 2
