"""CachingTransport: policy, hit semantics, coherence, error handling."""

import pytest

from repro.cache import ResponseCache
from repro.core import RemoteError, Word
from repro.net.model import LOCALHOST
from repro.rmi import (CachePolicy, CachingTransport, JavaCADServer,
                       PURE_METHODS, RemoteStub)


class CatalogServant:
    """A pure ``describe`` plus a stateful ``bump`` for contrast."""

    def __init__(self):
        self.describe_calls = 0
        self.counter = 0

    def describe(self, component):
        self.describe_calls += 1
        return {"name": component, "width": 8}

    def bump(self):
        self.counter += 1
        return self.counter

    def boom(self):
        raise ValueError("servant exploded")

    def fault_list(self):
        return ("f1", "f2")


@pytest.fixture
def servant():
    return CatalogServant()


@pytest.fixture
def server(servant):
    server = JavaCADServer("cache.provider")
    server.bind("catalog", servant,
                ["describe", "bump", "boom", "fault_list"])
    return server


def cached(server, **kwargs):
    return CachingTransport(server.connect(LOCALHOST), **kwargs)


class TestHits:
    def test_repeat_pure_call_served_from_cache(self, server, servant):
        transport = cached(server)
        first = transport.invoke("catalog", "describe", ("MULT",))
        second = transport.invoke("catalog", "describe", ("MULT",))
        assert first == second == {"name": "MULT", "width": 8}
        assert servant.describe_calls == 1
        assert transport.inner.stats.calls == 1
        assert transport.saved_round_trips == 1

    def test_hits_unmarshal_fresh_objects(self, server):
        """A hit must never alias a previous caller's result object."""
        transport = cached(server)
        first = transport.invoke("catalog", "describe", ("MULT",))
        second = transport.invoke("catalog", "describe", ("MULT",))
        assert first is not second
        first["width"] = 999
        assert transport.invoke("catalog", "describe",
                                ("MULT",))["width"] == 8

    def test_distinct_arguments_miss(self, server, servant):
        transport = cached(server)
        transport.invoke("catalog", "describe", ("A",))
        transport.invoke("catalog", "describe", ("B",))
        assert servant.describe_calls == 2

    def test_stateful_method_never_cached(self, server):
        transport = cached(server)
        assert transport.invoke("catalog", "bump") == 1
        assert transport.invoke("catalog", "bump") == 2
        assert transport.saved_round_trips == 0

    def test_oneway_never_cached(self, server, servant):
        transport = cached(server)
        transport.invoke("catalog", "describe", ("MULT",), oneway=True)
        transport.invoke("catalog", "describe", ("MULT",), oneway=True)
        assert servant.describe_calls == 2
        assert len(transport.cache) == 0


class TestPolicy:
    def test_default_policy_is_the_pure_whitelist(self):
        policy = CachePolicy()
        assert policy.is_cacheable("anything", "describe")
        assert policy.is_cacheable("anything", "fault_list")
        assert not policy.is_cacheable("anything", "bump")
        assert "power_buffer" not in PURE_METHODS
        assert "handle_event" not in PURE_METHODS

    def test_object_restriction(self, server, servant):
        policy = CachePolicy(objects=frozenset({"other"}))
        transport = cached(server, policy=policy)
        transport.invoke("catalog", "describe", ("MULT",))
        transport.invoke("catalog", "describe", ("MULT",))
        assert servant.describe_calls == 2

    def test_extra_methods_can_be_whitelisted(self, server, servant):
        policy = CachePolicy(methods=PURE_METHODS | {"bump"})
        transport = cached(server, policy=policy)
        assert transport.invoke("catalog", "bump") == 1
        assert transport.invoke("catalog", "bump") == 1  # memoized

    def test_word_arguments_are_content_addressed(self, server, servant):
        transport = cached(server)
        transport.invoke("catalog", "describe", (Word(3, 8),))
        transport.invoke("catalog", "describe", (Word(3, 8),))
        transport.invoke("catalog", "describe", (Word(4, 8),))
        assert servant.describe_calls == 2


class TestErrors:
    def test_errors_are_never_memoized(self, server):
        policy = CachePolicy(methods=PURE_METHODS | {"boom"})
        transport = cached(server, policy=policy)
        for _ in range(2):
            with pytest.raises(RemoteError, match="servant exploded"):
                transport.invoke("catalog", "boom")
        assert transport.stats.errors == 2
        assert transport.inner.stats.errors == 2
        assert len(transport.cache) == 0


class TestCoherence:
    def test_invalidate_object_forces_refetch(self, server, servant):
        transport = cached(server)
        transport.invoke("catalog", "describe", ("MULT",))
        assert transport.invalidate("catalog") == 1
        transport.invoke("catalog", "describe", ("MULT",))
        assert servant.describe_calls == 2

    def test_invalidate_is_method_scoped(self, server, servant):
        transport = cached(server)
        transport.invoke("catalog", "describe", ("MULT",))
        transport.invoke("catalog", "fault_list")
        assert transport.invalidate("catalog", "fault_list") == 1
        transport.invoke("catalog", "describe", ("MULT",))
        assert servant.describe_calls == 1

    def test_clear_cache(self, server, servant):
        transport = cached(server)
        transport.invoke("catalog", "describe", ("MULT",))
        transport.invoke("catalog", "fault_list")
        assert transport.clear_cache() == 2
        transport.invoke("catalog", "describe", ("MULT",))
        assert servant.describe_calls == 2

    def test_shared_cache_across_transports(self, server, servant):
        shared = ResponseCache()
        first = cached(server, cache=shared)
        second = cached(server, cache=shared)
        first.invoke("catalog", "describe", ("MULT",))
        second.invoke("catalog", "describe", ("MULT",))
        assert servant.describe_calls == 1


class TestStubIntegration:
    def test_stub_over_caching_transport(self, server, servant):
        transport = cached(server)
        stub = RemoteStub(transport, "catalog",
                          ["describe", "fault_list"])
        assert stub.describe("MULT") == stub.describe("MULT")
        assert stub.fault_list() == ("f1", "f2")
        assert stub.calls == 3
        assert servant.describe_calls == 1
