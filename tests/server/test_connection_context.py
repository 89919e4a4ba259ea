"""A tenant's session state lives in its connection.

One published servant serves every tenant of a ``repro serve``-shaped
server.  Every fresh ``ProviderConnection`` picks the session name
``session1.s1``, so tenants isolated only by that name would share a
power model and port state; each tenant's connection context keeps
them apart, and dropping the connection frees them -- on both dispatch
tiers and for in-process connections.
"""

import contextlib
import gc
import threading
import time
import weakref

import pytest

from repro.core.ids import current_connection
from repro.ip import IPProvider, PowerServant, ProviderConnection
from repro.ip.negotiation import NegotiationServant
from repro.net import LOCALHOST
from repro.parallel.remote import register_fault_farm
from repro.power.toggle import ToggleCountModel
from repro.rmi import JavaCADServer, TcpTransport
from repro.server import DISPATCH_TIERS, AsyncRMIServer

WIDTH = 4
POWER = "MultFastLowPower.power"
MODULE = "MultFastLowPower.module"
SESSION = "session1.s1"


class Probe:
    """Reports on the connection context of the call it serves."""

    def __init__(self, power):
        self.power = power
        self.refs = []

    def record(self, session):
        """Weak references to this connection's context and its power
        model of ``session`` (thread tier: the servant lives in the
        test process)."""
        context = current_connection()
        model, _results = context.sessions(self.power)[session]
        self.refs += [weakref.ref(context), weakref.ref(model)]
        return True

    @staticmethod
    def live_models():
        """Power models alive in the serving process (process tier)."""
        gc.collect()
        return sum(isinstance(thing, ToggleCountModel)
                   for thing in gc.get_objects())


@pytest.fixture(scope="module")
def provider():
    """Built like ``repro serve``: the published multiplier with the
    fault farm bound beside it on the provider's own server."""
    vendor = IPProvider("serve@test")
    vendor.publish_multiplier(WIDTH, training_patterns=40)
    register_fault_farm(vendor.server)
    power = vendor.server.registry.lookup(POWER).servant
    vendor.server.rebind("probe", Probe(power),
                         ["record", "live_models"])
    return vendor


@contextlib.contextmanager
def serving(core, tier, workers=2):
    server = AsyncRMIServer(core, dispatch=tier, dispatch_workers=workers)
    host, port = server.start()
    try:
        yield server, host, port
    finally:
        server.stop()


@contextlib.contextmanager
def tenant(host, port):
    transport = TcpTransport(host, port)
    try:
        yield transport
    finally:
        transport.close()


def wait_until_closed(server):
    deadline = time.monotonic() + 10
    while server.stats.snapshot()["connections_open"]:
        assert time.monotonic() < deadline, "connections never closed"
        time.sleep(0.01)


def first_calls(transport, a, b):
    """A fresh tenant's first power buffer and its own product."""
    count = transport.invoke(POWER, "power_buffer", (SESSION, [[a, b]]))
    # b alone: the product needs this tenant's a, which it has not sent.
    early = transport.invoke(MODULE, "handle_event", (SESSION, "b", b))
    late = transport.invoke(MODULE, "handle_event", (SESSION, "a", a))
    return count, early, [tuple(emission) for emission in late]


@pytest.mark.parametrize("tier", DISPATCH_TIERS)
def test_tenants_of_one_server_never_share_session_state(provider, tier):
    operands = [(2, 3), (5, 7), (9, 11), (13, 1), (6, 6)]
    seen = {}
    with serving(provider.server, tier) as (_server, host, port):
        for index in range(3):  # one after another
            with tenant(host, port) as transport:
                seen[index] = first_calls(transport, *operands[index])
        barrier = threading.Barrier(2)

        def concurrent(index):
            with tenant(host, port) as transport:
                barrier.wait(timeout=10)
                seen[index] = first_calls(transport, *operands[index])

        threads = [threading.Thread(target=concurrent, args=(index,))
                   for index in (3, 4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    assert [seen[index][0] for index in range(5)] == [1] * 5
    assert [seen[index][1:] for index in range(5)] == [
        ([], [("o", a * b)]) for a, b in operands]


@pytest.mark.parametrize("tier", DISPATCH_TIERS)
def test_two_tenants_keep_their_own_negotiation(tier):
    core = JavaCADServer("negotiation.provider")
    core.bind("negotiation", NegotiationServant(list_price=10.0),
              NegotiationServant.REMOTE_METHODS)
    # One worker: on the process tier both tenants meet one servant.
    with serving(core, tier, workers=1) as (_server, host, port):
        with tenant(host, port) as first, tenant(host, port) as second:
            mine = first.invoke("negotiation", "open_session", (100,))
            assert first.invoke("negotiation", "counter_offer",
                                (mine, 5.0)) == pytest.approx(8.5)
            # Both tenants draw the same first negotiation id.
            theirs = second.invoke("negotiation", "open_session", (100,))
            assert theirs == mine == "neg1"
            assert first.invoke("negotiation", "quote",
                                (mine,)) == pytest.approx(8.5)
            assert second.invoke("negotiation", "quote",
                                 (theirs,)) == pytest.approx(10.0)


class TestNothingOutlivesItsConnection:
    """Connect, call, disconnect -- without ``reset``: each cycle's
    tenant leaves a power session behind, under its own name."""

    CYCLES = 1000

    @staticmethod
    def cycle(host, port, index, *then):
        session = f"session{index}.s1"
        with tenant(host, port) as transport:
            transport.invoke(POWER, "power_buffer",
                             (session, [[index % 16, 3]]))
            for method in then:
                transport.invoke("probe", method, (session,))

    def test_thread_tier(self, provider):
        probe = provider.server.registry.lookup("probe").servant
        probe.refs.clear()
        with serving(provider.server, "thread") as (server, host, port):
            for index in range(self.CYCLES):
                self.cycle(host, port, index, "record")
            wait_until_closed(server)
            gc.collect()
            alive = [ref for ref in probe.refs if ref() is not None]
        assert len(probe.refs) == 2 * self.CYCLES
        assert alive == []

    def test_process_tier(self, provider):
        def live_models():
            # Two tenants at once: one per worker, in slot order.
            with tenant(host, port) as first, tenant(host, port) as second:
                return [transport.invoke("probe", "live_models")
                        for transport in (first, second)]

        with serving(provider.server, "process") as (server, host, port):
            before = live_models()
            for index in range(self.CYCLES):
                self.cycle(host, port, index)
            wait_until_closed(server)
            after = live_models()
        assert after == before


class _HeldHandOff:
    """Stands in for a dispatch thread's event loop: keeps the thread
    inside its hand-off until ``release`` is set, and keeps what it was
    handed for the test to run."""

    def __init__(self):
        self.handed = threading.Event()
        self.release = threading.Event()
        self.call = None

    def call_soon_threadsafe(self, callback, *args):
        self.call = callback, args
        self.handed.set()
        self.release.wait(10)


class _AbortedConnection:
    """A connection aborted before its queued frame was served."""

    closed = True

    def replied(self, reply):
        self.reply = reply


def test_a_dispatch_thread_holds_no_connection_past_its_hand_off():
    """Handing a reply to the loop wakes it and lets the GIL go, so the
    dispatch thread may not run again before the client has its reply
    and closes: meanwhile it must not keep the connection (whose context
    holds its servant state) alive."""
    server = AsyncRMIServer(JavaCADServer("hand-off"))
    conn = _AbortedConnection()
    conn_ref = weakref.ref(conn)
    server._queue.put((conn, b"frame"))
    server._queue.put(None)
    loop = _HeldHandOff()
    thread = threading.Thread(target=server._dispatch_thread, args=(loop,))
    thread.start()
    try:
        assert loop.handed.wait(10)
        callback, args = loop.call
        callback(*args)  # the loop writes the reply
        assert conn.reply is None
        loop.call = callback = args = conn = None
        assert conn_ref() is None
    finally:
        loop.release.set()
        thread.join(10)


class TestInProcessConnections:
    @staticmethod
    def buffered(connection):
        stub = connection.stub(POWER, PowerServant.REMOTE_METHODS)
        return stub.power_buffer(SESSION, [[1, 2]])

    @staticmethod
    def state_refs(connection, provider):
        context = connection.base_transport.context
        power = provider.server.registry.lookup(POWER).servant
        model, _results = context.sessions(power)[SESSION]
        return weakref.ref(context), weakref.ref(model)

    def test_two_connections_with_one_session_name_stay_apart(
            self, provider):
        first = ProviderConnection(provider, LOCALHOST, session="session1")
        second = ProviderConnection(provider, LOCALHOST, session="session1")
        assert [self.buffered(first), self.buffered(second),
                self.buffered(first)] == [1, 1, 2]

    def test_dropping_the_connection_frees_its_state(self, provider):
        connection = ProviderConnection(provider, LOCALHOST)
        assert self.buffered(connection) == 1
        refs = self.state_refs(connection, provider)
        del connection
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_closing_the_transport_frees_its_state(self, provider):
        connection = ProviderConnection(provider, LOCALHOST)
        self.buffered(connection)
        refs = self.state_refs(connection, provider)
        connection.transport.close()
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        # A later call starts a fresh session.
        assert self.buffered(connection) == 1
