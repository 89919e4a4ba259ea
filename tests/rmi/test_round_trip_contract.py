"""One round-trip contract, two wires.

``Transport._round_trip`` is the single place a request frame becomes
an accounted reply; each wire transport supplies only ``_exchange``.
This table runs the same cases over :class:`InProcessTransport` and
:class:`TcpTransport` against the same :class:`JavaCADServer` and
asserts the same return value, exception type, message fragment and
``stats`` deltas on both -- every round trip moves exactly one of the
success counters or ``stats.errors``.

The last test pins the virtual-clock and byte totals of a fixed
in-process sequence.  The numbers were recorded at the commit *before*
the four hand-written invoke bodies collapsed, so the order of clock
operations is a tier-1 fixed point and not only a harness golden.
"""

import dataclasses

import pytest

from repro.core import RemoteError
from repro.core.ids import id_scope
from repro.gates import array_multiplier
from repro.net import VirtualClock
from repro.net.model import WAN
from repro.rmi import (BatchReply, CallRequest, InProcessTransport,
                       JavaCADServer, TcpTransport)
from repro.telemetry import TELEMETRY, telemetry_session


class _Servant:
    def __init__(self):
        self.netlist = array_multiplier(2)

    def add(self, a, b):
        return a + b

    def boom(self):
        raise ValueError("servant exploded")

    def leak(self):
        return self.netlist


METHODS = ("add", "boom", "leak")


@pytest.fixture(scope="module")
def served():
    server = JavaCADServer("contract.test.provider")
    server.bind("math", _Servant(), METHODS)
    host, port = server.serve_tcp()
    try:
        yield server, host, port
    finally:
        server.stop_tcp()


@pytest.fixture(params=["in-process", "tcp"])
def transport(request, served):
    server, host, port = served
    if request.param == "tcp":
        wire = TcpTransport(host, port, timeout=2.0)
    else:
        wire = InProcessTransport(server, WAN)
    try:
        yield wire
    finally:
        wire.close()


def _call(method, *args, oneway=False):
    return lambda wire: wire.invoke("math", method, args, oneway=oneway)


def _mixed_batch(wire):
    replies = wire.invoke_batch([
        CallRequest("math", "add", (1, 2)),
        CallRequest("math", "boom", oneway=True),
        CallRequest("math", "leak"),
        CallRequest("math", "add", (3, 4)),
    ])
    return [(reply.ok, reply.result) for reply in replies]


# (case, action, returned value, error fragment, stats that moved)
CASES = [
    ("ok call", _call("add", 2, 3), 5, None,
     {"calls": 1}),
    ("oneway call", _call("add", 2, 3, oneway=True), None, None,
     {"calls": 1, "oneway_calls": 1}),
    ("error reply", _call("boom"), None, "servant exploded",
     {"errors": 1}),
    ("oneway error reply", _call("boom", oneway=True), None, None,
     {"errors": 1}),
    ("leaky servant", _call("leak"), None, "IP protection",
     {"errors": 1}),
    ("batch with failing inner calls", _mixed_batch,
     [(True, 3), (False, None), (False, None), (True, 7)], None,
     {"calls": 1, "batches": 1, "batched_calls": 4}),
]

BYTE_COUNTERS = {"bytes_sent", "bytes_received"}


@pytest.mark.parametrize("case,action,returned,fragment,moved", CASES,
                         ids=[case[0] for case in CASES])
def test_same_outcome_and_accounting_on_both_wires(
        transport, case, action, returned, fragment, moved):
    if fragment is None:
        assert action(transport) == returned
    else:
        with pytest.raises(RemoteError, match=fragment):
            action(transport)
    stats = dataclasses.asdict(transport.stats)
    counters = {name: value for name, value in stats.items()
                if value and name not in BYTE_COUNTERS}
    assert counters == moved
    # Bytes are success counters: an errored round trip moves none.
    succeeded = "errors" not in moved
    assert (stats["bytes_sent"] > 0) == succeeded
    assert (stats["bytes_received"] > 0) == succeeded


def test_batch_error_replies_name_their_failures(transport):
    replies = transport.invoke_batch([
        CallRequest("math", "boom"), CallRequest("math", "leak")])
    assert "servant exploded" in replies[0].error
    assert "IP protection" in replies[1].error


def test_empty_batch_is_no_round_trip(transport):
    assert transport.invoke_batch([]) == []
    assert transport.stats == type(transport.stats)()


class _ShortBatchServer(JavaCADServer):
    """Answers every BATCH one reply short, on whichever path asks."""

    def dispatch_encoded(self, request, clock=None, shared_host=False):
        reply = BatchReply.decode(
            super().dispatch_encoded(request, clock, shared_host))
        return BatchReply(reply.batch_id, reply.replies[:-1]).encode()


@pytest.mark.parametrize("wire_kind", ["in-process", "tcp"])
def test_short_batch_reply_counts_once_on_both_wires(wire_kind):
    server = _ShortBatchServer("short.batch.provider")
    server.bind("math", _Servant(), METHODS)
    if wire_kind == "tcp":
        wire = TcpTransport(*server.serve_tcp(), timeout=2.0)
    else:
        wire = InProcessTransport(server, WAN)
    try:
        with pytest.raises(RemoteError,
                           match="batch reply carries 1 replies for 2"):
            wire.invoke_batch([CallRequest("math", "add", (1, 2)),
                               CallRequest("math", "add", (3, 4))])
        assert dataclasses.asdict(wire.stats) == {
            **dataclasses.asdict(type(wire.stats)()), "errors": 1}
    finally:
        wire.close()
        server.stop_tcp()


def test_in_process_oneway_failure_is_counted_never_raised(served):
    """The drift this contract closed: TCP counted a failed oneway call
    in ``stats.errors`` and ``rmi.errors``; in process it vanished."""
    server, _host, _port = served
    wire = InProcessTransport(server, WAN)
    with telemetry_session():
        assert wire.invoke("math", "boom", oneway=True) is None
        errors = TELEMETRY.metrics.counter(
            "rmi.errors", labels={"transport": "in-process"}).value
    assert wire.stats.errors == 1
    assert wire.stats.calls == 0
    assert errors == 1


# Totals of the sequence in the last test, recorded at the parent
# commit (df7b04f), where in-process invoke and invoke_batch were two
# hand-written bodies.
PINNED_BYTES_SENT = 1124
PINNED_BYTES_RECEIVED = 684
PINNED_CPU = 0.32293
PINNED_WALL = 5.742127999999999


def test_in_process_clock_and_bytes_are_a_fixed_point(served):
    server, _host, _port = served
    clock = VirtualClock()
    wire = InProcessTransport(server, WAN, clock=clock)
    with id_scope():
        assert wire.invoke("math", "add", (2, 3)) == 5
        assert wire.invoke("math", "add", (4, 5), oneway=True) is None
        wire.invoke_batch([
            CallRequest("math", "add", (1, 2)),
            CallRequest("math", "add", (3, 4), oneway=True)])
        wire.invoke_batch([
            CallRequest("math", "add", (5, 6), oneway=True),
            CallRequest("math", "add", (7, 8), oneway=True)])
    assert dataclasses.asdict(wire.stats) == {
        "calls": 4, "oneway_calls": 2, "errors": 0,
        "batches": 2, "batched_calls": 4,
        "bytes_sent": PINNED_BYTES_SENT,
        "bytes_received": PINNED_BYTES_RECEIVED,
    }
    assert clock.cpu == PINNED_CPU
    assert clock.wall == PINNED_WALL

