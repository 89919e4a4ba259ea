"""The front end's frame splitter, fed frames cut at arbitrary bytes.

A TCP peer decides how its bytes are chunked: a frame may arrive in
one read, across many, or glued to the next one, and a cut may fall
inside the 4-byte length prefix.  Whatever the chunking, a
connection's replies must equal, byte for byte and in order, the
replies to the same frames sent whole -- on both dispatch tiers.  An
oversized prefix arriving mid-stream ends that connection alone, after
the replies to the frames before it, and counts one protocol error.

Every case runs under a deadline: each socket times out, and each
example must finish within hypothesis's per-example deadline.
"""

import contextlib
import socket
import struct
import time
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.ids import next_id
from repro.rmi import JavaCADServer
from repro.rmi.protocol import (MAX_FRAME_BYTES, BatchRequest, CallRequest,
                                encode_frame, frame_length)
from repro.server import DISPATCH_TIERS, AsyncRMIServer

SOCKET_TIMEOUT = 10.0
DEADLINE = timedelta(seconds=10)


class Echo:
    def ping(self, value):
        return value * 2


class SessionIds:
    def next_session_id(self):
        return next_id("session")


def splitter_session():
    server = JavaCADServer("splitter.session")
    server.bind("echo", Echo(), ["ping"])
    server.bind("ids", SessionIds(), ["next_session_id"])
    return server


@pytest.fixture(scope="module", params=DISPATCH_TIERS)
def served(request):
    server = AsyncRMIServer(session_factory=splitter_session,
                            dispatch=request.param,
                            name=f"splitter-{request.param}")
    address = server.start()
    try:
        yield server, address
    finally:
        server.stop()


@contextlib.contextmanager
def raw_connection(address):
    sock = socket.create_connection(address, timeout=SOCKET_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        yield sock
    finally:
        sock.close()


def receive_exactly(sock, count):
    data = bytearray()
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise ConnectionError(f"closed after {len(data)} of "
                                  f"{count} bytes")
        data += chunk
    return bytes(data)


def receive_replies(sock, count):
    """``count`` whole reply frames (prefix included), in order."""
    replies = []
    for _ in range(count):
        header = receive_exactly(sock, 4)
        replies.append(header + receive_exactly(sock, frame_length(header)))
    return replies


def whole_replies(address, frames):
    """The replies to ``frames`` sent in one piece on a new connection."""
    with raw_connection(address) as sock:
        sock.sendall(b"".join(frames))
        return receive_replies(sock, len(frames))


def send_in_pieces(sock, stream, cuts, pauses):
    """Send ``stream`` cut at ``cuts``; pause after the flagged pieces."""
    bounds = [0] + sorted(set(cuts)) + [len(stream)]
    for index, (begin, end) in enumerate(zip(bounds, bounds[1:])):
        sock.sendall(stream[begin:end])
        if pauses[index % len(pauses)]:
            time.sleep(0.002)


def encode(message, call_id):
    """One framed request; ids are explicit so a frame's bytes depend
    on the drawn message alone."""
    if message[0] == "call":
        request = CallRequest("echo", "ping", (message[1],),
                              call_id=call_id)
    elif message[0] == "ids":
        request = CallRequest("ids", "next_session_id", call_id=call_id)
    else:
        request = BatchRequest(
            tuple(CallRequest("echo", "ping", (value,),
                              call_id=call_id * 10 + index)
                  for index, value in enumerate(message[1])),
            batch_id=call_id)
    return encode_frame(request.encode())


MESSAGES = st.lists(
    st.one_of(st.tuples(st.just("call"), st.integers(-10**6, 10**6)),
              st.tuples(st.just("ids")),
              st.tuples(st.just("batch"),
                        st.lists(st.integers(0, 999), min_size=1,
                                 max_size=4))),
    min_size=1, max_size=6)


@st.composite
def split_streams(draw, tail=0):
    """Frames plus cut points anywhere in their concatenation and the
    ``tail`` bytes sent after it."""
    frames = [encode(message, call_id)
              for call_id, message in enumerate(draw(MESSAGES), 1)]
    size = sum(len(frame) for frame in frames) + tail
    cuts = draw(st.lists(st.integers(1, max(1, size - 1)), max_size=12))
    pauses = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    return frames, cuts, pauses


def prefix_cuts_example():
    """Every byte boundary of the first length prefix is a cut."""
    frames = [encode(("call", 7), 1), encode(("batch", [1, 2]), 2),
              encode(("ids",), 3)]
    return frames, [1, 2, 3, 4, 5], [True]


@settings(deadline=DEADLINE)
@given(case=split_streams())
@example(case=prefix_cuts_example())
def test_split_frames_get_the_replies_of_whole_frames(served, case):
    _server, address = served
    frames, cuts, pauses = case
    expected = whole_replies(address, frames)
    with raw_connection(address) as sock:
        send_in_pieces(sock, b"".join(frames), cuts, pauses)
        assert receive_replies(sock, len(frames)) == expected


@settings(deadline=DEADLINE)
@given(case=split_streams(tail=4),
       length=st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1))
def test_an_oversized_prefix_mid_stream_ends_only_its_connection(
        served, case, length):
    server, address = served
    frames, cuts, pauses = case
    expected = whole_replies(address, frames)
    half = len(frames) // 2
    before = server.stats.snapshot()["protocol_errors"]
    with raw_connection(address) as bystander:
        bystander.sendall(b"".join(frames[:half]))
        seen = receive_replies(bystander, half)
        with raw_connection(address) as sock:
            send_in_pieces(sock, b"".join(frames)
                           + struct.pack(">I", length), cuts, pauses)
            assert receive_replies(sock, len(frames)) == expected
            assert sock.recv(1) == b""  # closed without awaiting a body
        bystander.sendall(b"".join(frames[half:]))
        seen += receive_replies(bystander, len(frames) - half)
        assert seen == expected
    assert server.stats.snapshot()["protocol_errors"] == before + 1
