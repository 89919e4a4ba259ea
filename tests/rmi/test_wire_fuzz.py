"""Hostile-wire fuzz for the frame decoders.

A peer controls every byte of a frame.  Whatever arrives, ``unmarshal``,
``decode_request`` and the reply decoders answer with a value or a
:class:`MarshalError` -- never another exception type (a traceback in
the serving loop), never a hang (hypothesis's per-example deadline).
"""

import json
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.behav.stream import Frame
from repro.core import Logic, MarshalError, Word
from repro.estimation import NullValue, ParamValue
from repro.faults import DetectionTable
from repro.rmi.marshal import (_VALUE_CODECS, marshal, register_value_type,
                               unmarshal)
from repro.rmi.protocol import (AuthRequest, BatchReply, BatchRequest,
                                CallReply, CallRequest, decode_request)

from .reference_marshal import reference_marshal

DECODERS = (unmarshal, decode_request, CallRequest.decode, CallReply.decode,
            BatchRequest.decode, BatchReply.decode, AuthRequest.decode)

TABLE = DetectionTable(
    "alu", (Logic.ONE, Logic.ZERO), (Logic.ZERO, Logic.X),
    {(Logic.ONE, Logic.ONE): {"g1/sa0", "g2/sa1"},
     (Logic.Z, Logic.ZERO): {"n"}})
PATTERN = {"a": Logic.ONE, "b": Logic.ZERO, "cin": Logic.X}
CALLS = (
    CallRequest("probe", "ping", (7,), call_id=1),
    CallRequest("farm", "add_patterns", ("t1", ["10X", "Z01"]),
                {"flush": True}, call_id=2, oneway=True),
    CallRequest("ip", "step", (Word(5, 8), Word.unknown(4), b"\x00\xff",
                               frozenset({1, "x"}), 2.5, None,
                               Frame([1, -2, 3], 8000.0)), call_id=3),
)
REPLIES = (
    CallReply(1, True, 8),
    CallReply(2, True, TABLE),
    CallReply(3, True, [ParamValue("area", 12.5, "eq-gates", 5.0, "sheet"),
                        NullValue("power")]),
    CallReply(4, False, None, "RemoteError: no such object 'x'"),
)
FRAMES = tuple(
    [message.encode() for message in CALLS + REPLIES]
    + [BatchRequest(CALLS, batch_id=9).encode(),
       BatchReply(9, REPLIES).encode(),
       AuthRequest("secret-token", call_id=5).encode()])

TAGS = [b'"logic"', b'"word"', b'"tuple"', b'"list"', b'"set"', b'"dict"',
        b'"bytes"', b'"x:frame"', b'"x:paramvalue"', b'"x:detection-table"',
        b'"x:bogus"', b'"nope"', b"5", b"null", b'["list"]']


def survives(data):
    """Every decoder answers ``data`` with a value or a MarshalError."""
    for decode in DECODERS:
        try:
            decode(data)
        except MarshalError:
            pass


# -- byte-level mutations of valid frames -----------------------------------

# Each takes hypothesis's ``draw`` and a frame; one that finds nothing
# to work on (an earlier mutation cut it away) returns the frame as is.

def truncate(draw, frame):
    return frame[:draw(st.integers(0, len(frame)))]


def flip(draw, frame):
    if not frame:
        return frame
    index = draw(st.integers(0, len(frame) - 1))
    return frame[:index] + bytes([draw(st.integers(0, 255))]) \
        + frame[index + 1:]


def splice(draw, frame):
    other = draw(st.sampled_from(FRAMES))
    return frame[:draw(st.integers(0, len(frame)))] \
        + other[draw(st.integers(0, len(other))):]


def occurrences(frame, needle):
    found, start = [], frame.find(needle)
    while start != -1:
        found.append(start)
        start = frame.find(needle, start + 1)
    return found


def duplicate_key(draw, frame):
    """A second ``"$t"`` or ``"v"`` in some node (JSON keeps the last)."""
    key = draw(st.sampled_from([b'"$t":', b'"v":']))
    found = occurrences(frame, key)
    if not found:
        return frame
    index = draw(st.sampled_from(found))
    junk = draw(st.sampled_from(TAGS + [b"[]", b"{}", b"7", b'"zz"']))
    return frame[:index] + key + junk + b"," + frame[index:]


def swap_tag(draw, frame):
    found = [(index, tag) for tag in TAGS
             for index in occurrences(frame, b'"$t":' + tag)]
    if not found:
        return frame
    index, old = draw(st.sampled_from(found))
    start = index + len(b'"$t":')
    return frame[:start] + draw(st.sampled_from(TAGS)) \
        + frame[start + len(old):]


MUTATIONS = (truncate, flip, splice, duplicate_key, swap_tag)


@st.composite
def mutated_frames(draw):
    frame = draw(st.sampled_from(FRAMES))
    for _ in range(draw(st.integers(1, 3))):
        frame = draw(st.sampled_from(MUTATIONS))(draw, frame)
    return frame


# -- well-formed JSON carrying a malformed tagged tree ----------------------

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(),
    st.sampled_from(["", "zz", "00ff", "call", "reply", "batch",
                     "batch-reply", "auth", "logic", "x:frame"]))
node_keys = st.sampled_from(
    ["$t", "v", "w", "kind", "id", "calls", "replies", "args", "kwargs",
     "object", "method", "oneway", "ok", "result", "error", "token",
     "samples", "rate", "rows"])
tag_names = st.sampled_from([json.loads(tag) for tag in TAGS])
json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(node_keys, children, max_size=4),
        st.fixed_dictionaries({"$t": tag_names, "v": children}),
        st.fixed_dictionaries({"$t": tag_names, "v": children,
                               "w": children}),
        st.fixed_dictionaries(
            {"$t": st.just("dict"),
             "v": st.lists(st.lists(children, max_size=3), max_size=4)})),
    max_leaves=25)


class TestTotality:
    @given(st.binary(max_size=256))
    def test_arbitrary_bytes(self, data):
        survives(data)

    @given(mutated_frames())
    def test_mutated_frames(self, data):
        survives(data)

    @given(json_trees)
    def test_malformed_trees(self, tree):
        survives(json.dumps(tree).encode())

    @pytest.mark.parametrize("data, cause", [
        (b'{"$t":"logic","v":7}', KeyError),
        (b'{"$t":"logic","v":[1]}', TypeError),
        (b'{"$t":"word"}', KeyError),
        (b'{"$t":"word","v":1,"w":0}', ValueError),
        (b'{"$t":"tuple"}', KeyError),
        (b'{"$t":5}', None),
        (b'{"$t":["list"]}', TypeError),
        (b'{"$t":"dict","v":[[1]]}', ValueError),
        (b'{"$t":"dict","v":7}', TypeError),
        (b'{"$t":"bytes","v":"zz"}', ValueError),
        (b'{"$t":"bytes","v":5}', TypeError),
        (b'{"$t":"dict","v":[[{"$t":"list","v":[]},1]]}', TypeError),
        (b'{"$t":"set","v":[{"$t":"dict","v":[]}]}', TypeError),
        (b'{"$t":"x:frame","v":3}', TypeError),
        (b'{"$t":"x:detection-table","v":{"$t":"dict","v":[]}}', KeyError),
        pytest.param(b"[" * 5000, RecursionError, id="5000-open-brackets"),
        pytest.param(b'{"$t":"list","v":[' * 5000, RecursionError,
                     id="5000-open-list-nodes"),
    ])
    def test_malformed_trees_raise_marshal_error(self, data, cause):
        with pytest.raises(MarshalError) as refusal:
            unmarshal(data)
        if cause is not None:
            assert isinstance(refusal.value.__cause__, cause)

    def test_integer_literal_past_the_digit_limit(self):
        """``int()`` refuses it with a plain ValueError where the
        interpreter caps integer string conversion (3.11+)."""
        survives(b"1" * 5000)
        survives(b'{"$t":"list","v":[' + b"1" * 5000 + b"]}")

    @pytest.mark.parametrize("decode, wire", [
        (decode_request, {"kind": "call"}),
        (decode_request, {"kind": "call", "object": "o", "method": "m",
                          "args": 5, "kwargs": {}, "id": 1,
                          "oneway": False}),
        (decode_request, {"kind": "call", "object": "o", "method": "m",
                          "args": (), "kwargs": 5, "id": 1,
                          "oneway": False}),
        (decode_request, {"kind": "batch", "id": 1}),
        (decode_request, {"kind": "batch", "id": 1, "calls": 7}),
        (decode_request, {"kind": "batch", "id": 1,
                          "calls": [{"kind": "call"}]}),
        (decode_request, {"kind": "batch", "calls": [CALLS[0].to_wire()]}),
        (decode_request, {"kind": "auth"}),
        (decode_request, {"kind": "auth", "token": "t"}),
        (CallRequest.decode, {"kind": "call", "id": 1}),
        (BatchRequest.decode, {"kind": "batch", "calls": None, "id": 1}),
        (AuthRequest.decode, {"kind": "auth", "id": 1}),
        (CallReply.decode, {"kind": "reply", "id": 1}),
        (BatchReply.decode, {"kind": "batch-reply", "id": 1}),
        (BatchReply.decode, {"kind": "batch-reply", "id": 1, "replies": 3}),
        (BatchReply.decode, {"kind": "batch-reply", "id": 1,
                             "replies": [{"kind": "reply"}]}),
    ])
    def test_frames_with_missing_or_mistyped_fields(self, decode, wire):
        with pytest.raises(MarshalError, match="malformed"):
            decode(marshal(wire))

    def test_valid_frames_still_decode(self):
        for message in CALLS:
            assert decode_request(message.encode()) == message
        for message in REPLIES:
            assert CallReply.decode(message.encode()) == message
        batch = BatchRequest(CALLS, batch_id=9)
        assert decode_request(batch.encode()) == batch
        assert BatchReply.decode(BatchReply(9, REPLIES).encode()) \
            == BatchReply(9, REPLIES)
        auth = AuthRequest("secret-token", call_id=5)
        assert decode_request(auth.encode()) == auth


class TestThreads:
    def test_marshal_while_a_type_is_registered(self):
        """The dispatch memo is read lock-free on the thread tier's hot
        path: eight threads marshal while a ninth keeps re-registering
        ``Frame`` (which empties the memo), and every output is still
        the reference's."""
        payloads = [
            [Logic.ONE, Logic.ZERO, Logic.X], ["a", "b"], TABLE, PATTERN,
            Frame([1, 2, 3], 2.0), NullValue("power"),
            [0, 1, True, Logic.ONE, 2.5, None, Word(3, 4)],
            CALLS[2].to_wire(), {"s": frozenset({1, 2, (3, Logic.Z)})}]
        expected = [reference_marshal(payload) for payload in payloads]
        _cls, to_wire, from_wire = _VALUE_CODECS["frame"]
        stop = threading.Event()
        wrong = []

        def worker():
            try:
                for _ in range(150):
                    for payload, data in zip(payloads, expected):
                        if marshal(payload) != data \
                                or marshal(unmarshal(data)) != data:
                            wrong.append(payload)
            except Exception as exc:  # reported by the assert below
                wrong.append(exc)

        def registrar():
            while not stop.is_set():
                register_value_type("frame", Frame, to_wire, from_wire)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            ninth = threading.Thread(target=registrar)
            ninth.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            stop.set()
            ninth.join(60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not ninth.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
