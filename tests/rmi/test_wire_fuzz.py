"""Hostile-wire fuzz for the frame decoders.

A peer controls every byte of a frame.  Whatever arrives, ``unmarshal``,
``decode_request`` and the reply decoders answer with a value or a
:class:`MarshalError` -- never another exception type (a traceback in
the serving loop), never a hang (hypothesis's per-example deadline).
And ``unmarshal``, which decodes logic runs packed before scanning,
answers exactly what its plain scan-and-walk path alone does.
"""

import importlib
import json
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.behav.stream import Frame
from repro.core import Logic, MarshalError, Word
from repro.estimation import NullValue, ParamValue
from repro.faults import DetectionTable
from repro.rmi.marshal import (_UNPACKED, _VALUE_CODECS, marshal,
                               register_value_type, unmarshal)
from repro.rmi.protocol import (AuthRequest, BatchReply, BatchRequest,
                                CallReply, CallRequest, decode_request)

from .reference_marshal import reference_marshal

MARSHAL = importlib.import_module("repro.rmi.marshal")
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

# Frames whose logic runs the decoder packs.
RUN_FRAMES = (
    marshal([[Logic(bit % 4) for bit in range(row, row + 8)]
             for row in range(4)]),
    CallRequest("ip", "evaluate", ([Logic.ONE, Logic.ZERO] * 4,
                                   (Logic.X, Logic.Z),
                                   frozenset({Logic.ONE})),
                call_id=6).encode(),
    CallReply(7, True, TABLE).encode(),
    marshal({Logic.ONE: Logic.ZERO, "pattern": PATTERN, "row": [Logic.X]}),
)

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
    other = draw(st.sampled_from(FRAMES + RUN_FRAMES))
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

NODE = b'{"$t":"logic","v":1}'
RUN = b"[" + NODE + b',{"$t":"logic","v":0}]'
# Text that lands a run (or a node, or a packing token's look-alike)
# inside a string, after a backslash, next to a digit or a bracket.
SNIPPETS = [RUN, NODE, b"[" + NODE + b"]", b'"\\u0004"', b'"\\u00041"',
            b"\\", b'"', b"1", b"[", b"]", b",", b"[[", b"]]"]


def insert(draw, frame):
    index = draw(st.integers(0, len(frame)))
    return frame[:index] + draw(st.sampled_from(SNIPPETS)) + frame[index:]


@st.composite
def mutated_frames(draw, frames=FRAMES, mutations=MUTATIONS):
    frame = draw(st.sampled_from(frames))
    for _ in range(draw(st.integers(1, 3))):
        frame = draw(st.sampled_from(mutations))(draw, frame)
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


# -- logic runs: the packed decode against the plain one ---------------------

def type_tree(value):
    """``value``'s type and, for a container, its elements' type trees."""
    if isinstance(value, (list, tuple)):
        return type(value), tuple(map(type_tree, value))
    if isinstance(value, (set, frozenset)):
        return type(value), tuple(sorted(map(type_tree, value), key=repr))
    if isinstance(value, dict):
        return type(value), tuple((type_tree(key), type_tree(item))
                                  for key, item in value.items())
    return type(value)


def outcome(decode, data):
    """What ``decode`` answered: a value as its re-marshalled bytes and
    type tree, a refusal as its exact text."""
    try:
        value = decode(data)
    except MarshalError as exc:
        return f"MarshalError: {exc}"
    try:
        return marshal(value), type_tree(value)
    except MarshalError as exc:
        return f"not marshallable: {exc}", type_tree(value)


def packed_and_plain(data):
    """``outcome(unmarshal, data)``, then the same with packing off: the
    ``json.loads``-and-walk path alone, called at the same depth (a
    refusal for running out of stack names the JSON level it ran out
    at)."""
    packed = outcome(unmarshal, data)
    with mock.patch.object(MARSHAL, "_decode_packed",
                           lambda text: _UNPACKED):
        return packed, outcome(unmarshal, data)


def nested_lists(depth, inner):
    return b'{"$t":"list","v":[' * depth + inner + b"]}" * depth


# Each puts a run (or a token's look-alike) where packing must not
# change the answer.
TARGETED = {
    "node-inside-a-string": b'{"$t":"list","v":["a' + RUN + b'b"]}',
    "escaped-node-in-a-string":
        b'{"$t":"list","v":["[{\\"$t\\":\\"logic\\",\\"v\\":1}]"]}',
    "after-a-backslash": b'{"$t":"list","v":["\\' + RUN + b'"]}',
    "after-an-escaped-backslash": b'{"$t":"list","v":["\\\\' + RUN + b'"]}',
    "digit-before": b'{"$t":"list","v":[1' + RUN + b"]}",
    "digit-after": b'{"$t":"list","v":' + RUN + b"2}",
    "literal-u0004": b'{"$t":"list","v":["\\u0004",{"$t":"list","v":'
                     + RUN + b"}]}",
    "u0004-as-a-list-value": b'{"$t":"list","v":"\\u00041"}',
    # A look-alike where a token is consumed, beside a run that packs
    # but is not consumed: the counts agree, so only the refusal to
    # pack a text holding the escape keeps the look-alike a string.
    "u0004-beside-an-unconsumed-run":
        b'{"$t":"list","v":[{"$t":"list","v":"\\u00041"},'
        b'{"$t":"dict","v":[[' + NODE + b"]]}]}",
    "run-as-a-dict-pair": b'{"$t":"dict","v":[' + RUN + b"]}",
    "run-as-dict-pairs": b'{"$t":"dict","v":' + RUN + b"}",
    "one-element-pair": b'{"$t":"dict","v":[[' + NODE + b"]]}",
    "run-as-a-dict-key": b"{" + RUN + b":1}",
    "run-as-a-codec-value": b'{"$t":"x:frame","v":' + RUN + b"}",
    "run-as-a-table-value": b'{"$t":"x:detection-table","v":' + RUN + b"}",
    "run-as-word-value": b'{"$t":"word","v":' + RUN + b',"w":4}',
    "run-as-word-width": b'{"$t":"word","v":1,"w":' + RUN + b"}",
    "run-as-logic-value": b'{"$t":"logic","v":' + RUN + b"}",
    "run-as-bytes-value": b'{"$t":"bytes","v":' + RUN + b"}",
    "run-as-a-tag": b'{"$t":' + RUN + b',"v":1}',
    "run-beside-a-duplicate-value":
        b'{"$t":"list","v":' + RUN + b',"v":[1]}',
    "bare-run": RUN,
    "run-at-level-32": nested_lists(31, b'{"$t":"list","v":' + RUN + b"}"),
    "run-at-level-33": nested_lists(32, b'{"$t":"list","v":' + RUN + b"}"),
    "5000-deep-brackets": b"[" * 5000 + RUN + b"]" * 5000,
    "5000-deep-list-nodes": nested_lists(5000, RUN),
}


class TestPackedRuns:
    """``unmarshal`` answers every input as its plain path does: the
    same value (by its bytes and element types) or the same refusal,
    word for word."""

    @given(mutated_frames(RUN_FRAMES, MUTATIONS + (insert,)))
    def test_mutated_run_frames(self, data):
        packed, plain = packed_and_plain(data)
        assert packed == plain

    @pytest.mark.parametrize("data", TARGETED.values(), ids=TARGETED.keys())
    def test_targeted_inserts(self, data):
        packed, plain = packed_and_plain(data)
        assert packed == plain

    def test_a_token_look_alike_is_a_string(self):
        """Only packing makes tokens: a string sent as ``"\\u0004..."``
        stays a string, refused where a list belongs."""
        assert unmarshal(b'{"$t":"list","v":["\\u00041"]}') == ["\x041"]
        with pytest.raises(MarshalError) as refusal:
            unmarshal(TARGETED["u0004-as-a-list-value"])
        assert str(refusal.value) == "malformed wire data: '\\x041'"

    def test_unmutated_run_frames_decode_as_their_values(self):
        for data in RUN_FRAMES:
            packed, plain = packed_and_plain(data)
            assert packed == plain == (data, packed[1])


class Sealed:
    """A value whose codec carries a whole frame, so decoding one
    decodes again from inside ``from_wire``."""

    def __init__(self, value):
        self.value = value


def _seal(sealed):
    return marshal(sealed.value).decode()


def _unseal(text):
    return Sealed(unmarshal(text.encode()))


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

    def test_decode_on_eight_threads_with_reentry(self):
        """Packing keeps its count per call: eight threads decode frames
        that pack, frames that fall back and frames that are refused,
        some of them re-entering ``unmarshal`` from a codec, and every
        outcome is the single-threaded one."""
        register_value_type("sealed-test", Sealed, _seal, _unseal)
        frames = list(RUN_FRAMES) + [
            marshal([Sealed([Logic.ONE, Logic.X]), [Logic.Z, Logic.ZERO]]),
            marshal([Sealed({Logic.ONE: Logic.ZERO}), [Logic.ONE]]),
            # The inner decode consumes one token, the outer packs one
            # it leaves unconsumed: one shared count would agree.
            b'{"$t":"list","v":[' + marshal(Sealed([Logic.ONE]))
            + b',{"$t":"dict","v":[[' + NODE + b"]]}]}",
            marshal({Logic.ONE: Logic.ZERO}),
            TARGETED["literal-u0004"], TARGETED["one-element-pair"],
            TARGETED["run-as-word-value"], TARGETED["run-at-level-33"],
            TARGETED["run-as-a-codec-value"]]
        expected = []
        for data in frames:
            packed, plain = packed_and_plain(data)
            assert packed == plain
            expected.append(packed)
        assert any(type(answer) is str for answer in expected)
        wrong = []

        def worker():
            try:
                for _ in range(100):
                    for data, answer in zip(frames, expected):
                        if outcome(unmarshal, data) != answer:
                            wrong.append(data)
            except Exception as exc:  # reported by the assert below
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
