"""Differential: the frame codec against its golden references.

Frame sizes feed the virtual clock, so a faster codec must write and
read the same bytes.  Two checks, one per direction:

* every frame a message writes (CALL, reply, BATCH, batch-reply, AUTH)
  is ``reference_marshal(message.to_wire())`` byte for byte, and a
  frame the reference refuses is refused in the same words -- over
  generated messages with non-``str`` object names, ``bool`` fields,
  ``int`` and ``str`` subclasses, unmarshallable arguments and
  arguments nested around the 32-level limit, alone and inside a BATCH;
* every decoder answers the wire fuzz's mutated frames and malformed
  trees with what the decoder before the per-node short-circuits
  answers (``reference_decode.py``): the same value with the same
  element types, or the same refusal text.
"""

import enum
import json
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Logic, MarshalError, Word
from repro.rmi.marshal import marshal, unmarshal
from repro.rmi.protocol import (AuthRequest, BatchReply, BatchRequest,
                                CallReply, CallRequest, decode_request)

from . import reference_decode
from .reference_marshal import reference_marshal
from .test_wire_fuzz import json_trees, mutated_frames, type_tree


class Count(int):
    """An int subclass whose own repr the wire must not print."""

    def __repr__(self):
        return f"Count({int(self)})"


class Name(str):
    """A str subclass (an object name or a key that is not a ``str``)."""


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 7


class Opaque:
    """Nothing the whitelist lets across."""

    def __repr__(self):
        return "Opaque()"


hashable = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True), st.text(max_size=6),
    st.sampled_from(list(Logic)), st.sampled_from(list(Level)),
    st.integers(-5, 5).map(Count), st.text(max_size=4).map(Name),
    st.binary(max_size=4),
    st.builds(Word, st.integers(0, 15), st.just(4)),
    st.just(Word.unknown(3)))
leaves = st.one_of(hashable, st.just(Opaque()))
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(hashable, children, max_size=4),
        st.frozensets(hashable, max_size=3),
        st.sets(st.one_of(st.integers(-3, 3), st.text(max_size=3)),
                max_size=3)),
    max_leaves=12)

ids = st.one_of(st.integers(0, 2 ** 40), st.integers(0, 9).map(Count),
                st.booleans())
calls = st.builds(
    CallRequest,
    object_name=st.one_of(st.text(max_size=8), st.integers(),
                          st.text(max_size=4).map(Name), values),
    method=st.one_of(st.text(max_size=8), st.booleans()),
    args=st.lists(values, max_size=3).map(tuple),
    kwargs=st.dictionaries(st.text(max_size=4), values, max_size=3),
    call_id=ids,
    oneway=st.one_of(st.booleans(), st.integers(0, 1)))
replies = st.builds(
    CallReply, call_id=ids, ok=st.booleans(), result=values,
    error=st.one_of(st.none(), st.text(max_size=12)))
batches = st.builds(
    BatchRequest, calls=st.lists(calls, min_size=1, max_size=3).map(tuple),
    batch_id=ids)
batch_replies = st.builds(
    BatchReply, batch_id=ids,
    replies=st.lists(replies, max_size=3).map(tuple))
auths = st.builds(AuthRequest, token=st.one_of(st.text(max_size=12), values),
                  call_id=ids)
messages = st.one_of(calls, replies, batches, batch_replies, auths)


def written(message):
    """What ``message.encode()`` answered: bytes or the refusal text."""
    try:
        return message.encode()
    except MarshalError as exc:
        return f"MarshalError: {exc}"


def referenced(message):
    """What the reference marshaller answers for the same frame."""
    try:
        return reference_marshal(message.to_wire())
    except MarshalError as exc:
        return f"MarshalError: {exc}"


def nested(depth, leaf):
    """``leaf`` inside ``depth`` lists."""
    for _ in range(depth):
        leaf = [leaf]
    return leaf


class TestEncode:
    @settings(deadline=None)
    @given(messages)
    def test_every_frame_is_the_reference_bytes(self, message):
        assert written(message) == referenced(message)

    @pytest.mark.parametrize("depth", range(28, 35))
    def test_nesting_around_the_limit_alone_and_in_a_batch(self, depth):
        """A CALL's arguments start two levels down and a BATCH's
        calls two more: the refusal fires at the reference's level."""
        for leaf in (7, "x", Logic.ONE, {"k": 1.5}, Opaque()):
            call = CallRequest("o", "m", (nested(depth, leaf),),
                               {"kw": nested(depth - 1, leaf)}, call_id=1)
            reply = CallReply(2, True, nested(depth, leaf))
            frames = (call, reply, BatchRequest((call,), batch_id=3),
                      BatchReply(4, (reply, reply)),
                      AuthRequest(nested(depth, leaf), call_id=5))
            for message in frames:
                assert written(message) == referenced(message)
        # The limit is reached inside this range, on both sides of it.
        outcomes = {type(written(CallReply(1, True, nested(depth, 7))))
                    for depth in range(28, 35)}
        assert outcomes == {bytes, str}

    def test_a_refusal_names_the_frame(self):
        call = CallRequest("o", "m", (Opaque(),), call_id=1)
        assert written(call) == referenced(call)
        assert "not marshallable" in written(call)
        reply = CallReply(1, True, 10 ** 5000)
        with pytest.raises(ValueError):
            written(reply)  # int() refuses the digits on both sides
        with pytest.raises(ValueError):
            referenced(reply)
        with pytest.raises(MarshalError, match="at least one call"):
            BatchRequest((), batch_id=1).encode()


def shape(value):
    """A decoded value as comparable data: a message's fields one by
    one, anything else as its type tree and its marshalled bytes (NaN
    compares by its text there)."""
    if is_dataclass(value):
        return type(value), tuple((item.name, shape(getattr(value, item.name)))
                                  for item in fields(value))
    if isinstance(value, tuple) and any(map(is_dataclass, value)):
        return tuple, tuple(map(shape, value))
    try:
        data = marshal(value)
    except MarshalError as exc:
        data = f"not marshallable: {exc}"
    return type_tree(value), data


LIVE = {
    "unmarshal": unmarshal,
    "decode_request": decode_request,
    "CallRequest.decode": CallRequest.decode,
    "CallReply.decode": CallReply.decode,
    "BatchRequest.decode": BatchRequest.decode,
    "BatchReply.decode": BatchReply.decode,
    "AuthRequest.decode": AuthRequest.decode,
}


def answers(decode, data):
    """What ``decode`` answered for ``data``.  Any exception counts by
    its type and text: a foreign shape a codec accepts can still raise
    while a refusal prints it (totality is ``test_wire_fuzz.py``'s
    subject; here both decoders must fail alike)."""
    try:
        return shape(decode(data))
    except Exception as exc:  # compared, not swallowed
        return f"{type(exc).__name__}: {exc}"


def same_answers(data):
    for name, decode in LIVE.items():
        assert answers(decode, data) \
            == answers(reference_decode.DECODERS[name], data), name


class TestDecode:
    @settings(deadline=None)
    @given(mutated_frames())
    def test_mutated_frames(self, data):
        same_answers(data)

    @settings(deadline=None)
    @given(json_trees)
    def test_malformed_trees(self, tree):
        same_answers(json.dumps(tree).encode())

    @settings(deadline=None)
    @given(messages)
    def test_valid_frames(self, message):
        data = written(message)
        if isinstance(data, bytes):
            same_answers(data)

    @pytest.mark.parametrize("data", [
        # A repeated key: the first value is decoded (and refused)
        # although the second one wins.
        b'{"$t":"dict","v":[["a",{"$t":"nope"}],["a",1]]}',
        b'{"$t":"dict","v":[["a",1],["a",2],[true,3],[1,4]]}',
        # Pairs that are not two-element lists.
        b'{"$t":"dict","v":["ab",[1,2]]}',
        b'{"$t":"dict","v":[[1]]}',
        b'{"$t":"dict","v":[[1,2,3]]}',
        b'{"$t":"dict","v":[7]}',
        b'{"$t":"dict","v":[{"$t":"logic","v":1}]}',
        b'{"$t":"dict","v":{"x":1,"y":2}}',
        b'{"$t":"dict","v":"ab"}',
        # Unhashable keys.
        b'{"$t":"dict","v":[[[1],2]]}',
        b'{"$t":"dict","v":[[{"a":1},2]]}',
        # Whitespace and trailing data around a valid frame.
        b' {"$t":"list","v":[1]}',
        b'{"$t":"list","v":[1]} ',
        b'{"$t":"list","v":[1]}x',
        b"",
        b"   ",
    ], ids=repr)
    def test_targeted(self, data):
        same_answers(data)

    @pytest.mark.parametrize("depth", range(29, 35))
    def test_dicts_around_the_limit(self, depth):
        for inner in (b'[["a",1]]', b"[[1]]", b"[]", b"7",
                      b'[["a",1],["a",2]]'):
            data = (b'{"$t":"list","v":[' * depth
                    + b'{"$t":"dict","v":' + inner + b"}"
                    + b"]}" * depth)
            same_answers(data)


def table_frame(component=b'"c"', pattern=b'{"$t":"logic","v":1}',
                row=b'{"$t":"list","v":[{"$t":"tuple","v":['
                    b'{"$t":"logic","v":1}]},{"$t":"list","v":["f0"]}]}'):
    """A batch-reply frame carrying one detection table, with the given
    wire text in place of its component, its first input value and its
    one row."""
    return (b'{"$t":"dict","v":[["kind","batch-reply"],["id",2],'
            b'["replies",{"$t":"tuple","v":[{"$t":"dict","v":['
            b'["kind","reply"],["id",1],["ok",true],["result",'
            b'{"$t":"x:detection-table","v":{"$t":"dict","v":['
            b'["component",' + component + b'],'
            b'["input",{"$t":"tuple","v":[' + pattern + b']}],'
            b'["fault_free",{"$t":"tuple","v":[{"$t":"logic","v":0}]}],'
            b'["rows",{"$t":"list","v":[' + row + b']}]]}}],'
            b'["error",null]]}]}]]}')


class TestHostileTables:
    """A detection table in any shape but the one its codec writes is
    refused as malformed wire data by every decoder.  The first frame
    is the one hypothesis found: a string where a ``Logic`` belongs
    decoded, and ``decode_request`` then raised ``AttributeError`` from
    the table's repr while it wrote its "not a call request" refusal."""

    @pytest.mark.parametrize("data", [
        pytest.param(table_frame(pattern=b'"1"'), id="str-input"),
        pytest.param(table_frame(pattern=b"1"), id="int-input"),
        pytest.param(table_frame(component=b"7"), id="int-component"),
        pytest.param(table_frame(component=b'{"$t":"logic","v":1}'),
                     id="logic-component"),
        pytest.param(table_frame(
            row=b'{"$t":"list","v":[{"$t":"tuple","v":["1"]},'
                b'{"$t":"list","v":["f0"]}]}'), id="str-in-row-pattern"),
        pytest.param(table_frame(
            row=b'{"$t":"list","v":[{"$t":"tuple","v":['
                b'{"$t":"logic","v":1}]},{"$t":"list","v":[5]}]}'),
            id="int-fault-name"),
        pytest.param(table_frame(
            row=b'{"$t":"list","v":[{"$t":"list","v":['
                b'{"$t":"logic","v":1}]},{"$t":"list","v":["f0"]}]}'),
            id="row-pattern-list"),
        pytest.param(table_frame(
            row=b'{"$t":"list","v":[{"$t":"tuple","v":['
                b'{"$t":"logic","v":1}]},{"$t":"set","v":["f0"]}]}'),
            id="row-names-set"),
        pytest.param(table_frame(
            row=b'{"$t":"list","v":[{"$t":"tuple","v":[]}]}'),
            id="one-element-row"),
        pytest.param(table_frame(
            row=b'{"$t":"tuple","v":[{"$t":"tuple","v":[]},'
                b'{"$t":"list","v":[]}]}'), id="tuple-row"),
        pytest.param(table_frame(row=b'"ab"'), id="str-row"),
    ])
    def test_refused_by_every_decoder(self, data):
        for name, decode in LIVE.items():
            with pytest.raises(MarshalError,
                               match="TypeError: a detection table is"):
                decode(data)
        same_answers(data)

    def test_the_written_shape_still_decodes(self):
        table = unmarshal(table_frame())["replies"][0]["result"]
        assert repr(table) == "DetectionTable('c', in=1, 1 rows)"
        assert table.rows == {(Logic.ONE,): frozenset({"f0"})}
