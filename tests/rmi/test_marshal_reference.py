"""Golden-reference differential: the single-pass marshaller against the
two-phase one it replaced (``reference_marshal.py``).

Frame sizes feed the virtual clock, so the bytes are the fixed point:
for every value of the whitelist ``marshal`` must print what
``json.dumps`` printed for the tagged tree, refuse what it refused with
the same words, and ``unmarshal`` must rebuild the same values.
"""

import collections
import enum
import hashlib
import importlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.behav.stream import Frame
from repro.core import Logic, MarshalError, ModuleSkeleton, Word
from repro.estimation import NullValue, ParamValue
from repro.faults import (DetectionTable, build_detection_table,
                          build_fault_list)
from repro.faults.detection import _table_to_wire
from repro.gates import array_multiplier
from repro.gates.corpus import load_bench
from repro.rmi.marshal import _UNPACKED, marshal, unmarshal
from repro.rmi.marshal import _decode_packed as decode_packed
from repro.rmi.protocol import CallRequest, decode_request

from .reference_marshal import reference_marshal, reference_unmarshal

MARSHAL = importlib.import_module("repro.rmi.marshal")

# -- subclasses of the JSON-native types ------------------------------------
# json prints them with the base type's repr, whatever they override.


class LoudInt(int):
    def __repr__(self):
        return "LoudInt!"

    __str__ = __repr__


class LoudFloat(float):
    def __repr__(self):
        return "LoudFloat!"

    __str__ = __repr__


class LoudStr(str):
    def __repr__(self):
        return "LoudStr!"

    __str__ = __repr__


class Colour(enum.IntEnum):
    RED = 0
    GREEN = 1


class Names(list):
    pass


Point = collections.namedtuple("Point", "x y")


class Unmarshallable:
    def __repr__(self):
        return "Unmarshallable()"


# -- strategies over the whole whitelist ------------------------------------

any_text = st.text(st.characters(exclude_categories=()), max_size=12)
"""Every code point: non-ASCII, control characters, lone surrogates."""

plain_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True), any_text,
    st.sampled_from(list(Logic)), st.binary(max_size=6),
    st.builds(Word, st.integers(0, 2 ** 16), st.integers(1, 16)),
    st.builds(Word.unknown, st.integers(1, 64)))
subclass_scalars = st.one_of(
    st.builds(LoudInt, st.integers(-9, 9)),
    st.builds(LoudFloat, st.floats(allow_nan=True, allow_infinity=True)),
    st.builds(LoudStr, any_text), st.sampled_from(list(Colour)))
scalars = plain_scalars | subclass_scalars
hashable_scalars = scalars.filter(lambda value: value == value)

logic_vectors = st.lists(st.sampled_from(list(Logic)), max_size=8)
name_lists = st.lists(any_text, max_size=6)
frames = st.builds(Frame, st.lists(st.integers(-2 ** 15, 2 ** 15),
                                   max_size=6),
                   st.floats(0.5, 96000.0))
tables = st.builds(
    DetectionTable, any_text, logic_vectors.map(tuple),
    logic_vectors.map(tuple),
    st.dictionaries(logic_vectors.map(tuple), name_lists, max_size=4))


def hashables(children):
    return st.one_of(
        st.lists(children, max_size=3).map(tuple),
        st.frozensets(children, max_size=3),
        st.builds(Point, children, children))


hashable = st.recursive(hashable_scalars | frames, hashables, max_leaves=6)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(Names),
        st.builds(Point, children, children),
        st.dictionaries(hashable, children, max_size=4),
        st.dictionaries(any_text, children, max_size=4).map(
            collections.OrderedDict),
        st.dictionaries(hashable, children, max_size=3).map(
            lambda items: collections.defaultdict(list, items)),
        st.builds(ParamValue, any_text, children, any_text,
                  st.none() | st.floats(0, 1), any_text))


leaves = st.one_of(
    scalars, logic_vectors, logic_vectors.map(tuple), name_lists, frames,
    tables, st.builds(NullValue, any_text),
    st.sets(hashable, max_size=4), st.frozensets(hashable, max_size=4))
whitelist = st.recursive(leaves, containers, max_leaves=12)

refused = st.sampled_from([
    Unmarshallable(), array_multiplier(2), ModuleSkeleton("secret"),
    bytearray(b"no"), 1j])
anything = st.recursive(leaves | refused, containers, max_leaves=12)


def outcome(function, argument):
    """What ``function`` answered: its result, or its refusal's text."""
    try:
        return function(argument)
    except MarshalError as exc:
        return f"MarshalError: {exc}"


def nest(value, wrappers):
    for wrap in wrappers:
        value = wrap(value)
    return value


WRAPPERS = [
    lambda value: [value],
    lambda value: (value,),
    lambda value: {"k": value},
    lambda value: ParamValue("area", value),
    lambda value: Names([0, value]),
]


class TestSameBytes:
    @given(whitelist)
    def test_whole_whitelist(self, value):
        data = marshal(value)
        assert data == reference_marshal(value)
        # Bytes again rather than ==, which cannot tell Logic.ONE from
        # 1 from True and calls NaN unequal to itself.
        assert reference_marshal(unmarshal(data)) == data
        assert reference_marshal(reference_unmarshal(data)) == data
        if b"NaN" not in data:
            assert unmarshal(data) == reference_unmarshal(data)

    @given(anything)
    def test_refusals_use_the_same_words(self, value):
        """The first offender found decides the message, so this also
        pins the order elements are visited in."""
        assert outcome(marshal, value) == outcome(reference_marshal, value)

    @given(st.lists(st.sampled_from(WRAPPERS), min_size=28, max_size=36),
           st.sampled_from([[], (), {}, frozenset(), b"", 0, Logic.X,
                            Unmarshallable(), Frame([1])]))
    def test_depth_cap(self, wrappers, leaf):
        """Level 32 is legal (an empty container may sit there), level
        33 is not, whatever sits there."""
        value = nest(leaf, wrappers)
        got = outcome(marshal, value)
        assert got == outcome(reference_marshal, value)
        if isinstance(got, bytes):
            assert outcome(unmarshal, got) == reference_unmarshal(got)

    def test_empty_container_at_depth_32_is_legal(self):
        for empty in ([], (), {}, frozenset()):
            value = nest(empty, [WRAPPERS[0]] * 32)
            data = marshal(value)
            assert data == reference_marshal(value)
            assert unmarshal(data) == value
        with pytest.raises(MarshalError, match="deeply nested"):
            marshal(nest([0], [WRAPPERS[0]] * 32))

    def test_nested_netlist_refusal(self):
        value = {"innocent": [1, (2, array_multiplier(2))]}
        got = outcome(marshal, value)
        assert "netlists never cross" in got
        assert got == outcome(reference_marshal, value)


class TestEmitterPitfalls:
    def test_logic_is_an_int_but_not_on_the_wire(self):
        """Logic.ONE == 1 == True and all three hash alike: a table
        keyed on the value would tag the ints as logic."""
        value = [0, 1, True, Logic.ZERO, Logic.ONE, False, 1.0]
        data = marshal(value)
        assert data == reference_marshal(value)
        assert data == (b'{"$t":"list","v":[0,1,true,{"$t":"logic","v":0},'
                        b'{"$t":"logic","v":1},false,1.0]}')
        assert [type(item) for item in unmarshal(data)] == \
            [int, int, bool, Logic, Logic, bool, float]
        for vector in ([1, 1, 1], [True, True], [Logic.ONE, 1],
                       [1, Logic.ONE], [Logic.ONE, True]):
            assert marshal(vector) == reference_marshal(vector)

    def test_subclasses_print_as_their_base(self):
        value = [LoudInt(7), LoudFloat(0.5), LoudStr("s"), Colour.GREEN,
                 LoudFloat("nan"), LoudFloat("-inf")]
        assert marshal(value) == reference_marshal(value) == \
            b'{"$t":"list","v":[7,0.5,"s",1,NaN,-Infinity]}'

    def test_non_finite_floats(self):
        value = [float("nan"), float("inf"), float("-inf"), -0.0, 1e308 * 10]
        assert marshal(value) == reference_marshal(value) == \
            b'{"$t":"list","v":[NaN,Infinity,-Infinity,-0.0,Infinity]}'

    def test_strings_are_ascii_escaped(self):
        value = ["\x00\x1f\x7f", 'quote" back\\slash', "café €",
                 "\U0001f600", "\ud800 lone", "\t\n\r\b\f"]
        data = marshal(value)
        assert data == reference_marshal(value)
        assert data.isascii()
        assert unmarshal(data) == value

    def test_namedtuple_and_dict_subclasses_encode_as_their_base(self):
        ordered = collections.OrderedDict([("b", 1), ("a", 2)])
        default = collections.defaultdict(int, {"n": 3})
        assert marshal(Point(1, 2)) == marshal((1, 2)) == \
            reference_marshal(Point(1, 2))
        assert marshal(ordered) == marshal({"b": 1, "a": 2}) == \
            reference_marshal(ordered)
        assert marshal(default) == marshal({"n": 3}) == \
            reference_marshal(default)
        assert marshal(Names(["a"])) == marshal(["a"]) == \
            reference_marshal(Names(["a"]))

    @given(st.sets(hashable, max_size=6))
    def test_set_order_is_the_tree_order(self, value):
        """Compact element texts must sort like the spaced, key-sorted
        dumps of the element trees."""
        assert marshal(value) == reference_marshal(value)

    def test_set_order_mixed_and_nested(self):
        value = {1, 10, 2, -1, "1", "a,b", "a:b", "a b", None, True, 2.5,
                 Logic.X, Logic.ZERO, b"\x01", Word(3, 4), Word.unknown(4),
                 (1, 2), (1, (2, 3)), (1,), (), ("a", Logic.ONE),
                 frozenset({3, (4, 5)}), frozenset(), Frame([1, 2], 2.0),
                 Point(0, "x"), "€", '"', "{", "[1"}
        assert marshal(value) == reference_marshal(value)
        assert marshal([value, frozenset(value)]) == \
            reference_marshal([value, frozenset(value)])

    def test_word_fields_are_plain_json(self):
        for word in (Word(5, 3), Word.unknown(3), Word(1, True),
                     Word(2 ** 40, 64)):
            assert marshal(word) == reference_marshal(word)


class TestExactTypeCodecWins:
    def test_base_class_codec_does_not_capture_a_registered_subclass(self):
        table = DetectionTable("c", (Logic.ONE,), (Logic.ZERO,),
                               {(Logic.ONE,): {"f"}})
        for value in (table, NullValue("power"), ParamValue("area", 1.5),
                      [table, NullValue("p"), table]):
            assert marshal(value) == reference_marshal(value)
        assert marshal(table).startswith(b'{"$t":"x:detection-table"')
        assert marshal(NullValue("p")).startswith(b'{"$t":"x:paramvalue"')


class TestDetectionTableRows:
    @given(tables)
    def test_rows_go_out_ordered_by_their_int_tuples(self, table):
        """``to_wire`` sorts the Logic patterns themselves (no per-row
        key), which must be the order of their integer values."""
        patterns = [pattern for pattern, _names
                    in _table_to_wire(table)["rows"]]
        assert patterns == sorted(
            table.rows, key=lambda pattern: tuple(int(bit) for bit in pattern))


def harness_block():
    rng = random.Random(1)
    return [[Logic(rng.getrandbits(1)) for _ in range(32)]
            for _ in range(64)]


def alu32_table():
    netlist = load_bench("alu32")
    rng = random.Random(1)
    inputs = {net: Logic(rng.getrandbits(1)) for net in netlist.inputs}
    return build_detection_table(netlist, build_fault_list(netlist),
                                 inputs)


class TestPinnedPayloads:
    """The two payloads the harness times, by length and digest."""

    def test_harness_logic_block(self):
        block = harness_block()
        data = marshal(block)
        assert len(data) == 44307
        assert hashlib.sha256(data).hexdigest() == (
            "d188d52eaa2dc1b480282e4071094a979d27ccfa59bbabe6e8eb69da89c1fa1f")
        assert data == reference_marshal(block)
        assert unmarshal(data) == reference_unmarshal(data) == block

    def test_alu32_detection_table(self):
        table = alu32_table()
        data = marshal(table)
        assert len(table.rows) == 39
        assert len(data) == 36216
        assert hashlib.sha256(data).hexdigest() == (
            "a2efd6b2531f7923f2481e5d62c2cb10a71d2d61f346c052e687d5c79ec7593e")
        assert data == reference_marshal(table)
        assert unmarshal(data) == reference_unmarshal(data) == table

    @pytest.mark.parametrize("payload", [
        harness_block,
        alu32_table,
        lambda: CallRequest("ip", "evaluate",
                            ([Logic.ONE, Logic.ZERO, Logic.X, Logic.Z] * 8,),
                            call_id=1),
    ], ids=["harness-block", "alu32-table", "call-with-a-logic-list"])
    def test_logic_runs_decode_packed(self, payload, monkeypatch):
        """Packing answers these on its own: the plain path's scan and
        walk is never reached (a stopwatch-free pin of the fast path)."""
        answers = []

        def packed_only(text):
            answers.append(decode_packed(text))
            if answers[-1] is _UNPACKED:
                raise AssertionError("fell back to the plain decode")
            return answers[-1]

        value = payload()
        data = value.encode() if isinstance(value, CallRequest) \
            else marshal(value)
        monkeypatch.setattr(MARSHAL, "_decode_packed", packed_only)
        decoded = decode_request(data) if isinstance(value, CallRequest) \
            else unmarshal(data)
        assert decoded == value
        assert len(answers) == 1


class TestRefusedWire:
    """Well-formed JSON the reference already refused keeps its words."""

    @pytest.mark.parametrize("data", [
        b"[1,2,3]", b'{"$t":"list","v":[[1]]}', b'{"v":1}',
        b'{"$t":"tuple","v":[{"a":1}]}', b'{"$t":"x:bogus","v":1}',
        b'{"$t":"nope","v":1}', b'{"$t":"","v":1}', b"\xff\x00", b"{",
        b'{"$t":"dict","v":[[{"$t":"list","v":[{"k":1}]},[2]]]}',
        (b'{"$t":"list","v":[' * 33 + b"0" + b"]}" * 33),
    ])
    def test_same_refusal(self, data):
        got = outcome(unmarshal, data)
        assert got.startswith("MarshalError: ")
        assert got == outcome(reference_unmarshal, data)

    def test_depth_32_on_the_wire_is_legal(self):
        data = b'{"$t":"list","v":[' * 32 + b'{"$t":"list","v":[]}' \
            + b"]}" * 32
        assert unmarshal(data) == reference_unmarshal(data)
