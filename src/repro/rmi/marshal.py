"""Restricted argument marshalling for remote method invocation.

The paper protects the *user's* IP "through careful argument marshalling
in the RMI method invocation": because a remote IP component only needs
the information available at its own ports, JavaCAD transmits only that
information over the RMI channel.  This module enforces the rule
mechanically: only a whitelist of value types can be serialized.
Modules, designs, circuits, netlists and arbitrary Python objects are
rejected with :class:`~repro.core.errors.MarshalError`, so neither party
can smuggle structure across the boundary -- not even accidentally.

The wire format is tagged JSON encoded as UTF-8, which is portable
(unlike the precompiled object files of the model-encryption approach
discussed in the paper's related work) and never executes code on
deserialization (unlike pickle).  Its grammar and formatting rules are
in ``docs/protocol.md`` ("The wire format"); frame sizes feed the
virtual clock, so the bytes are a fixed point, pinned against the
two-phase reference kept in ``tests/rmi/reference_marshal.py``.

Both directions are total: :func:`marshal` returns bytes or raises
``MarshalError`` for any object, :func:`unmarshal` returns a value or
raises ``MarshalError`` for any bytes.
"""

from __future__ import annotations

import json
import re
import threading
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Dict, Optional, Tuple, Type

from ..core.errors import MarshalError
from ..core.signal import Logic, Word

_MAX_DEPTH = 32
_TOO_DEEP = "marshalled structure is too deeply nested"

_VALUE_CODECS: Dict[str, Tuple[Type, Callable[[Any], Any],
                               Callable[[Any], Any]]] = {}
_REGISTRY_LOCK = threading.Lock()


def register_value_type(tag: str, cls: Type,
                        to_wire: Callable[[Any], Any],
                        from_wire: Callable[[Any], Any]) -> None:
    """Whitelist a value type for marshalling.

    ``to_wire`` must reduce an instance to already-marshallable data;
    ``from_wire`` rebuilds the instance.  Registering a type is a
    security decision: only plain value objects (no references to design
    structure) should ever be registered.
    """
    with _REGISTRY_LOCK:
        if tag in _VALUE_CODECS and _VALUE_CODECS[tag][0] is not cls:
            raise MarshalError(f"marshal tag {tag!r} is already registered")
        _VALUE_CODECS[tag] = (cls, to_wire, from_wire)
        # A new codec can capture types an older one (or none) used to
        # answer for, so every type resolves again.
        _EMITTERS.clear()


# -- encoding -------------------------------------------------------------
#
# One pass: every value is written straight to its wire text by the
# emitter its *type* selects.  The text is what ``json.dumps(tree,
# separators=(",", ":"))`` printed for the tagged tree, so each emitter
# spells out a rule json used to supply: ASCII-escaped strings,
# ``int.__repr__`` / ``float.__repr__`` whatever a subclass overrides,
# ``NaN`` / ``Infinity`` / ``-Infinity``, keys in ``$t``, ``v``, ``w``
# order, no whitespace.

_Emitter = Callable[[Any, int], str]

# Keyed on ``type(x)``, never on the value: Logic is an IntEnum, so
# ``Logic.ONE == 1 == True`` and all three hash alike.  Read lock-free;
# filled by :func:`_resolve`, emptied by :func:`register_value_type`.
_EMITTERS: Dict[type, _Emitter] = {}

# Looked up by value, so only once the type has said Logic.
_LOGIC_TEXT = {bit: '{"$t":"logic","v":%d}' % bit for bit in Logic}
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_json_text = json.JSONEncoder(separators=(",", ":")).encode


def _emit(obj: Any, depth: int) -> str:
    if depth > _MAX_DEPTH:
        raise MarshalError(_TOO_DEEP)
    return (_EMITTERS.get(type(obj)) or _resolve(type(obj)))(obj, depth)


def _emit_logic(obj: Logic, depth: int) -> str:
    return _LOGIC_TEXT[obj]


def _emit_none(obj: None, depth: int) -> str:
    return "null"


def _emit_bool(obj: bool, depth: int) -> str:
    return "true" if obj else "false"


def _emit_int(obj: int, depth: int) -> str:
    return int.__repr__(obj)


def _emit_float(obj: float, depth: int) -> str:
    text = float.__repr__(obj)
    return _NON_FINITE.get(text, text)


def _emit_str(obj: str, depth: int) -> str:
    return _quote(obj)


def _json_field(value: Any) -> str:
    # A Word's fields are plain JSON, not marshalled values: anything
    # but an int is json's to print (a bool width) or to refuse.
    return repr(value) if type(value) is int else _json_text(value)


def _emit_word(obj: Word, depth: int) -> str:
    value = _json_field(obj.value) if obj.known else "null"
    return ('{"$t":"word","v":' + value + ',"w":'
            + _json_field(obj.width) + "}")


def _emit_bytes(obj: bytes, depth: int) -> str:
    return '{"$t":"bytes","v":"' + obj.hex() + '"}'


# Element types whose text does not depend on depth and comes from one
# C-level callable: a sequence of nothing else is one ``map``.
_BULK: Dict[type, Callable[[Any], str]] = {
    Logic: _LOGIC_TEXT.__getitem__,
    str: _quote,
}


def _element_texts(items: Any, depth: int) -> Any:
    """Wire texts of the elements of a tuple or list, which sit at
    ``depth`` (one below their container)."""
    if items and depth <= _MAX_DEPTH:  # too deep: _emit below refuses
        bulk = _BULK.get(type(items[0]))
        if bulk is not None and len(set(map(type, items))) == 1:
            return map(bulk, items)
    return [_emit(item, depth) for item in items]


def _emit_tuple(obj: tuple, depth: int) -> str:
    return ('{"$t":"tuple","v":['
            + ",".join(_element_texts(obj, depth + 1)) + "]}")


def _emit_list(obj: list, depth: int) -> str:
    return ('{"$t":"list","v":['
            + ",".join(_element_texts(obj, depth + 1)) + "]}")


def _emit_set(obj: Any, depth: int) -> str:
    # The tree form was ordered by each element's spaced, key-sorted
    # json.dumps text.  Compact texts sort the same way: keys are
    # emitted in sorted order already, and a space after every
    # structural "," and ":" never moves the first differing character.
    return ('{"$t":"set","v":['
            + ",".join(sorted(_element_texts(tuple(obj), depth + 1)))
            + "]}")


def _emit_dict(obj: dict, depth: int) -> str:
    depth += 1
    return ('{"$t":"dict","v":['
            + ",".join(["[" + _emit(key, depth) + ","
                        + _emit(value, depth) + "]"
                        for key, value in obj.items()])
            + "]}")


def _codec_emitter(tag: str, to_wire: Callable[[Any], Any]) -> _Emitter:
    head = '{"$t":' + _quote(f"x:{tag}") + ',"v":'

    def emit(obj: Any, depth: int) -> str:
        return head + _emit(to_wire(obj), depth + 1) + "}"
    return emit


def _refuse(obj: Any, depth: int) -> str:
    raise MarshalError(_refusal_message(obj))


# In precedence order: Logic is an int and bool is an int, so both are
# asked before int.
_BUILTIN_EMITTERS: Tuple[Tuple[type, _Emitter], ...] = (
    (Logic, _emit_logic),
    (type(None), _emit_none),
    (bool, _emit_bool),
    (int, _emit_int),
    (float, _emit_float),
    (str, _emit_str),
    (Word, _emit_word),
    (tuple, _emit_tuple),
    (list, _emit_list),
    (set, _emit_set),
    (frozenset, _emit_set),
    (dict, _emit_dict),
    (bytes, _emit_bytes),
)


def _resolve(cls: type) -> _Emitter:
    """The emitter for a type the table does not hold yet.

    Built-ins by ``issubclass`` in precedence order (a namedtuple goes
    out as a tuple, an ``OrderedDict`` as a dict), then the codecs.
    Memoized per type; a refusal is not, because classes nobody can
    marshal are not worth keeping alive.
    """
    with _REGISTRY_LOCK:
        for base, emitter in _BUILTIN_EMITTERS:
            if issubclass(cls, base):
                break
        else:
            emitter = _codec_emitter_for(cls)
            if emitter is None:
                return _refuse
        _EMITTERS[cls] = emitter
        return emitter


def _codec_emitter_for(cls: type) -> Optional[_Emitter]:
    # Prefer an exact-type codec so subclasses with their own codec are
    # not captured by a base-class registration.
    for tag, (base, to_wire, _from_wire) in _VALUE_CODECS.items():
        if base is cls:
            return _codec_emitter(tag, to_wire)
    for tag, (base, to_wire, _from_wire) in _VALUE_CODECS.items():
        if issubclass(cls, base):
            return _codec_emitter(tag, to_wire)
    return None


def _refusal_message(obj: Any) -> str:
    # Import lazily to avoid cycles; give IP-protection-specific
    # diagnostics for the structures the paper explicitly guards.
    from ..core.design import Circuit, Design
    from ..core.module import ModuleSkeleton
    from ..gates.netlist import Gate, Netlist

    protected = {
        ModuleSkeleton: "design modules",
        Circuit: "circuits",
        Design: "designs",
        Netlist: "gate-level netlists",
        Gate: "gates",
    }
    for cls, what in protected.items():
        if isinstance(obj, cls):
            return (f"IP protection: {what} never cross the RMI boundary "
                    f"(got {type(obj).__name__} {getattr(obj, 'name', '')!r})")
    return (f"type {type(obj).__name__} is not marshallable; only port-level "
            f"values may cross the client/server boundary")


# -- decoding -------------------------------------------------------------
#
# ``json.loads`` stays the scanner (it is C); what it builds is turned
# into values by the decoder its ``$t`` tag selects.  JSON scalars are
# their own values, a JSON list is legal only directly under a tagged
# container, a JSON object only as a tagged node.
#
# A run of logic nodes (a pattern, a table row) never reaches the
# scanner as nodes: ``_decode_packed`` first rewrites every JSON array
# made only of canonical ones into a single string token, ``"\u0004"``
# and its digits, which ``_decode_elements`` expands with one ``map``.
# A text that holds the ``\u0004`` escape itself is never rewritten, so
# a string that starts with that character is a token.  In valid JSON
# ``{"`` only opens an object, so every match is an array in a value
# position; a token anywhere but under a tuple, list or set node (a
# dict pair, a ``word`` field, a codec's value, a ``$t``) is either
# refused or left unconsumed, and then the text is decoded again
# without the rewrite, which alone decides the value or the refusal.
# ``runs`` collects the tokens one call consumed (``None``: no rewrite).

_LOGIC_OF = {int(bit): bit for bit in Logic}
_LOGIC_OF_DIGIT = {str(int(bit)): bit for bit in Logic}
_NESTED = {dict, list}
_RUN_MARK = "\x04"
_LOGIC_RUN = re.compile(r'\[((?:\{"\$t":"logic","v":[0-3]\},)*'
                        r'\{"\$t":"logic","v":[0-3]\})\]')


def _pack_run(run: "re.Match[str]") -> str:
    # Every node is 20 characters plus a comma; its digit is the 19th.
    return '"\\u0004' + run.group(1)[18::21] + '"'


def _decode(data: Any, depth: int, runs: Optional[list]) -> Any:
    if depth > _MAX_DEPTH:
        raise MarshalError(_TOO_DEEP)
    kind = type(data)
    if kind is dict:
        if "$t" not in data:
            raise MarshalError(f"malformed wire data: {data!r}")
        tag = data["$t"]
        decoder = _DECODERS.get(tag)
        if decoder is not None:
            return decoder(data, depth, runs)
        if type(tag) is str and tag.startswith("x:"):
            codec = _VALUE_CODECS.get(tag[2:])
            if codec is not None:
                return codec[2](_decode(data.get("v"), depth + 1, runs))
        raise MarshalError(f"unknown marshal tag {tag!r}")
    if kind is list:  # only produced inside tagged containers
        raise MarshalError("bare JSON list in wire data")
    return data


def _decode_elements(items: Any, depth: int, runs: Optional[list]) -> list:
    """Values of the JSON list (or run token) under a tuple, list or
    set node; its elements sit at ``depth``."""
    if type(items) is not list:
        if runs is None or type(items) is not str \
                or items[:1] != _RUN_MARK:
            raise MarshalError(f"malformed wire data: {items!r}")
        if depth > _MAX_DEPTH:
            raise MarshalError(_TOO_DEEP)
        runs.append(items)
        return list(map(_LOGIC_OF_DIGIT.__getitem__, items[1:]))
    if not items:
        return items
    if depth > _MAX_DEPTH:
        raise MarshalError(_TOO_DEEP)
    if type(items[0]) is not dict \
            and _NESTED.isdisjoint(map(type, items)):
        return items  # scalars only: already their values
    return [_decode(item, depth, runs) for item in items]


def _decode_logic(node: dict, depth: int, runs: Optional[list]) -> Logic:
    return _LOGIC_OF[node["v"]]


def _decode_word(node: dict, depth: int, runs: Optional[list]) -> Word:
    value, width = node.get("v"), node["w"]
    return Word.unknown(width) if value is None else Word(value, width)


def _decode_tuple(node: dict, depth: int, runs: Optional[list]) -> tuple:
    return tuple(_decode_elements(node["v"], depth + 1, runs))


def _decode_list(node: dict, depth: int, runs: Optional[list]) -> list:
    return _decode_elements(node["v"], depth + 1, runs)


def _decode_set(node: dict, depth: int, runs: Optional[list]) -> frozenset:
    return frozenset(_decode_elements(node["v"], depth + 1, runs))


def _decode_dict(node: dict, depth: int, runs: Optional[list]) -> dict:
    depth += 1
    return {_decode(key, depth, runs): _decode(value, depth, runs)
            for key, value in node["v"]}


def _decode_bytes(node: dict, depth: int, runs: Optional[list]) -> bytes:
    return bytes.fromhex(node["v"])


_DECODERS: Dict[str, Callable[[dict, int, Optional[list]], Any]] = {
    "logic": _decode_logic,
    "word": _decode_word,
    "tuple": _decode_tuple,
    "list": _decode_list,
    "set": _decode_set,
    "dict": _decode_dict,
    "bytes": _decode_bytes,
}


def marshal(obj: Any) -> bytes:
    """Serialize a whitelisted value to wire bytes."""
    try:
        return _emit(obj, 0).encode()
    except MarshalError:
        raise
    except (TypeError, ValueError) as exc:
        raise MarshalError(f"cannot marshal {obj!r}: {exc}") from exc


def unmarshal(data: bytes) -> Any:
    """Deserialize wire bytes produced by :func:`marshal`.

    Total over hostile input: whatever ``data`` holds, the outcome is a
    value or a ``MarshalError`` (cause chained).  A text with logic
    runs is decoded packed first (see "decoding" above); when that does
    not answer, the plain scan and walk below decides.  The node
    decoders index and unpack without checking shapes; the one handler
    here is what turns a missing field, a wrong type, an unhashable
    key, a codec's ``from_wire`` failing on a foreign shape, or the
    JSON scanner running out of stack into the refusal.
    """
    try:
        text = data.decode()
        if '[{"$t":"logic"' in text and "\\u0004" not in text:
            value = _decode_packed(text)
            if value is not _UNPACKED:
                return value
        return _decode(json.loads(text), 0, None)
    except MarshalError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MarshalError(f"corrupt wire data: {exc}") from exc
    except Exception as exc:
        raise MarshalError(f"malformed wire data: "
                           f"{type(exc).__name__}: {exc}") from exc


_UNPACKED = object()


def _decode_packed(text: str) -> Any:
    """``text``'s value with its logic runs packed, or ``_UNPACKED``
    unless that decode consumed every token it packed."""
    try:
        packed, count = _LOGIC_RUN.subn(_pack_run, text)
        runs: list = []
        value = _decode(json.loads(packed), 0, runs)
    except Exception:  # the plain path decides, in its own words
        return _UNPACKED
    return value if len(runs) == count else _UNPACKED


def payload_size(obj: Any) -> int:
    """Wire size in bytes of a marshalled value (for network models)."""
    return len(marshal(obj))
