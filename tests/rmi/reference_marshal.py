"""The two-phase marshaller ``repro.rmi.marshal`` used before it became
single-pass, kept verbatim as the golden reference.

Encode builds the full tagged tree (``_to_wire``) and lets ``json.dumps``
walk it; decode lets ``json.loads`` build a tree and re-walks it
(``_from_wire``).  Slow and obviously right, which is the point: the
fast marshaller must produce these bytes and these values
(``test_marshal_reference.py``), and frame sizes feed the virtual clock.
It shares the live codec registry, so a type registered with
``register_value_type`` is known to both.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.errors import MarshalError
from repro.core.signal import Logic, Word
from repro.rmi.marshal import _VALUE_CODECS, _refusal_message


def _to_wire(obj: Any, depth: int = 0) -> Any:
    if depth > 32:
        raise MarshalError("marshalled structure is too deeply nested")
    # Logic is an IntEnum, so it must be tagged before the plain-int
    # check or it would silently degrade to a bare integer on the wire.
    if isinstance(obj, Logic):
        return {"$t": "logic", "v": int(obj)}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Word):
        if obj.known:
            return {"$t": "word", "v": obj.value, "w": obj.width}
        return {"$t": "word", "v": None, "w": obj.width}
    if isinstance(obj, tuple):
        return {"$t": "tuple", "v": [_to_wire(x, depth + 1) for x in obj]}
    if isinstance(obj, list):
        return {"$t": "list", "v": [_to_wire(x, depth + 1) for x in obj]}
    if isinstance(obj, (set, frozenset)):
        return {"$t": "set", "v": sorted(
            (_to_wire(x, depth + 1) for x in obj),
            key=lambda item: json.dumps(item, sort_keys=True))}
    if isinstance(obj, dict):
        items = []
        for key, value in obj.items():
            items.append([_to_wire(key, depth + 1),
                          _to_wire(value, depth + 1)])
        return {"$t": "dict", "v": items}
    if isinstance(obj, bytes):
        return {"$t": "bytes", "v": obj.hex()}
    # Prefer an exact-type codec so subclasses with their own codec are
    # not captured by a base-class registration.
    for tag, (cls, to_wire, _from_wire) in _VALUE_CODECS.items():
        if type(obj) is cls:
            return {"$t": f"x:{tag}", "v": _to_wire(to_wire(obj), depth + 1)}
    for tag, (cls, to_wire, _from_wire) in _VALUE_CODECS.items():
        if isinstance(obj, cls):
            return {"$t": f"x:{tag}", "v": _to_wire(to_wire(obj), depth + 1)}
    raise MarshalError(_refusal_message(obj))


def _from_wire(data: Any, depth: int = 0) -> Any:
    if depth > 32:
        raise MarshalError("marshalled structure is too deeply nested")
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):  # only produced inside tagged containers
        raise MarshalError("bare JSON list in wire data")
    if not isinstance(data, dict) or "$t" not in data:
        raise MarshalError(f"malformed wire data: {data!r}")
    tag, value = data["$t"], data.get("v")
    if tag == "logic":
        return Logic(value)
    if tag == "word":
        width = data["w"]
        if value is None:
            return Word.unknown(width)
        return Word(value, width)
    if tag == "tuple":
        return tuple(_from_wire(x, depth + 1) for x in value)
    if tag == "list":
        return [_from_wire(x, depth + 1) for x in value]
    if tag == "set":
        return frozenset(_from_wire(x, depth + 1) for x in value)
    if tag == "dict":
        return {_from_wire(k, depth + 1): _from_wire(v, depth + 1)
                for k, v in value}
    if tag == "bytes":
        return bytes.fromhex(value)
    if tag.startswith("x:"):
        codec = _VALUE_CODECS.get(tag[2:])
        if codec is None:
            raise MarshalError(f"unknown marshal tag {tag!r}")
        _cls, _to_wire_fn, from_wire_fn = codec
        return from_wire_fn(_from_wire(value, depth + 1))
    raise MarshalError(f"unknown marshal tag {tag!r}")


def reference_marshal(obj: Any) -> bytes:
    """Serialize a whitelisted value to wire bytes."""
    try:
        return json.dumps(_to_wire(obj), separators=(",", ":")).encode()
    except MarshalError:
        raise
    except (TypeError, ValueError) as exc:
        raise MarshalError(f"cannot marshal {obj!r}: {exc}") from exc


def reference_unmarshal(data: bytes) -> Any:
    """Deserialize wire bytes produced by :func:`reference_marshal`."""
    try:
        wire = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MarshalError(f"corrupt wire data: {exc}") from exc
    return _from_wire(wire)
