"""The frame decoders as they stood before the per-node short-circuits,
kept verbatim as the golden reference for ``test_frame_codec.py``.

``unmarshal`` here is ``json.loads`` plus one ``_decode`` call per node
of the tree (with the logic-run packing in front, as before), and each
frame kind's ``from_wire`` reads its fields one keyword at a time.  The
live decoders skip the call for a dict node's scalar keys and values
and call json's scanner directly; they must answer every input with
this module's value, element types and all, or with its refusal, word
for word.  Codecs and the message classes are the live ones.
"""

from __future__ import annotations

import json
import re
from importlib import import_module
from typing import Any, Optional

from repro.core.errors import MarshalError
from repro.core.signal import Logic, Word
from repro.rmi.marshal import _CODEC_OWNERS, _VALUE_CODECS
from repro.rmi.protocol import (AuthRequest, BatchReply, BatchRequest,
                                CallReply, CallRequest)

_MAX_DEPTH = 32
_TOO_DEEP = "marshalled structure is too deeply nested"

_LOGIC_OF = {int(bit): bit for bit in Logic}
_LOGIC_OF_DIGIT = {str(int(bit)): bit for bit in Logic}
_NESTED = {dict, list}
_RUN_MARK = "\x04"
_LOGIC_RUN = re.compile(r'\[((?:\{"\$t":"logic","v":[0-3]\},)*'
                        r'\{"\$t":"logic","v":[0-3]\})\]')


def _pack_run(run: "re.Match[str]") -> str:
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
            codec = _VALUE_CODECS.get(tag[2:]) or _owned_codec(tag[2:])
            if codec is not None:
                return codec[2](_decode(data.get("v"), depth + 1, runs))
        raise MarshalError(f"unknown marshal tag {tag!r}")
    if kind is list:
        raise MarshalError("bare JSON list in wire data")
    return data


def _owned_codec(tag: str) -> Any:
    owner = _CODEC_OWNERS.get(tag)
    if owner is None:
        return None
    import_module(owner)
    return _VALUE_CODECS.get(tag)


def _decode_elements(items: Any, depth: int, runs: Optional[list]) -> list:
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
        return items
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


_DECODERS = {
    "logic": _decode_logic,
    "word": _decode_word,
    "tuple": _decode_tuple,
    "list": _decode_list,
    "set": _decode_set,
    "dict": _decode_dict,
    "bytes": _decode_bytes,
}

_UNPACKED = object()


def _decode_packed(text: str) -> Any:
    try:
        packed, count = _LOGIC_RUN.subn(_pack_run, text)
        runs: list = []
        value = _decode(json.loads(packed), 0, runs)
    except Exception:
        return _UNPACKED
    return value if len(runs) == count else _UNPACKED


def unmarshal(data: bytes) -> Any:
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


# -- frames ----------------------------------------------------------------

_FIELD_ERRORS = (KeyError, TypeError, ValueError)


def _malformed(what: str, exc: Exception) -> MarshalError:
    return MarshalError(f"malformed {what}: {type(exc).__name__}: {exc}")


def call_from_wire(wire: Any) -> CallRequest:
    if not isinstance(wire, dict) or wire.get("kind") != "call":
        raise MarshalError(f"not a call request: {wire!r}")
    try:
        return CallRequest(
            object_name=wire["object"],
            method=wire["method"],
            args=tuple(wire["args"]),
            kwargs=dict(wire["kwargs"]),
            call_id=wire["id"],
            oneway=wire["oneway"],
        )
    except _FIELD_ERRORS as exc:
        raise _malformed("call request", exc) from exc


def reply_from_wire(wire: Any) -> CallReply:
    if not isinstance(wire, dict) or wire.get("kind") != "reply":
        raise MarshalError(f"not a call reply: {wire!r}")
    try:
        return CallReply(call_id=wire["id"], ok=wire["ok"],
                         result=wire["result"], error=wire["error"])
    except _FIELD_ERRORS as exc:
        raise _malformed("call reply", exc) from exc


def batch_from_wire(wire: Any) -> BatchRequest:
    if not isinstance(wire, dict) or wire.get("kind") != "batch":
        raise MarshalError(f"not a batch request: {wire!r}")
    try:
        calls = tuple(call_from_wire(item) for item in wire["calls"])
        if not calls:
            raise MarshalError("BATCH frame carries no calls")
        return BatchRequest(calls=calls, batch_id=wire["id"])
    except _FIELD_ERRORS as exc:
        raise _malformed("batch request", exc) from exc


def auth_from_wire(wire: Any) -> AuthRequest:
    if not isinstance(wire, dict) or wire.get("kind") != "auth":
        raise MarshalError(f"not an auth request: {wire!r}")
    try:
        return AuthRequest(token=str(wire["token"]), call_id=wire["id"])
    except _FIELD_ERRORS as exc:
        raise _malformed("auth request", exc) from exc


def batch_reply_decode(data: bytes) -> BatchReply:
    wire = unmarshal(data)
    if not isinstance(wire, dict) or wire.get("kind") != "batch-reply":
        raise MarshalError(f"not a batch reply: {wire!r}")
    try:
        return BatchReply(
            batch_id=wire["id"],
            replies=tuple(reply_from_wire(item)
                          for item in wire["replies"]))
    except _FIELD_ERRORS as exc:
        raise _malformed("batch reply", exc) from exc


def decode_request(data: bytes) -> Any:
    wire = unmarshal(data)
    kind = wire.get("kind") if isinstance(wire, dict) else None
    if kind == "batch":
        return batch_from_wire(wire)
    if kind == "auth":
        return auth_from_wire(wire)
    return call_from_wire(wire)


DECODERS = {
    "unmarshal": unmarshal,
    "decode_request": decode_request,
    "CallRequest.decode": lambda data: call_from_wire(unmarshal(data)),
    "CallReply.decode": lambda data: reply_from_wire(unmarshal(data)),
    "BatchRequest.decode": lambda data: batch_from_wire(unmarshal(data)),
    "BatchReply.decode": batch_reply_decode,
    "AuthRequest.decode": lambda data: auth_from_wire(unmarshal(data)),
}
"""Each live decoder's reference, by the live decoder's name."""
