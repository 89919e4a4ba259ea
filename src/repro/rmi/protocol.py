"""Wire protocol messages for the RMI substrate.

Messages are plain value objects that marshal through the restricted
serializer; the same message types travel over the in-process transport
(with simulated network timing) and the real TCP transport.

Each frame writes its own text: the fixed head of its tagged ``dict``,
then one ``_emit(field, depth)`` per field, at the depth the field has
in ``marshal(message.to_wire())`` -- whose bytes, and refusals, these
are (``tests/rmi/test_frame_codec.py``).  ``to_wire`` stays the frame's
shape in data and names the frame in an encode refusal.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..core.errors import MarshalError, RemoteError
from ..core.ids import next_id
from .marshal import _emit, unmarshal

MAX_FRAME_BYTES = 64 * 1024 * 1024
"""Largest frame body any TCP reader accepts.  The 4-byte length
prefix arrives before AUTH, so without a cap any peer could demand a
4 GiB buffer; the biggest legitimate frames (a detection-table reply,
a pattern BATCH) are a few hundred KiB."""


def frame_length(header: bytes) -> int:
    """Decode a frame's 4-byte length prefix, refusing oversized ones.

    Every TCP frame reader calls this *before* allocating or reading
    the body.
    """
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise RemoteError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            f"limit")
    return length


def encode_frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with its 4-byte big-endian length.

    The inverse of :func:`frame_length`; every TCP frame writer uses
    it, so the length-prefix format lives in this module only.
    """
    return struct.pack(">I", len(payload)) + payload


_FIELD_ERRORS = (KeyError, TypeError, ValueError)


def _encoded(message: Any) -> bytes:
    """``message``'s frame bytes (its text at depth 0), refused as
    :func:`~repro.rmi.marshal.marshal` refuses its ``to_wire()``."""
    try:
        return message._text(0).encode()
    except MarshalError:
        raise
    except (TypeError, ValueError) as exc:
        raise MarshalError(
            f"cannot marshal {message.to_wire()!r}: {exc}") from exc


def _malformed(what: str, exc: Exception) -> MarshalError:
    """The refusal for a frame of the right kind whose fields are
    missing or mistyped: decoding is total, like ``unmarshal``."""
    return MarshalError(f"malformed {what}: {type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class CallRequest:
    """A remote method invocation request."""

    object_name: str
    method: str
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    call_id: int = field(default_factory=lambda: next_id("call"))
    oneway: bool = False

    def to_wire(self) -> Dict[str, Any]:
        """The request as a marshallable dict (shared with BATCH frames)."""
        return {
            "kind": "call",
            "object": self.object_name,
            "method": self.method,
            "args": tuple(self.args),
            "kwargs": dict(self.kwargs),
            "id": self.call_id,
            "oneway": self.oneway,
        }

    def _text(self, depth: int) -> str:
        """The frame's text with its dict at ``depth``."""
        depth += 1
        return ('{"$t":"dict","v":[["kind","call"],["object",'
                + _emit(self.object_name, depth) + '],["method",'
                + _emit(self.method, depth) + '],["args",'
                + _emit(tuple(self.args), depth) + '],["kwargs",'
                + _emit(dict(self.kwargs), depth) + '],["id",'
                + _emit(self.call_id, depth) + '],["oneway",'
                + _emit(self.oneway, depth) + "]]}")

    def encode(self) -> bytes:
        """Marshal to wire bytes (rejects non-whitelisted arguments)."""
        return _encoded(self)

    @staticmethod
    def from_wire(wire: Any) -> "CallRequest":
        """Rebuild a request from its marshallable dict form."""
        if not isinstance(wire, dict) or wire.get("kind") != "call":
            raise MarshalError(f"not a call request: {wire!r}")
        try:
            # One pass, in field order: a refusal names the first field
            # that fails, as it always has.
            return CallRequest(wire["object"], wire["method"],
                               tuple(wire["args"]), dict(wire["kwargs"]),
                               wire["id"], wire["oneway"])
        except _FIELD_ERRORS as exc:
            raise _malformed("call request", exc) from exc

    @staticmethod
    def decode(data: bytes) -> "CallRequest":
        """Rebuild a request from wire bytes."""
        return CallRequest.from_wire(unmarshal(data))


@dataclass(frozen=True)
class CallReply:
    """The reply to a :class:`CallRequest`."""

    call_id: int
    ok: bool
    result: Any = None
    error: Optional[str] = None

    def to_wire(self) -> Dict[str, Any]:
        """The reply as a marshallable dict (shared with BATCH frames)."""
        return {
            "kind": "reply",
            "id": self.call_id,
            "ok": self.ok,
            "result": self.result,
            "error": self.error,
        }

    def _text(self, depth: int) -> str:
        """The frame's text with its dict at ``depth``."""
        depth += 1
        return ('{"$t":"dict","v":[["kind","reply"],["id",'
                + _emit(self.call_id, depth) + '],["ok",'
                + _emit(self.ok, depth) + '],["result",'
                + _emit(self.result, depth) + '],["error",'
                + _emit(self.error, depth) + "]]}")

    def encode(self) -> bytes:
        """Marshal to wire bytes (rejects non-whitelisted results)."""
        return _encoded(self)

    @staticmethod
    def from_wire(wire: Any) -> "CallReply":
        """Rebuild a reply from its marshallable dict form."""
        if not isinstance(wire, dict) or wire.get("kind") != "reply":
            raise MarshalError(f"not a call reply: {wire!r}")
        try:
            return CallReply(wire["id"], wire["ok"], wire["result"],
                             wire["error"])
        except _FIELD_ERRORS as exc:
            raise _malformed("call reply", exc) from exc

    @staticmethod
    def decode(data: bytes) -> "CallReply":
        """Rebuild a reply from wire bytes."""
        return CallReply.from_wire(unmarshal(data))


@dataclass(frozen=True)
class BatchRequest:
    """A BATCH frame: several calls travelling as one round trip.

    The server dispatches the calls in order, in one pass, and answers
    with one :class:`BatchReply` carrying a positional reply per call
    (oneway calls included, so the reply list always lines up with the
    request list).  Batching changes *when* bytes move, never *what*
    they mean: each inner call is the same ``CallRequest`` that would
    have travelled alone.
    """

    calls: Tuple[CallRequest, ...]
    batch_id: int = field(default_factory=lambda: next_id("call"))

    def to_wire(self) -> Dict[str, Any]:
        """The batch as a marshallable dict."""
        return {
            "kind": "batch",
            "id": self.batch_id,
            "calls": tuple(call.to_wire() for call in self.calls),
        }

    def _text(self, depth: int) -> str:
        """The frame's text with its dict at ``depth``: each call's
        dict sits two levels below it, inside the ``calls`` tuple."""
        depth += 1
        return ('{"$t":"dict","v":[["kind","batch"],["id",'
                + _emit(self.batch_id, depth) + '],["calls",'
                + '{"$t":"tuple","v":['
                + ",".join([call._text(depth + 1) for call in self.calls])
                + "]}]]}")

    def encode(self) -> bytes:
        """Marshal to wire bytes (rejects non-whitelisted arguments)."""
        if not self.calls:
            raise MarshalError("a BATCH frame needs at least one call")
        return _encoded(self)

    @staticmethod
    def from_wire(wire: Any) -> "BatchRequest":
        """Rebuild a batch from its marshallable dict form."""
        if not isinstance(wire, dict) or wire.get("kind") != "batch":
            raise MarshalError(f"not a batch request: {wire!r}")
        try:
            calls = tuple(CallRequest.from_wire(item)
                          for item in wire["calls"])
            if not calls:
                raise MarshalError("BATCH frame carries no calls")
            return BatchRequest(calls=calls, batch_id=wire["id"])
        except _FIELD_ERRORS as exc:
            raise _malformed("batch request", exc) from exc

    @staticmethod
    def decode(data: bytes) -> "BatchRequest":
        """Rebuild a batch from wire bytes."""
        return BatchRequest.from_wire(unmarshal(data))


@dataclass(frozen=True)
class BatchReply:
    """The reply to a :class:`BatchRequest`: one reply per call, in order."""

    batch_id: int
    replies: Tuple[CallReply, ...]

    def to_wire(self) -> Dict[str, Any]:
        """The batch reply as a marshallable dict."""
        return {
            "kind": "batch-reply",
            "id": self.batch_id,
            "replies": tuple(reply.to_wire() for reply in self.replies),
        }

    def _text(self, depth: int) -> str:
        """The frame's text with its dict at ``depth`` (replies as in
        :meth:`BatchRequest._text`)."""
        depth += 1
        return ('{"$t":"dict","v":[["kind","batch-reply"],["id",'
                + _emit(self.batch_id, depth) + '],["replies",'
                + '{"$t":"tuple","v":['
                + ",".join([reply._text(depth + 1)
                            for reply in self.replies])
                + "]}]]}")

    def encode(self) -> bytes:
        """Marshal to wire bytes (rejects non-whitelisted results)."""
        return _encoded(self)

    @staticmethod
    def decode(data: bytes) -> "BatchReply":
        """Rebuild a batch reply from wire bytes."""
        wire = unmarshal(data)
        if not isinstance(wire, dict) or wire.get("kind") != "batch-reply":
            raise MarshalError(f"not a batch reply: {wire!r}")
        try:
            return BatchReply(
                batch_id=wire["id"],
                replies=tuple(CallReply.from_wire(item)
                              for item in wire["replies"]))
        except _FIELD_ERRORS as exc:
            raise _malformed("batch reply", exc) from exc


@dataclass(frozen=True)
class AuthRequest:
    """An AUTH frame: the first frame on an authenticated connection.

    Carries a shared bearer token; the server answers with an ordinary
    :class:`CallReply` (``ok=True`` on acceptance) so clients reuse the
    reply decoding they already have.  Servers that require a token
    refuse every other frame kind until an AUTH frame has been
    accepted, which is what keeps unauthenticated traffic away from
    ``dispatch`` entirely.  Token comparison on the server side is
    constant-time (:func:`hmac.compare_digest`), so the handshake does
    not leak prefix-match timing.
    """

    token: str
    call_id: int = field(default_factory=lambda: next_id("call"))

    def to_wire(self) -> Dict[str, Any]:
        """The AUTH frame as a marshallable dict."""
        return {
            "kind": "auth",
            "token": self.token,
            "id": self.call_id,
        }

    def _text(self, depth: int) -> str:
        """The frame's text with its dict at ``depth``."""
        depth += 1
        return ('{"$t":"dict","v":[["kind","auth"],["token",'
                + _emit(self.token, depth) + '],["id",'
                + _emit(self.call_id, depth) + "]]}")

    def encode(self) -> bytes:
        """Marshal to wire bytes."""
        return _encoded(self)

    @staticmethod
    def from_wire(wire: Any) -> "AuthRequest":
        """Rebuild an AUTH frame from its marshallable dict form."""
        if not isinstance(wire, dict) or wire.get("kind") != "auth":
            raise MarshalError(f"not an auth request: {wire!r}")
        try:
            return AuthRequest(token=str(wire["token"]), call_id=wire["id"])
        except _FIELD_ERRORS as exc:
            raise _malformed("auth request", exc) from exc

    @staticmethod
    def decode(data: bytes) -> "AuthRequest":
        """Rebuild an AUTH frame from wire bytes."""
        return AuthRequest.from_wire(unmarshal(data))


def decode_request(data: bytes):
    """Decode an incoming request frame: a call, a batch, or AUTH.

    The TCP server (:class:`repro.server.AsyncRMIServer`) uses this so
    one socket carries every frame kind interchangeably.
    """
    wire = unmarshal(data)
    kind = wire.get("kind") if isinstance(wire, dict) else None
    if kind == "batch":
        return BatchRequest.from_wire(wire)
    if kind == "auth":
        return AuthRequest.from_wire(wire)
    return CallRequest.from_wire(wire)
