"""RMI-like distributed object substrate with restricted marshalling."""

from .batching import DEFAULT_MAX_BATCH, BatchingTransport
from .caching import PURE_METHODS, CachePolicy, CachingTransport
from .marshal import marshal, payload_size, register_value_type, unmarshal
from .protocol import (AuthRequest, BatchReply, BatchRequest, CallReply,
                       CallRequest, decode_request)
from .tlsconfig import client_ssl_context, server_ssl_context
from .registry import Binding, Registry
from .security import SecurityPolicy, default_policy_for
from .server import JavaCADServer, ServerCallContext, current_server_context
from .stub import RemoteStub
from .transport import (InProcessTransport, TcpTransport, Transport,
                        TransportStats)
from .wire import base_transport_of, wrap_transport

__all__ = [
    "marshal", "payload_size", "register_value_type", "unmarshal",
    "AuthRequest", "BatchReply", "BatchRequest", "CallReply",
    "CallRequest", "decode_request",
    "client_ssl_context", "server_ssl_context",
    "Binding", "Registry",
    "SecurityPolicy", "default_policy_for",
    "JavaCADServer", "ServerCallContext", "current_server_context",
    "RemoteStub",
    "InProcessTransport", "TcpTransport", "Transport", "TransportStats",
    "DEFAULT_MAX_BATCH", "BatchingTransport",
    "PURE_METHODS", "CachePolicy", "CachingTransport",
    "base_transport_of", "wrap_transport",
]
