"""RMI-like distributed object substrate with restricted marshalling."""

from .._lazy import attach
# Bound now: the function ``marshal`` shadows its own module's name,
# which importing ``repro.rmi.marshal`` later would otherwise rebind.
from .marshal import marshal, payload_size, register_value_type, unmarshal

__getattr__, __dir__, _lazy_names = attach(__name__, {
    "batching": ("DEFAULT_MAX_BATCH", "BatchingTransport"),
    "caching": ("PURE_METHODS", "CachePolicy", "CachingTransport"),
    "protocol": ("AuthRequest", "BatchReply", "BatchRequest", "CallReply",
                 "CallRequest", "decode_request"),
    "tlsconfig": ("client_ssl_context", "server_ssl_context"),
    "registry": ("Binding", "Registry"),
    "security": ("SecurityPolicy", "default_policy_for"),
    "server": ("JavaCADServer", "ServerCallContext", "current_server_context"),
    "stub": ("RemoteStub",),
    "transport": ("InProcessTransport", "TcpTransport", "Transport",
                  "TransportStats"),
    "wire": ("base_transport_of", "wrap_transport"),
})

__all__ = ["marshal", "payload_size", "register_value_type", "unmarshal",
           *_lazy_names]
