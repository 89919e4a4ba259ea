"""Remote stubs: transparent proxies for provider-side objects.

A stub carries only the object's public name and its remotely callable
method names -- no IP-protected information whatsoever.  Attribute
access on a stub produces a bound proxy, so remote objects are used
exactly like local ones (the paper's "the instantiation of a remote
module is identical to the instantiation of any local module").
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Sequence

from ..core.errors import RemoteError
from .transport import Transport


class RemoteStub:
    """A client-side proxy for one remote object."""

    def __init__(self, transport: Transport, object_name: str,
                 methods: Sequence[str]):
        # Avoid __setattr__ recursion by writing through object.__setattr__.
        object.__setattr__(self, "transport", transport)
        object.__setattr__(self, "object_name", object_name)
        object.__setattr__(self, "methods", tuple(methods))
        object.__setattr__(self, "calls", 0)
        object.__setattr__(self, "errors", 0)

    # -- invocation ---------------------------------------------------------

    def invoke(self, method: str, *args: Any, oneway: bool = False,
               **kwargs: Any) -> Any:
        """Invoke a remote method explicitly.

        ``calls`` counts invocations that the transport completed;
        ``errors`` counts invocations the transport raised on.  A call
        rejected locally (unknown method) touches neither counter.
        """
        if method not in self.methods:
            raise RemoteError(
                f"stub for {self.object_name!r} exports no method "
                f"{method!r} (available: {', '.join(self.methods)})")
        try:
            result = self.transport.invoke(self.object_name, method, args,
                                           kwargs, oneway=oneway)
        except Exception:
            object.__setattr__(self, "errors", self.errors + 1)
            raise
        object.__setattr__(self, "calls", self.calls + 1)
        return result

    def invoke_oneway(self, method: str, *args: Any, **kwargs: Any) -> None:
        """Fire-and-forget invocation (non-blocking remote work)."""
        self.invoke(method, *args, oneway=True, **kwargs)

    def __getattr__(self, name: str) -> Callable[..., Any]:
        # Reached only for a name nothing else answers; its proxy is
        # bound once and answers every later lookup itself.
        methods = object.__getattribute__(self, "methods")
        if name in methods:
            proxy = partial(self.invoke, name)
            object.__setattr__(self, name, proxy)
            return proxy
        raise AttributeError(
            f"stub for {self.object_name!r} has no attribute {name!r}")

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("remote stubs are read-only proxies")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RemoteStub({self.object_name!r}, "
                f"methods={list(self.methods)})")
