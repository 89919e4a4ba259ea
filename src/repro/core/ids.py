"""Explicit id scopes and connection contexts.

Call ids, session names, scheduler/module ids and connector auto-names
all end up in marshalled bytes (directly, or inside per-pattern session
strings and error messages), and frame sizes feed the virtual-clock
network model.  Two runs are therefore byte-identical only if they
draw the same ids, so the sequences cannot be process-wide globals
shared by whoever happens to run in the interpreter.

An :class:`IdScope` owns one sequence per kind, each starting at 1.
Code that needs an id calls :func:`next_id`, which draws from the
*current* scope: the one entered with :func:`id_scope` in the calling
context, or the process-default scope when none is.

A :class:`ConnectionContext` is one connection: its scope plus the
session state servants keep for its tenant.  The server enters it with
:func:`entered` around each dispatch, so a tenant's ids are those of a
fresh single-tenant process and its state dies with its connection.
Calls with no connection entered use the process-default context.

The current scope and connection each live in a
:class:`contextvars.ContextVar`: threads do not inherit them on their
own, so code that starts a thread on a scope's behalf runs the target
through ``contextvars.copy_context().run``.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import threading
from typing import Any, Dict, Hashable, Iterator, Optional

KINDS = ("call", "session", "negotiation", "scheduler", "module",
         "connector")
"""The id sequences a scope holds.  They stay separate sequences:
merging any two would change every id the paper's scenarios marshal."""


class IdScope:
    """One independent set of id sequences, each starting at 1."""

    __slots__ = ("_sequences",)

    def __init__(self) -> None:
        self._sequences = {kind: itertools.count(1) for kind in KINDS}

    def next(self, kind: str) -> int:
        """The next id of ``kind`` (advancing an ``itertools.count``
        is atomic, so threads sharing a scope never see a duplicate)."""
        return next(self._sequences[kind])


class ConnectionContext:
    """One connection: the ids it draws and its tenant's session state.

    ``scope`` None (an in-process connection) keeps the caller's scope.
    What servants keep in :meth:`sessions` lives as long as this object.
    """

    __slots__ = ("scope", "_owners", "_lock", "__weakref__")

    def __init__(self, scope: Optional[IdScope] = None) -> None:
        self.scope = scope
        self._owners: Dict[Any, Dict[Hashable, Any]] = {}
        self._lock = threading.Lock()

    def sessions(self, owner: Any) -> Dict[Hashable, Any]:
        """The per-session state ``owner`` keeps here (a dict).

        The lock covers in-process callers sharing one connection
        across threads; a served connection dispatches one at a time.
        """
        with self._lock:
            found = self._owners.get(owner)
            if found is None:
                found = self._owners[owner] = {}
            return found


_default = ConnectionContext(IdScope())
_scope: "contextvars.ContextVar[Optional[IdScope]]" = \
    contextvars.ContextVar("repro_id_scope", default=None)
_connection: "contextvars.ContextVar[Optional[ConnectionContext]]" = \
    contextvars.ContextVar("repro_connection", default=None)


def next_id(kind: str) -> int:
    """Draw the next ``kind`` id from the current scope: the one
    entered in this context, else the process default."""
    return (_scope.get() or _default.scope).next(kind)


def current_connection() -> ConnectionContext:
    """The connection served in this context, else the default one."""
    return _connection.get() or _default


@contextlib.contextmanager
def id_scope(scope: Optional[IdScope] = None) -> Iterator[IdScope]:
    """Make ``scope`` (default: a fresh one) current for the block.

    Re-entering the same scope later resumes its sequences; nesting
    restores the outer scope on exit.
    """
    if scope is None:
        scope = IdScope()
    token = _scope.set(scope)
    try:
        yield scope
    finally:
        _scope.reset(token)


class entered:
    """Serve ``context``'s connection for the block: its session state,
    and its scope if it has one.

    A class, not a generator: every served call enters one, and a
    generator-based context manager costs several times as much.
    """

    __slots__ = ("_context", "_tokens")

    def __init__(self, context: ConnectionContext) -> None:
        self._context = context

    def __enter__(self) -> ConnectionContext:
        context = self._context
        self._tokens = (_connection.set(context),
                        _scope.set(context.scope or _scope.get()))
        return context

    def __exit__(self, *exc_info: Any) -> None:
        token, scope_token = self._tokens
        _scope.reset(scope_token)
        _connection.reset(token)


def reset_default_context() -> None:
    """Install a fresh process-default context (ids restart at 1, no
    servant state).

    For forked workers and benchmark reps that must look like a fresh
    process; contexts and scopes entered explicitly are unaffected.
    """
    global _default
    _default = ConnectionContext(IdScope())
