"""Explicit id scopes: where every marshalled id sequence comes from.

Call ids, session names, scheduler/module ids and connector auto-names
all end up in marshalled bytes (directly, or inside per-pattern session
strings and error messages), and frame sizes feed the virtual-clock
network model.  Two runs are therefore byte-identical only if they
draw the same ids, so the sequences cannot be process-wide globals
shared by whoever happens to run in the interpreter.

An :class:`IdScope` owns one sequence per kind, each starting at 1.
Code that needs an id calls :func:`next_id`, which draws from the
*current* scope: the one entered with :func:`id_scope` in the calling
context, or the process-default scope when none is.  The multi-tenant
server enters each connection's own scope around its dispatches, so a
tenant's ids are those of a fresh single-tenant process by
construction -- no lock, no swapping.  The current scope lives in a
:class:`contextvars.ContextVar`: threads do not inherit it on their
own, so code that starts a thread on a scope's behalf runs the target
through ``contextvars.copy_context().run``.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
from typing import Iterator, Optional

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


_default = IdScope()
_current: "contextvars.ContextVar[Optional[IdScope]]" = \
    contextvars.ContextVar("repro_id_scope", default=None)


def next_id(kind: str) -> int:
    """Draw the next ``kind`` id from the current scope: the one
    entered in this context, else the process default."""
    return (_current.get() or _default).next(kind)


@contextlib.contextmanager
def id_scope(scope: Optional[IdScope] = None) -> Iterator[IdScope]:
    """Make ``scope`` (default: a fresh one) current for the block.

    Re-entering the same scope later resumes its sequences; nesting
    restores the outer scope on exit.
    """
    if scope is None:
        scope = IdScope()
    token = _current.set(scope)
    try:
        yield scope
    finally:
        _current.reset(token)


def reset_default_scope() -> None:
    """Install a fresh process-default scope (ids restart at 1).

    For forked workers and benchmark reps that must look like a fresh
    process; scopes entered with :func:`id_scope` are unaffected.
    """
    global _default
    _default = IdScope()
