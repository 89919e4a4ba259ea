"""Tokens: the general message-passing engine of the simulator.

Tokens are not limited to functional events (changes of signal values);
they also traverse the design to collect information from modules, set up
runtime parameters, and let modules trigger themselves.  A scheduler
handles scheduling and delivery of all tokens, and a newly created token
is automatically joined to the scheduler that delivered the event being
processed -- this is what makes concurrent schedulers interference-free.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .module import ModuleSkeleton
    from .port import Port
    from .signal import SignalValue

# Token ids appear only in __repr__ output, never in marshalled bytes
# (the scheduler heap-orders events with its own per-instance _seq
# counter), so concurrent tenants sharing this sequence is harmless.
_token_ids = itertools.count(1)


class Token:
    """Superclass of every event handled by a scheduler.

    Attributes are populated by the scheduler at scheduling time:
    ``time`` is the simulated delivery time and ``scheduler_id`` the
    unique identifier of the scheduler that owns the token.
    """

    __slots__ = ("token_id", "target", "time", "scheduler_id")

    def __init__(self, target: "ModuleSkeleton"):
        self.token_id = next(_token_ids)
        self.target = target
        self.time: float = 0.0
        self.scheduler_id: Optional[int] = None

    @property
    def kind(self) -> str:
        """Short lowercase kind tag used for dispatch and tracing."""
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        target = self.target.name if self.target is not None else "?"
        return f"{self.kind}(#{self.token_id} -> {target} @ {self.time})"


class SignalToken(Token):
    """A functional event: a new value arriving at a module port."""

    __slots__ = ("port", "value")

    def __init__(self, target: "ModuleSkeleton", port: "Port",
                 value: "SignalValue"):
        # Token.__init__, flat: one of these is built per signal event.
        self.token_id = next(_token_ids)
        self.target = target
        self.time = 0.0
        self.scheduler_id = None
        self.port = port
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SignalToken(#{self.token_id} {self.port.full_name}="
                f"{self.value!r} @ {self.time})")


class SelfTriggerToken(Token):
    """A token a module schedules for itself (e.g. clock generators)."""

    __slots__ = ("tag", "payload")

    def __init__(self, target: "ModuleSkeleton", tag: str = "tick",
                 payload: Any = None):
        super().__init__(target)
        self.tag = tag
        self.payload = payload


class EstimationToken(Token):
    """A token asking a module to evaluate its estimators.

    At the end of each simulation time instant the controller sends every
    module an estimation token carrying the active setup; the module looks
    up the estimator chosen for each requested parameter and deposits the
    resulting :class:`~repro.estimation.parameter.ParamValue` objects into
    ``results`` (a sink shared with the controller).
    """

    __slots__ = ("setup", "results")

    def __init__(self, target: "ModuleSkeleton", setup: Any, results: Any):
        super().__init__(target)
        self.setup = setup
        self.results = results


class ControlToken(Token):
    """A non-functional command token (reset, configure, query...)."""

    __slots__ = ("command", "payload")

    def __init__(self, target: "ModuleSkeleton", command: str,
                 payload: Any = None):
        super().__init__(target)
        self.command = command
        self.payload = payload
