"""Exception hierarchy for the repro (JavaCAD reproduction) library.

All library-defined exceptions derive from :class:`ReproError` so that
callers can catch everything raised by the framework with a single
``except`` clause while still distinguishing subsystems.
"""

import math


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DesignError(ReproError):
    """Structural problem in a design: bad connection, port misuse, etc."""


class ConnectionError_(DesignError):
    """A connector was attached incorrectly (arity, direction, width)."""


class WidthMismatchError(DesignError):
    """Two connected endpoints disagree on bit width."""


class SimulationError(ReproError):
    """Runtime problem during event-driven simulation."""


class SchedulerInterferenceError(SimulationError):
    """An attempt was made to cross the boundary between two schedulers.

    The paper's scheduling mechanism guarantees that concurrently running
    schedulers cannot interfere; this error is raised when client code
    tries to schedule a token on a scheduler other than the one that
    delivered the current event.
    """


class EstimationError(ReproError):
    """Problem in the cost-estimation framework."""


class SetupError(EstimationError):
    """A setup controller could not satisfy a requested criterion."""


class ParallelExecutionError(ReproError):
    """A sharded multi-worker run failed (bad worker count, task error).

    When the failure is attributable to one shard, ``shard_index`` is
    its submission index, so the caller of a campaign can report
    *which* slice of the fault list poisoned the run.
    """

    def __init__(self, message: str, shard_index=None):
        super().__init__(message)
        self.shard_index = shard_index


class ParameterError(DesignError, EstimationError, ParallelExecutionError,
                     ValueError):
    """A number outside the range its parameter documents.

    Raised by :func:`check_positive` and :func:`check_count`, where the
    number enters.  It is a ``ValueError``, and also the ``DesignError``
    / ``EstimationError`` / ``ParallelExecutionError`` that the
    constructors calling the checkers raised before them.
    """


def check_positive(name: str, value: float, zero: bool = False) -> None:
    """Refuse ``value`` unless it is finite and positive.

    With ``zero``, zero is allowed as well.  The refusal is a
    :class:`ParameterError` naming ``name``.  ``value <= 0`` alone would
    let NaN through (every comparison with NaN is false), and an
    infinity too.
    """
    if not (math.isfinite(value) and (value > 0 or (zero and value == 0))):
        bound = "non-negative" if zero else "positive"
        raise ParameterError(
            f"{name} must be {bound} and finite, got {value!r}")


def check_count(name: str, value: int, minimum: int = 1) -> None:
    """Refuse ``value`` unless it is an integer of at least ``minimum``.

    The refusal is a :class:`ParameterError` naming ``name``.  ``value <
    minimum`` alone would let NaN through, and an infinity or a fraction
    too; a ``bool`` is an ``int`` to Python but never a count.
    """
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < minimum:
        raise ParameterError(
            f"expected an integer {name} >= {minimum}, got {value!r}")


class MarshalError(ReproError):
    """An object was rejected by the restricted RMI marshaller.

    Raised whenever a value outside the serialization whitelist -- in
    particular modules, designs, netlists, or private IP objects -- is
    about to cross the client/server boundary.
    """


class RemoteError(ReproError):
    """A remote method invocation failed (transport or servant error)."""


class SecurityViolationError(ReproError):
    """Downloaded (non-trusted) code attempted a forbidden operation."""


class FaultSimulationError(ReproError):
    """Problem during (virtual) fault simulation."""


class IPProtectionError(ReproError):
    """An operation would have disclosed IP-protected information."""


class BillingError(ReproError):
    """Problem in estimator billing (insufficient budget, unknown fee)."""
