"""The process-wide telemetry switchboard.

Instrumented hot paths (scheduler, RMI transports, estimators) all test
one boolean -- ``TELEMETRY.enabled`` -- before touching any instrument,
so a disabled run pays a single attribute check per site and allocates
nothing.  Enabling telemetry (directly or through
:func:`telemetry_session`) routes those same sites into the shared
:class:`~repro.telemetry.metrics.MetricsRegistry` and
:class:`~repro.telemetry.trace.Tracer`.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, Optional

from .export import export_chrome_trace, export_metrics_json
from .metrics import MetricsRegistry
from .trace import Tracer


class Telemetry:
    """One enabled flag + one metrics registry + one tracer."""

    def __init__(self) -> None:
        self.enabled: bool = False
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()

    def enable(self) -> None:
        """Turn instrumentation on for every guarded site."""
        self.enabled = True

    def disable(self) -> None:
        """Turn instrumentation off (data is kept until :meth:`reset`)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all collected metrics and spans."""
        self.metrics.reset()
        self.tracer.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return (f"Telemetry({state}, {len(self.metrics.names())} metrics, "
                f"{len(self.tracer.spans)} spans)")


TELEMETRY = Telemetry()
"""The process-wide telemetry instance every instrumented site consults."""


@contextlib.contextmanager
def telemetry_session(trace_out: Optional[Any] = None,
                      metrics_out: Optional[Any] = None,
                      reset: bool = True,
                      telemetry: Optional[Telemetry] = None
                      ) -> Iterator[Telemetry]:
    """Enable telemetry for a block and export the results on exit.

    ``trace_out`` receives a Chrome trace-event file, ``metrics_out`` a
    JSON metrics snapshot (either may be a path or an open text file).
    The previous enabled state is restored afterwards, so sessions can
    nest without a outer session being silently disabled.
    """
    active = telemetry or TELEMETRY
    if reset:
        active.reset()
    was_enabled = active.enabled
    active.enable()
    try:
        yield active
    finally:
        active.enabled = was_enabled
        if trace_out is not None:
            export_chrome_trace(active.tracer, trace_out)
        if metrics_out is not None:
            export_metrics_json(active.metrics, metrics_out)
