"""Telemetry: metrics and tracing for the simulation substrate.

The paper's usability argument rests on knowing where each remote
call's time goes; this package is the reproduction's measurement
substrate.  It provides:

* :class:`MetricsRegistry` -- thread-safe counters, gauges and bucketed
  histograms (:mod:`repro.telemetry.metrics`);
* :class:`Tracer` / :class:`Span` -- nested spans with dual wall-clock
  and virtual-clock timestamps (:mod:`repro.telemetry.trace`);
* exporters for Chrome ``about:tracing`` files and JSON summaries
  (:mod:`repro.telemetry.export`);
* the process-wide :data:`TELEMETRY` switchboard with a
  zero-overhead-when-disabled guard (:mod:`repro.telemetry.runtime`).

See ``docs/observability.md`` for the model and how to read a trace.
"""

from .export import (chrome_trace_events, export_chrome_trace,
                     export_metrics_json, export_summary, span_summary)
from .metrics import (DEFAULT_BYTES_BUCKETS, DEFAULT_TIME_BUCKETS, Counter,
                      Gauge, Histogram, MetricsRegistry)
from .runtime import TELEMETRY, Telemetry, telemetry_session
from .trace import Span, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_BYTES_BUCKETS", "DEFAULT_TIME_BUCKETS",
    "Span", "Tracer",
    "chrome_trace_events", "export_chrome_trace", "export_metrics_json",
    "export_summary", "span_summary",
    "TELEMETRY", "Telemetry", "telemetry_session",
]
