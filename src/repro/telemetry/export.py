"""Exporters: Chrome trace-event files and JSON metric summaries.

``export_chrome_trace`` writes the ``traceEvents`` JSON consumed by
``chrome://tracing`` / Perfetto: one complete (``"ph": "X"``) event per
span, with microsecond ``ts``/``dur`` relative to the tracer epoch and
the virtual-clock interval carried in ``args``.  Events that worker
processes shipped back are merged in under their own pid, and
everything is sorted by ``ts`` so the file is monotonic regardless of
finish order.

``export_metrics_json`` dumps a :class:`MetricsRegistry` snapshot;
``export_summary`` combines both plus per-category span aggregates.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, IO, List, Tuple, Union

from .metrics import MetricsRegistry
from .trace import Tracer

PathOrFile = Union[str, "os.PathLike[str]", IO[str]]


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """Own spans plus worker events as Chrome dicts, sorted by ``ts``."""
    pid = os.getpid()
    events: List[Dict[str, Any]] = []
    thread_names: Dict[Tuple[int, int], str] = {}
    for span in tracer.spans:
        args = dict(span.args)
        if span.virtual_start is not None:
            args["virtual_start_s"] = span.virtual_start
            args["virtual_end_s"] = span.virtual_end
            args["virtual_duration_s"] = span.virtual_duration
        if span.parent_id is not None:
            args["parent_span_id"] = span.parent_id
        args["span_id"] = span.span_id
        events.append({
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "ts": round(span.wall_start * 1e6, 3),
            "dur": round(max(0.0, span.wall_duration) * 1e6, 3),
            "pid": pid,
            "tid": span.thread_id,
            "args": args,
        })
        thread_names.setdefault((pid, span.thread_id), span.thread_name)
    for event in tracer.worker_events:
        if event["ph"] == "M":
            thread_names.setdefault((event["pid"], event["tid"]),
                                    event["args"]["name"])
        else:
            events.append(event)
    events.sort(key=lambda event: (event["ts"], event["pid"],
                                   event["tid"]))
    # Thread-name metadata events let the viewer label each row.
    metadata = [{
        "name": "thread_name",
        "ph": "M",
        "pid": owner,
        "tid": tid,
        "args": {"name": name},
    } for (owner, tid), name in sorted(thread_names.items())]
    return metadata + events


def _dump(payload: Dict[str, Any], destination: PathOrFile) -> None:
    if hasattr(destination, "write"):
        json.dump(payload, destination, indent=1)  # type: ignore[arg-type]
        return
    with open(destination, "w") as handle:
        json.dump(payload, handle, indent=1)


def export_chrome_trace(tracer: Tracer,
                        destination: PathOrFile) -> Dict[str, Any]:
    """Write a Chrome-loadable trace file; returns the payload."""
    payload = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.telemetry"},
    }
    _dump(payload, destination)
    return payload


def export_metrics_json(metrics: MetricsRegistry,
                        destination: PathOrFile) -> Dict[str, Any]:
    """Write the registry snapshot as JSON; returns the payload."""
    payload = {"metrics": metrics.snapshot()}
    _dump(payload, destination)
    return payload


def span_summary(tracer: Tracer) -> Dict[str, Dict[str, Any]]:
    """Aggregate spans per name: count plus wall/virtual totals."""
    summary: Dict[str, Dict[str, Any]] = {}
    for span in tracer.spans:
        entry = summary.setdefault(span.name, {
            "category": span.category, "count": 0,
            "wall_seconds": 0.0, "virtual_seconds": 0.0,
        })
        entry["count"] += 1
        entry["wall_seconds"] += max(0.0, span.wall_duration)
        virtual = span.virtual_duration
        if virtual is not None:
            entry["virtual_seconds"] += max(0.0, virtual)
    return summary


def export_summary(metrics: MetricsRegistry, tracer: Tracer,
                   destination: PathOrFile) -> Dict[str, Any]:
    """Write a combined metrics + span-aggregate JSON summary."""
    payload = {
        "metrics": metrics.snapshot(),
        "spans": span_summary(tracer),
    }
    _dump(payload, destination)
    return payload
