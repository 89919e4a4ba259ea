"""Plain-text table/series formatting and the benchmark telemetry hook.

The benchmarks print the same rows and series the paper reports, so a
run's console output can be compared to Tables 1-2 / Figure 3 at a
glance; EXPERIMENTS.md records the comparison permanently.

This module is also the benchmarks' doorway into
:mod:`repro.telemetry`: wrap any harness call in
:func:`telemetry_session` (or set ``REPRO_TRACE_OUT`` /
``REPRO_METRICS_OUT`` when running ``pytest benchmarks/``) and the run
dumps a Chrome trace and/or a JSON metrics snapshot.  See
``docs/observability.md``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..telemetry import telemetry_session

__all__ = [
    "ascii_plot", "format_series", "format_table", "telemetry_session",
    "write_bench_report",
]


def write_bench_report(name: str, payload: Dict[str, Any],
                       directory: str = "") -> str:
    """Persist a benchmark's headline numbers as ``BENCH_<name>.json``.

    This is the perf-trajectory hook: a benchmark records its wall
    times/speedups/coverage once per run, and future PRs regress
    against the committed or CI-archived snapshot.  ``directory``
    defaults to ``$REPRO_BENCH_DIR`` or the current directory; the file
    is written with sorted keys so diffs stay stable.
    """
    directory = directory or os.environ.get("REPRO_BENCH_DIR", ".")
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned monospace table."""
    materialized: List[List[str]] = [[str(cell) for cell in row]
                                     for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append("  ".join(header.ljust(widths[i])
                           for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(title: str, points: Sequence[Tuple[object, ...]],
                  labels: Sequence[str]) -> str:
    """Render a figure's data series as labelled columns."""
    header = [title]
    header.append(format_table(labels, points))
    return "\n".join(header)


def ascii_plot(points: Sequence[Tuple[float, float]], width: int = 60,
               height: int = 12, label: str = "") -> str:
    """A rough ASCII rendering of one (x, y) series, for console output."""
    if not points:
        return "(no data)"
    xs = [float(x) for x, _y in points]
    ys = [float(y) for _x, y in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in points:
        col = int((float(x) - x_min) / x_span * (width - 1))
        row = int((float(y) - y_min) / y_span * (height - 1))
        grid[height - 1 - row][col] = "*"
    lines = [f"{label} (y: {y_min:.1f}..{y_max:.1f}, "
             f"x: {x_min:.0f}..{x_max:.0f})"]
    lines.extend("".join(row) for row in grid)
    return "\n".join(lines)
