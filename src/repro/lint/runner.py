"""Entry points: dispatch, suppression, formatting, telemetry.

:func:`run_lint` is the library API -- hand it a Design, Circuit or
Netlist (plus, optionally, a fault list or estimation setup to check
against it) and get back the combined findings, already filtered
through the per-run suppression set.  Every run emits ``lint.*``
telemetry counters when telemetry is enabled, so CI dashboards can
track finding volume the same way they track cache hit rates.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, List, Optional, Sequence

from ..core.design import Circuit, Design
from ..gates.netlist import Netlist
from ..telemetry.runtime import TELEMETRY
from .design import lint_circuit, lint_design, lint_setup
from .findings import Finding, Severity
from .netlist import lint_fault_list, lint_netlist
from .registry import filter_suppressed


def run_lint(subject: Any,
             fault_list: Any = None,
             setup: Any = None,
             suppress: Iterable[str] = ()) -> List[Finding]:
    """Lint a Design, Circuit or Netlist; returns kept findings.

    ``fault_list`` (netlist subjects) adds the JCD008 fault-site rules;
    ``setup`` (design/circuit subjects) adds the JCD009 estimator
    coverage rule.  ``suppress`` drops findings by code for this run.
    """
    findings: List[Finding] = []
    circuit: Optional[Circuit] = None
    if isinstance(subject, Design):
        findings.extend(lint_design(subject))
        circuit = subject.circuit
    elif isinstance(subject, Circuit):
        findings.extend(lint_circuit(subject))
        circuit = subject
    elif isinstance(subject, Netlist):
        findings.extend(lint_netlist(subject))
        if fault_list is not None:
            findings.extend(lint_fault_list(fault_list, subject))
    else:
        raise TypeError(
            f"run_lint expects a Design, Circuit or Netlist, got "
            f"{type(subject).__name__}")
    if setup is not None and circuit is not None:
        findings.extend(lint_setup(setup, circuit))
    kept, dropped = filter_suppressed(findings, suppress)
    record_lint_run(kept, dropped)
    return kept


def record_lint_run(kept: Sequence[Finding], dropped: int = 0) -> None:
    """Emit ``lint.*`` telemetry counters for one analyzer pass."""
    if not TELEMETRY.enabled:
        return
    metrics = TELEMETRY.metrics
    metrics.counter("lint.runs").inc()
    metrics.counter("lint.findings").inc(len(kept))
    for item in kept:
        metrics.counter(f"lint.findings.{item.severity}").inc()
    if dropped:
        metrics.counter("lint.suppressed").inc(dropped)


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Stable display order: severity (worst first), then location."""
    return sorted(findings,
                  key=lambda f: (-int(f.severity), f.target,
                                 f.line or 0, f.code))


def format_findings(findings: Sequence[Finding],
                    fmt: str = "text") -> str:
    """Render findings as ``text`` (one line each) or ``json``."""
    ordered = sort_findings(findings)
    if fmt == "json":
        return json.dumps({
            "findings": [item.as_dict() for item in ordered],
            "counts": severity_counts(ordered),
        }, indent=2, sort_keys=True)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}; expected text or json")
    lines = [item.format() for item in ordered]
    lines.append(summary_line(ordered))
    return "\n".join(lines)


def severity_counts(findings: Iterable[Finding]) -> dict:
    """``{"error": n, "warning": n, "info": n}`` (zero-filled)."""
    counts = {str(severity): 0 for severity in Severity}
    for item in findings:
        counts[str(item.severity)] += 1
    return counts


def summary_line(findings: Sequence[Finding]) -> str:
    """Human summary: ``3 findings (2 errors, 1 warning)`` or clean."""
    if not findings:
        return "no findings"
    counts = severity_counts(findings)
    parts = [f"{count} {name}{'s' if count != 1 else ''}"
             for name, count in (("error", counts["error"]),
                                 ("warning", counts["warning"]),
                                 ("info", counts["info"]))
             if count]
    return f"{len(findings)} finding{'s' if len(findings) != 1 else ''} " \
           f"({', '.join(parts)})"
