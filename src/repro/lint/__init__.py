"""repro.lint: static analysis for distributed IP-based designs.

Three analyzer families behind one rule registry:

* **design lint** -- structural rules over Design/Circuit/Netlist
  objects, catching defects (unconnected ports, conflicting drivers,
  width mismatches, combinational loops, phantom fault sites, null
  estimator setups) before any simulation runs;
* **static code analysis** -- ``ast``-based rules over RMI servant
  sources, proving purity of cacheable methods, marshallability of
  remote returns, and absence of IP privacy leaks without executing
  any servant code;
* **concurrency analysis** -- a name-based call graph over the whole
  sweep (:mod:`repro.lint.callgraph`) backing rules for global
  counters on dispatch paths, blocking calls in async code, fork
  hazards, unguarded shared-state mutation and nondeterministic
  marshalling.

Run ``repro lint`` from the CLI, or :func:`run_lint` /
:func:`run_source_lint` from Python.  The rule catalog lives in
``docs/lint.md`` and mirrors :func:`all_rules`.
"""

from .callgraph import CallGraph
from .concurrency import (lint_call_graph, lint_concurrency,
                          lint_concurrency_sources)
from .design import lint_circuit, lint_design, lint_setup
from .findings import Finding, Severity
from .netlist import lint_fault_list, lint_netlist
from .registry import (Rule, all_rules, filter_suppressed, finding, rule)
from .runner import (format_findings, max_severity, run_lint,
                     run_source_lint, severity_counts, sort_findings)
from .servants import lint_servant_source, lint_sources

__all__ = [
    "CallGraph",
    "lint_call_graph",
    "lint_concurrency",
    "lint_concurrency_sources",
    "Finding",
    "Severity",
    "Rule",
    "all_rules",
    "rule",
    "finding",
    "filter_suppressed",
    "lint_circuit",
    "lint_design",
    "lint_setup",
    "lint_netlist",
    "lint_fault_list",
    "lint_servant_source",
    "lint_sources",
    "run_lint",
    "run_source_lint",
    "format_findings",
    "max_severity",
    "severity_counts",
    "sort_findings",
]
