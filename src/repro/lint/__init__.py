"""repro.lint: static analysis for distributed IP-based designs.

Two analyzer families behind one rule registry:

* **design lint** -- structural rules over Design/Circuit/Netlist
  objects, catching defects (unconnected ports, conflicting drivers,
  width mismatches, combinational loops, phantom fault sites, null
  estimator setups) before any simulation runs;
* **static code analysis** -- ``ast``-based rules over RMI servant
  sources, proving purity of cacheable methods, marshallability of
  remote returns, and absence of IP privacy leaks without executing
  any servant code.

Concurrency defects (shared id sequences, blocking the event loop,
fork hazards, unguarded servant state, hash-ordered replies) are not
linted: behavioural tests under ``tests/server`` and
``tests/differential`` catch them by running the code.

Run ``repro lint`` from the CLI, or :func:`run_lint` /
:func:`lint_sources` from Python.  The rule catalog lives in
``docs/lint.md`` and mirrors :func:`all_rules`.
"""

from .design import lint_circuit, lint_design, lint_setup
from .findings import Finding, Severity
from .netlist import lint_fault_list, lint_netlist
from .registry import (Rule, all_rules, filter_suppressed, finding, rule)
from .runner import (format_findings, run_lint, severity_counts,
                     sort_findings)
from .servants import lint_servant_source, lint_sources

__all__ = [
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
    "format_findings",
    "severity_counts",
    "sort_findings",
]
