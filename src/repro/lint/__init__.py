"""repro.lint: static analysis for distributed IP-based designs.

Structural rules over Design/Circuit/Netlist objects, behind one rule
registry, catch defects (unconnected ports, conflicting drivers, width
mismatches, combinational loops, phantom fault sites, null estimator
setups) before any simulation runs.

Code defects are not linted: behavioural tests catch them by running
the code.  ``tests/ip/test_servant_contracts.py`` calls every servant
and checks that its replies marshal, carry no private netlist name
and, for cacheable methods, repeat without touching servant state;
tests under ``tests/server`` and ``tests/differential`` catch the
concurrency defects (shared id sequences, blocking the event loop,
fork hazards, hash-ordered replies).

Run ``repro lint`` from the CLI, or :func:`run_lint` from Python.  The
rule catalog lives in ``docs/lint.md`` and mirrors :func:`all_rules`.
"""

from .design import lint_circuit, lint_design, lint_setup
from .findings import Finding, Severity
from .netlist import lint_fault_list, lint_netlist
from .registry import (Rule, all_rules, filter_suppressed, finding, rule)
from .runner import (format_findings, run_lint, severity_counts,
                     sort_findings)

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
    "run_lint",
    "format_findings",
    "severity_counts",
    "sort_findings",
]
