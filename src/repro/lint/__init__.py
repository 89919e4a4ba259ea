"""repro.lint: static analysis for distributed IP-based designs.

Structural rules, behind one rule registry, catch defects
(unconnected ports, conflicting drivers, combinational loops, phantom
fault sites, null estimator setups) before any simulation runs.  A
structure reports its own defects: ``Circuit.findings()`` and
``Netlist.findings()`` return :class:`Finding` records, and
``Netlist.validate()`` raises the first error among them.  This package
holds the registry, the rules a structure cannot check alone (a design
that fails to build, a fault list or an estimation setup against its
target) and the runner that prints them all.

Code defects are not linted: behavioural tests catch them by running
the code.  ``tests/ip/test_servant_contracts.py`` calls every servant
and checks that its replies marshal, carry no private netlist name
and, for cacheable methods, repeat without touching servant state;
tests under ``tests/server`` and ``tests/differential`` catch the
concurrency defects (shared id sequences, blocking the event loop,
fork hazards, hash-ordered replies).

Run ``repro lint`` from the CLI, or :func:`run_lint` from Python.  The
rule catalog lives in ``docs/lint.md`` and mirrors :func:`all_rules`.
Names load on first use, so the structures import the registry without
loading the runner (which imports them).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "design": ("lint_design", "lint_setup"),
    "findings": ("Finding", "Severity"),
    "netlist": ("lint_fault_list",),
    "registry": ("Rule", "all_rules", "filter_suppressed", "finding",
                 "rule"),
    "runner": ("format_findings", "run_lint", "severity_counts",
               "sort_findings"),
})
