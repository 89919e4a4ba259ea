"""The rule registry: stable codes, default severities, suppression.

Every shipped rule is declared here, in one place, so the catalog in
``docs/lint.md`` and the ``repro lint`` CLI stay in sync with the
analyzers.  Codes are stable across releases (``JCD0xx`` -- JavaCAD
Design); retired codes are never reused.

Suppression works per run: pass ``suppress={"JCD002", ...}`` to the
library API or ``--suppress JCD002`` to the CLI.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from .findings import Finding, Severity


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    code: str
    """Stable identifier, e.g. ``JCD001``."""

    name: str
    """Short kebab-case name, e.g. ``unconnected-input-port``."""

    severity: Severity
    """Default severity of the rule's findings."""

    description: str
    """One-line description for the rule catalog."""


_RULES: Dict[str, Rule] = {}

_CODE_RE = re.compile(r"^JCD\d{3}$")


def register_rule(code: str, name: str, severity: Severity,
                  description: str) -> Rule:
    """Register a rule under a stable ``JCD0xx`` code."""
    if not _CODE_RE.match(code):
        raise ValueError(f"rule code {code!r} does not match JCDnnn")
    if code in _RULES:
        raise ValueError(f"rule code {code} is already registered "
                         f"({_RULES[code].name})")
    registered = Rule(code, name, severity, description)
    _RULES[code] = registered
    return registered


def rule(code: str) -> Rule:
    """Look a rule up by code."""
    try:
        return _RULES[code]
    except KeyError:
        raise ValueError(f"unknown rule code {code!r}") from None


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, sorted by code."""
    return tuple(_RULES[code] for code in sorted(_RULES))


def finding(code: str, message: str, target: str,
            severity: "Severity | None" = None) -> Finding:
    """Build a :class:`Finding` for a registered rule.

    ``severity`` overrides the rule default (rules may downgrade a
    borderline case to a warning without registering a second code).
    """
    declared = rule(code)
    return Finding(code, severity or declared.severity, message, target)


def check_codes(codes: Iterable[str]) -> Set[str]:
    """Validate a suppression set; raises on unknown codes."""
    wanted = set(codes)
    for code in wanted:
        rule(code)  # raises ValueError on unknown codes
    return wanted


def filter_suppressed(findings: Iterable[Finding],
                      suppress: Iterable[str] = ()
                      ) -> Tuple[List[Finding], int]:
    """Drop findings whose code is suppressed; returns (kept, dropped)."""
    codes = check_codes(suppress)
    kept: List[Finding] = []
    dropped = 0
    for item in findings:
        if item.code in codes:
            dropped += 1
        else:
            kept.append(item)
    return kept, dropped


# ---------------------------------------------------------------------------
# The shipped rule catalog (docs/lint.md mirrors this table).
# ---------------------------------------------------------------------------

# -- design lint (each structure's findings(), lint.design, lint.netlist) --
register_rule(
    "JCD001", "unconnected-input-port", Severity.ERROR,
    "An input port is not attached to any connector; it would read X "
    "forever during simulation.")
register_rule(
    "JCD002", "dangling-connector", Severity.WARNING,
    "A connector has fewer than two endpoints inside the circuit; "
    "values set on it go nowhere.")
register_rule(
    "JCD003", "connector-drivers", Severity.ERROR,
    "A connector has more than one pure output driving it, or no "
    "endpoint that can drive it at all.")
register_rule(
    "JCD005", "silent-module", Severity.WARNING,
    "A module has readable ports but overrides none of the event "
    "handling hooks; every token sent to it is silently dropped.")
register_rule(
    "JCD006", "combinational-loop", Severity.ERROR,
    "A netlist contains a combinational cycle; the offending net/gate "
    "path is reported in order.")
register_rule(
    "JCD007", "undriven-net", Severity.ERROR,
    "A gate input or primary output reads a net that no gate or "
    "primary input drives.")
register_rule(
    "JCD008", "unknown-fault-site", Severity.ERROR,
    "A fault list references a net, gate or pin that does not exist "
    "in the netlist it targets.")
register_rule(
    "JCD009", "uncovered-parameter", Severity.WARNING,
    "An estimation setup requests a parameter that no module in the "
    "circuit has a candidate estimator for; only null estimates would "
    "be produced.")

# Retired codes, never reused:
# JCD004 (width-mismatch) and JCD003's "more than two endpoints" arm
# went because Connector.attach refuses both as the wiring is built;
# they fired only on a connector whose private endpoint list was
# edited by hand.
# JCD010-JCD013 (impure-pure-method, unmarshallable-return,
# privacy-leak, undeclared-pure-method) went with the servant source
# analyzer; tests/ip/test_servant_contracts.py checks the same
# contracts by calling the servants and reading their replies.
# JCD014-JCD018 (global-counter-on-dispatch-path, blocking-call-in-async,
# fork-unsafe-state, unguarded-shared-mutation, nondeterministic-marshal)
# went with the concurrency call graph; behavioural tests in
# tests/server and tests/differential catch those defects by running
# the code.  JCD019 (stale-counter-site) went with the hand-kept
# counter inventory it policed.
