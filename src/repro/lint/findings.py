"""Findings and severities: the common currency of every lint rule.

A :class:`Finding` is one diagnostic tied to a stable rule code
(``JCD0xx``), a severity, a human-readable message and a *target* -- a
dotted design location (``circuit.module.port``).  Findings are plain
frozen values so they can be sorted, deduplicated, JSON-exported and
asserted on in tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict


class Severity(enum.IntEnum):
    """How bad a finding is; orderable so findings sort worst first."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic produced by a rule."""

    code: str
    """Stable rule code, e.g. ``JCD001``."""

    severity: Severity
    """Severity of this particular finding (rules may downgrade)."""

    message: str
    """Human-readable description of the defect."""

    target: str
    """Where: a dotted design path."""

    def as_dict(self) -> Dict[str, Any]:
        """JSON-exportable representation (the ``--format json`` shape)."""
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "target": self.target,
        }

    def format(self) -> str:
        """One-line text rendering: ``target: severity JCD0xx message``."""
        return f"{self.target}: {self.severity} {self.code} {self.message}"
