"""Design lint: what a circuit cannot check about itself.

A built circuit reports its own structural defects
(:meth:`~repro.core.design.Circuit.findings`).  These rules add the two
that lie outside it: a design whose build fails, and an estimation
setup that can only ever produce null estimates.
"""

from __future__ import annotations

from typing import Any, List

from ..core.design import Circuit, Design
from ..core.errors import DesignError
from .findings import Finding
from .registry import finding


def lint_design(design: Design) -> List[Finding]:
    """Build a design and lint the resulting circuit.

    A design whose :meth:`~repro.core.design.Design.build` raises is
    reported as a finding rather than crashing the lint run, so one
    broken design does not hide the findings of the others.
    """
    circuit = design.circuit
    if circuit is None:
        try:
            circuit = design.build()
        except DesignError as exc:
            return [finding("JCD001", f"design {design.name!r} failed to "
                            f"build: {exc}", design.name)]
    return list(circuit.findings())


def lint_setup(setup: Any, circuit: Circuit) -> List[Finding]:
    """Check an estimation setup against the circuit it will evaluate.

    Flags every requested parameter for which *no* module in the
    circuit registers a candidate estimator -- the setup would bind
    only null estimators and every estimate would be null (JCD009).
    """
    findings: List[Finding] = []
    parameters = getattr(setup, "parameters", ())
    name = getattr(setup, "name", type(setup).__name__)
    for parameter in parameters:
        if not any(module.candidate_estimators(parameter)
                   for module in circuit.modules):
            findings.append(finding(
                "JCD009",
                f"setup {name!r} evaluates parameter {parameter!r} but "
                f"no module in circuit {circuit.name!r} has a candidate "
                f"estimator for it",
                f"{circuit.name}.{name}.{parameter}"))
    return findings
