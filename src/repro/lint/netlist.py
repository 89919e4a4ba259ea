"""Fault-list lint: every fault names a site its netlist has (JCD008).

A netlist reports its own undriven nets and loop
(:meth:`~repro.gates.netlist.Netlist.findings`); a fault list is
checked against the netlist it targets.
"""

from __future__ import annotations

from typing import List, Optional

from ..faults.faultlist import FaultList
from ..gates.netlist import Netlist
from .findings import Finding
from .registry import finding


def lint_fault_list(fault_list: FaultList,
                    netlist: Netlist,
                    component: Optional[str] = None) -> List[Finding]:
    """Check that every fault in a list targets a real site (JCD008).

    Stem faults must name an existing net; branch faults must also name
    an existing gate and a pin index inside that gate's input range.
    """
    findings: List[Finding] = []
    prefix = component or fault_list.component
    gates = {gate.name: gate for gate in netlist.gates}
    for name, fault in fault_list.items():
        target = f"{prefix}.{name}"
        if not netlist.has_net(fault.net):
            findings.append(finding(
                "JCD008",
                f"fault {name!r} targets net {fault.net!r}, which does "
                f"not exist in netlist {netlist.name!r}",
                target))
            continue
        if fault.is_stem:
            continue
        gate = gates.get(fault.gate_name)
        if gate is None:
            findings.append(finding(
                "JCD008",
                f"branch fault {name!r} targets gate "
                f"{fault.gate_name!r}, which does not exist in netlist "
                f"{netlist.name!r}",
                target))
        elif not 0 <= fault.pin < len(gate.inputs):
            findings.append(finding(
                "JCD008",
                f"branch fault {name!r} targets pin {fault.pin} of gate "
                f"{fault.gate_name!r}, which has only "
                f"{len(gate.inputs)} input(s)",
                target))
        elif gate.inputs[fault.pin] != fault.net:
            findings.append(finding(
                "JCD008",
                f"branch fault {name!r} says pin {fault.pin} of gate "
                f"{fault.gate_name!r} reads {fault.net!r}, but it reads "
                f"{gate.inputs[fault.pin]!r}",
                target))
    return findings
