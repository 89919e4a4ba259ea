"""Deterministic test generation (PODEM-style) for stuck-at faults.

The paper observes that "a good test sequence is IP that might need
protection" -- which presumes the provider can *generate* good test
sequences for its components.  This module supplies that provider-side
capability: a PODEM-flavoured branch-and-bound search over primary
input assignments, using three-valued good/faulty simulation for
implication and pruning, plus a test-set generator that runs random
patterns with fault dropping first and deterministic generation for the
survivors.

The search is complete (it proves untestability when it exhausts the
space) and bounded by a backtrack budget, after which a fault is
reported as aborted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.signal import Logic
from ..gates.netlist import Netlist
from ..gates.simulator import NetlistSimulator
from .faultlist import FaultList, build_fault_list
from .model import StuckAtFault

DETECTED = "detected"
UNTESTABLE = "untestable"
ABORTED = "aborted"


@dataclass(frozen=True)
class TestGenResult:
    """Outcome of deterministic generation for one fault."""

    status: str
    pattern: Optional[Dict[str, Logic]] = None
    backtracks: int = 0

    @property
    def found(self) -> bool:
        """Whether a detecting pattern was produced."""
        return self.status == DETECTED


def _support(netlist: Netlist, fault: StuckAtFault) -> Tuple[str, ...]:
    """Primary inputs that can influence detection of ``fault``.

    Conservatively, every PI in the transitive fan-in of any primary
    output reachable from the fault site, plus the fan-in of the site
    itself.  For most faults this trims the search space considerably.
    """
    # Forward reachability from the fault net.
    reachable: Set[str] = {fault.net}
    changed = True
    while changed:
        changed = False
        for gate in netlist.gates:
            if gate.output not in reachable and \
                    any(source in reachable for source in gate.inputs):
                reachable.add(gate.output)
                changed = True
    outputs = [net for net in netlist.outputs if net in reachable]
    # Backward fan-in of those outputs and of the fault site.
    needed: Set[str] = set(outputs) | {fault.net}
    changed = True
    while changed:
        changed = False
        for gate in netlist.gates:
            if gate.output in needed:
                for source in gate.inputs:
                    if source not in needed:
                        needed.add(source)
                        changed = True
    return tuple(net for net in netlist.inputs if net in needed)


def generate_test(netlist: Netlist, fault: StuckAtFault,
                  max_backtracks: int = 20_000) -> TestGenResult:
    """Find a single pattern detecting ``fault``, or prove none exists.

    Unassigned primary inputs are X; at every node of the search tree a
    good and a faulty three-valued simulation prune branches where every
    primary output already agrees with known values.  Returns a fully
    specified pattern (don't-cares filled with 0) on success.
    """
    simulator = NetlistSimulator(netlist)
    pis = _support(netlist, fault)
    if not pis and not netlist.is_input(fault.net):
        return TestGenResult(UNTESTABLE)
    assignment: Dict[str, Logic] = {net: Logic.X for net in netlist.inputs}
    backtracks = 0

    def outcome() -> str:
        good = simulator.evaluate(assignment)
        faulty = simulator.evaluate(assignment, fault=fault)
        maybe = False
        for net in netlist.outputs:
            g, f = good[net], faulty[net]
            if g.is_known and f.is_known:
                if g is not f:
                    return DETECTED
            else:
                maybe = True
        return "open" if maybe else "dead"

    def search(depth: int) -> str:
        nonlocal backtracks
        state = outcome()
        if state == DETECTED:
            return DETECTED
        if state == "dead":
            return UNTESTABLE
        if depth >= len(pis):
            return UNTESTABLE
        pi = pis[depth]
        for choice in (Logic.ZERO, Logic.ONE):
            assignment[pi] = choice
            result = search(depth + 1)
            if result == DETECTED:
                return DETECTED
            if result == ABORTED:
                return ABORTED
            backtracks += 1
            if backtracks > max_backtracks:
                assignment[pi] = Logic.X
                return ABORTED
        assignment[pi] = Logic.X
        return UNTESTABLE

    status = search(0)
    if status != DETECTED:
        return TestGenResult(status, backtracks=backtracks)
    pattern = {net: (value if value.is_known else Logic.ZERO)
               for net, value in assignment.items()}
    return TestGenResult(DETECTED, pattern=pattern,
                         backtracks=backtracks)


@dataclass
class TestSet:
    """A generated test set with per-fault accounting."""

    patterns: List[Dict[str, Logic]] = field(default_factory=list)
    detected: Dict[str, int] = field(default_factory=dict)
    untestable: List[str] = field(default_factory=list)
    aborted: List[str] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Detected / (detected + untestable + aborted + 0 undetected)."""
        total = len(self.detected) + len(self.untestable) \
            + len(self.aborted)
        return len(self.detected) / total if total else 1.0

    @property
    def testable_coverage(self) -> float:
        """Coverage over the faults that are provably testable."""
        testable = len(self.detected) + len(self.aborted)
        return len(self.detected) / testable if testable else 1.0


def generate_test_set(netlist: Netlist,
                      fault_list: Optional[FaultList] = None,
                      random_patterns: int = 32, seed: int = 0,
                      max_backtracks: int = 20_000,
                      engine: Optional[str] = None) -> TestSet:
    """Random-then-deterministic test generation with fault dropping.

    The classic ATPG flow: cheap random patterns first (each kept only
    if it detects something new), then PODEM for the survivors; faults
    the search proves untestable are reported as such.  ``engine``
    selects how candidate patterns are fault-simulated: the interpreted
    event path or the compiled PPSFP kernel (identical hits, so the
    generated test set is byte-identical either way); the PODEM search
    itself is always interpreted.
    """
    fault_list = fault_list or build_fault_list(netlist)
    rng = random.Random(seed)
    test_set = TestSet()
    remaining: List[str] = list(fault_list.names())

    # Imported lazily: repro.compiled depends on this package.
    from ..compiled import fault_simulator_for
    detected_by = fault_simulator_for(engine, netlist, fault_list).detecting

    # Phase 1: random patterns with dropping.
    for _ in range(random_patterns):
        if not remaining:
            break
        pattern = {net: Logic(rng.getrandbits(1))
                   for net in netlist.inputs}
        hits = detected_by(pattern, remaining)
        if hits:
            index = len(test_set.patterns)
            test_set.patterns.append(pattern)
            for name in hits:
                test_set.detected[name] = index
            remaining = [name for name in remaining if name not in hits]

    # Phase 2: deterministic generation for the survivors.
    while remaining:
        name = remaining[0]
        result = generate_test(netlist, fault_list.fault(name),
                               max_backtracks=max_backtracks)
        if result.status == UNTESTABLE:
            test_set.untestable.append(name)
            remaining.pop(0)
            continue
        if result.status == ABORTED:
            test_set.aborted.append(name)
            remaining.pop(0)
            continue
        assert result.pattern is not None
        hits = detected_by(result.pattern, remaining)
        index = len(test_set.patterns)
        test_set.patterns.append(result.pattern)
        for hit in hits:
            test_set.detected[hit] = index
        remaining = [n for n in remaining if n not in hits]

    return test_set
