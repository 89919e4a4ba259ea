"""Sequential-circuit fault simulation: the paper's second extension.

"Extensions to general fault models and sequential circuits are also
feasible."  This module makes the sequential extension concrete for
synchronous designs: a combinational network (user logic plus one
embedded IP block) wrapped by clocked registers, test patterns applied
one per clock cycle, and a stuck-at fault inside the IP whose effects
may take several cycles to reach a primary output -- travelling through
the state registers in between.

The virtual protocol generalizes naturally.  The client must track,
for every still-undetected fault, the *faulty machine's* register
state, which requires knowing the faulty IP outputs for the faulty
machine's (possibly divergent) IP input configuration each cycle.  The
provider's ordinary detection table already answers exactly that
question: a fault listed in some row produces that row's outputs; a
fault absent from every row produces the fault-free outputs.  So the
sequential client reuses :class:`~repro.faults.virtual.TestabilityServant`
unchanged, fetching (and caching) one table per distinct IP input
configuration encountered by *any* machine, good or faulty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from ..core.errors import DesignError, FaultSimulationError
from ..core.signal import Logic
from ..gates.netlist import Netlist
from ..gates.simulator import NetlistSimulator
from .detection import DetectionTable
from .serial import FaultSimReport, run_campaign

IPBehaviour = Callable[[Tuple[Logic, ...]], Sequence[Logic]]
"""An IP block's response: input bits in, output bits out."""


@dataclass
class SequentialDesign:
    """A synchronous design with one embedded IP block.

    ``logic`` is the user's combinational network.  Its primary inputs
    are: the design's real primary inputs, the register outputs
    (``q`` nets) and the IP block's output nets (pseudo-inputs, driven
    by the IP each cycle).  Its primary outputs include the design's
    real primary outputs, the register inputs (``d`` nets) and the IP
    block's input nets.

    ``registers`` maps each q net to the d net latched into it on every
    clock edge.  There must be no combinational path from an IP output
    back to an IP input (single-block Mealy structure), which
    :meth:`validate` checks.
    """

    logic: Netlist
    registers: Dict[str, str]
    primary_inputs: Tuple[str, ...]
    primary_outputs: Tuple[str, ...]
    ip_inputs: Tuple[str, ...]
    ip_outputs: Tuple[str, ...]
    initial_state: Dict[str, Logic] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Structural checks; raises :class:`DesignError` on violation."""
        logic_inputs = set(self.logic.inputs)
        logic_outputs = set(self.logic.outputs)
        for net in self.primary_inputs:
            if net not in logic_inputs:
                raise DesignError(f"primary input {net!r} is not a "
                                  f"logic input")
        for net in self.ip_outputs:
            if net not in logic_inputs:
                raise DesignError(f"IP output {net!r} must be a "
                                  f"pseudo-input of the logic")
        for q_net, d_net in self.registers.items():
            if q_net not in logic_inputs:
                raise DesignError(f"register q net {q_net!r} is not a "
                                  f"logic input")
            if d_net not in logic_outputs:
                raise DesignError(f"register d net {d_net!r} is not a "
                                  f"logic output")
        for net in self.primary_outputs + self.ip_inputs:
            if net not in logic_outputs:
                raise DesignError(f"net {net!r} is not a logic output")
        declared = (set(self.primary_inputs) | set(self.ip_outputs)
                    | set(self.registers))
        if declared != logic_inputs:
            missing = logic_inputs - declared
            raise DesignError(
                f"logic inputs not classified: {sorted(missing)}")
        self._check_no_ip_feedback()

    def _check_no_ip_feedback(self) -> None:
        """No combinational path from any IP output to any IP input."""
        reachable: Set[str] = set(self.ip_outputs)
        changed = True
        while changed:
            changed = False
            for gate in self.logic.gates:
                if gate.output not in reachable and any(
                        source in reachable for source in gate.inputs):
                    reachable.add(gate.output)
                    changed = True
        feedback = reachable & set(self.ip_inputs)
        if feedback:
            raise DesignError(
                f"combinational feedback from IP outputs to IP inputs "
                f"through {sorted(feedback)}; insert a register")

    def reset_state(self) -> Dict[str, Logic]:
        """The registers' power-up state (missing entries are 0)."""
        return {q: self.initial_state.get(q, Logic.ZERO)
                for q in self.registers}


def design_from_bench(bench: Any) -> SequentialDesign:
    """Map a parsed sequential bench onto a :class:`SequentialDesign`.

    ``bench`` is a :class:`repro.gates.io.SequentialBench` (an ISCAS-89
    ``.bench`` split at its flip-flop boundary).  The whole
    combinational core plays the embedded IP block: the design's user
    logic is a thin buffer shell that forwards primary inputs and
    register state into the core and forwards the core's outputs to the
    primary outputs and register ``d`` inputs.  Faults enumerated over
    ``bench.core`` then run through
    :class:`SequentialSerialFaultSimulator`/
    :class:`SequentialVirtualFaultSimulator` unchanged.
    """
    core: Netlist = bench.core
    harness = Netlist(f"{bench.name}-harness")
    for net in bench.primary_inputs:
        harness.add_input(net)
    for q_net in bench.registers:
        harness.add_input(q_net)
    ip_outputs = tuple(f"{out}__io" for out in core.outputs)
    for net in ip_outputs:
        harness.add_input(net)
    ip_inputs = []
    for net in core.inputs:
        target = f"{net}__ii"
        harness.add_gate("BUF", [net], target)
        harness.add_output(target)
        ip_inputs.append(target)
    io_of = dict(zip(core.outputs, ip_outputs))
    primary_outputs = []
    for po_net in bench.primary_outputs:
        target = f"{po_net}__po"
        harness.add_gate("BUF", [io_of[po_net]], target)
        harness.add_output(target)
        primary_outputs.append(target)
    registers = {}
    for q_net, d_net in bench.registers.items():
        target = f"{q_net}__d"
        harness.add_gate("BUF", [io_of[d_net]], target)
        harness.add_output(target)
        registers[q_net] = target
    harness.validate()
    return SequentialDesign(
        logic=harness, registers=registers,
        primary_inputs=tuple(bench.primary_inputs),
        primary_outputs=tuple(primary_outputs),
        ip_inputs=tuple(ip_inputs), ip_outputs=ip_outputs)


class SequentialEvaluator:
    """Steps a :class:`SequentialDesign` one clock cycle at a time.

    The IP behaviour is supplied per step as a callable from input bits
    to output bits, which is what lets the same evaluator serve the
    good machine (local public part) and every faulty machine
    (provider-supplied responses).
    """

    def __init__(self, design: SequentialDesign):
        self.design = design
        self.simulator = NetlistSimulator(design.logic)

    def step(self, state: Mapping[str, Logic],
             pattern: Mapping[str, Logic],
             ip_behaviour) -> Tuple[Dict[str, Logic],
                                    Tuple[Logic, ...],
                                    Tuple[Logic, ...]]:
        """One clock cycle.

        Returns ``(next_state, primary_output_bits, ip_input_bits)``.
        ``ip_behaviour(bits) -> bits`` is queried once, after the IP
        input cone settles.
        """
        assignment: Dict[str, Logic] = {}
        for net in self.design.primary_inputs:
            try:
                assignment[net] = pattern[net]
            except KeyError:
                raise FaultSimulationError(
                    f"pattern is missing primary input {net!r}") from None
        assignment.update(state)
        # Pass 1: IP outputs unknown; the IP input cone is independent
        # of them (validated), so the IP inputs settle.
        for net in self.design.ip_outputs:
            assignment[net] = Logic.X
        first_pass = self.simulator.evaluate(assignment)
        ip_in = tuple(first_pass[net] for net in self.design.ip_inputs)
        # Pass 2: with the IP's response, everything settles.
        ip_out = tuple(ip_behaviour(ip_in))
        if len(ip_out) != len(self.design.ip_outputs):
            raise FaultSimulationError(
                f"IP behaviour returned {len(ip_out)} bits for "
                f"{len(self.design.ip_outputs)} outputs")
        for net, value in zip(self.design.ip_outputs, ip_out):
            assignment[net] = value
        second_pass = self.simulator.evaluate(assignment)
        outputs = tuple(second_pass[net]
                        for net in self.design.primary_outputs)
        next_state = {q: second_pass[d]
                      for q, d in self.design.registers.items()}
        return next_state, outputs, ip_in


class _SequentialCampaign:
    """The cycle-by-cycle campaign both sequential simulators run.

    One pattern per clock cycle: the good machine and every
    still-undetected fault's machine step in lockstep, and a fault is
    dropped at the first cycle its machine's primary outputs differ from
    the good machine's.  Subclasses say only which faults there are and
    where the good and each faulty machine's IP response comes from.
    """

    design: SequentialDesign
    evaluator: SequentialEvaluator

    def _fault_names(self) -> Sequence[str]:
        raise NotImplementedError

    def _ip_behaviour(self, name: Optional[str] = None) -> IPBehaviour:
        """The IP's response for the good machine or for fault ``name``."""
        raise NotImplementedError

    def run(self, patterns: Sequence[Mapping[str, Logic]]
            ) -> FaultSimReport:
        """Simulate the sequence against every fault, with dropping."""
        names = self._fault_names()
        good_behaviour = self._ip_behaviour()
        good_state = self.design.reset_state()
        faulty_states: Dict[str, Dict[str, Logic]] = {
            name: self.design.reset_state() for name in names}

        def detect(pattern: Mapping[str, Logic],
                   remaining: Sequence[str]) -> List[str]:
            nonlocal good_state
            good_state, good_outputs, _ip_in = self.evaluator.step(
                good_state, pattern, good_behaviour)
            hits = []
            for name in remaining:
                faulty_states[name], outputs, _ip_in = self.evaluator.step(
                    faulty_states[name], pattern, self._ip_behaviour(name))
                if outputs != good_outputs:
                    hits.append(name)
            return hits

        return run_campaign(names, patterns, detect)


class SequentialSerialFaultSimulator(_SequentialCampaign):
    """Full-knowledge baseline: the IP netlist is known here, so each
    fault's machine steps with the locally simulated faulty response."""

    def __init__(self, design: SequentialDesign, ip_netlist: Netlist,
                 fault_list):
        self.design = design
        self.evaluator = SequentialEvaluator(design)
        self.ip_simulator = NetlistSimulator(ip_netlist)
        self.ip_netlist = ip_netlist
        self.fault_list = fault_list

    def _fault_names(self) -> Sequence[str]:
        return self.fault_list.names()

    def _ip_behaviour(self, name: Optional[str] = None) -> IPBehaviour:
        fault = None if name is None else self.fault_list.fault(name)

        def behaviour(bits: Tuple[Logic, ...]) -> Tuple[Logic, ...]:
            values = dict(zip(self.ip_netlist.inputs, bits))
            return self.ip_simulator.outputs(values, fault=fault)
        return behaviour


class SequentialVirtualFaultSimulator(_SequentialCampaign):
    """Client side: sequential virtual fault simulation over RMI.

    Phase 1 as usual (symbolic fault list).  Phase 2, per clock cycle:
    the good machine steps with the local public functional model; each
    undetected fault's machine steps with the faulty IP response
    resolved from a provider detection table for *that machine's* IP
    input configuration (fetched once per distinct configuration and
    cached -- the tables are requested over the full fault list so they
    stay valid for every machine).
    """

    def __init__(self, design: SequentialDesign, stub: Any,
                 public_model, block_name: str = "IP"):
        self.design = design
        self.evaluator = SequentialEvaluator(design)
        self.stub = stub
        self.public_model = public_model
        self.block_name = block_name
        self._tables: Dict[Tuple[Logic, ...], DetectionTable] = {}
        self._all_names: Optional[Tuple[str, ...]] = None
        self.remote_table_fetches = 0

    def build_fault_list(self) -> Tuple[str, ...]:
        """Phase 1: the provider's symbolic fault list."""
        if self._all_names is None:
            self._all_names = tuple(self.stub.fault_list())
        return self._all_names

    _fault_names = build_fault_list

    def _table_for(self, bits: Tuple[Logic, ...]) -> DetectionTable:
        table = self._tables.get(bits)
        if table is None:
            # Request over the *full* list: faulty machines may need the
            # response of any fault for this configuration, regardless
            # of what has been dropped meanwhile.
            table = self.stub.detection_table(list(bits),
                                              list(self.build_fault_list()))
            self._tables[bits] = table
            self.remote_table_fetches += 1
        return table

    def _ip_behaviour(self, name: Optional[str] = None) -> IPBehaviour:
        if name is None:
            return self.public_model

        def behaviour(bits: Tuple[Logic, ...]) -> Tuple[Logic, ...]:
            if not all(bit.is_known for bit in bits):
                return tuple(self.public_model(bits))
            table = self._table_for(tuple(bits))
            faulty = table.output_for_fault(name)
            return faulty if faulty is not None else table.fault_free
        return behaviour
