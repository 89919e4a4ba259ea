"""Fault-simulation experiment builders: Figure 4 and virtual-vs-flat.

Provides the paper's half-adder example (Figure 4) as a ready-made
design, plus a generic *embedding* generator that drops an arbitrary
gate-level IP block into an outer user design twice -- once as a
backplane circuit with a protected provider servant (for the virtual
protocol) and once as a flat full-knowledge netlist (for the serial
baseline) -- so the two flows can be compared pattern by pattern.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..compiled import simulator_for
from ..core.connector import BitConnector, Connector
from ..core.design import Circuit
from ..core.errors import SimulationError
from ..core.library import PrimaryOutput
from ..core.module import ModuleSkeleton
from ..core.port import PortDirection
from ..core.signal import Logic
from ..core.token import SignalToken
from ..faults.faultlist import FaultList, build_fault_list
from ..faults.serial import SerialFaultSimulator
from ..faults.virtual import (IPBlockClient, TestabilityServant,
                              VirtualFaultSimulator)
from ..gates.generators import ip1_block
from ..gates.module import LogicGateModule
from ..gates.netlist import Netlist


class PublicFunctionalModel(ModuleSkeleton):
    """A bit-level public part: outputs = ``fn(input bits)``.

    This is what the user downloads: pure functionality, no structure.
    ``fn`` maps a tuple of input :class:`Logic` bits to a tuple of
    output bits, in declared port order.
    """

    def __init__(self, input_names: Sequence[str],
                 output_names: Sequence[str],
                 fn: Callable[[Tuple[Logic, ...]], Tuple[Logic, ...]],
                 connectors: Dict[str, Connector],
                 name: Optional[str] = None):
        super().__init__(name=name)
        self._fn = fn
        self._output_names = tuple(output_names)
        for port_name in input_names:
            self.add_port(port_name, PortDirection.IN, 1,
                          connector=connectors.get(port_name))
        for port_name in output_names:
            self.add_port(port_name, PortDirection.OUT, 1,
                          connector=connectors.get(port_name))

    def process_input_event(self, token: SignalToken, ctx) -> None:
        scheduler_id = ctx.scheduler_id
        fallback_id = ctx.fallback_id
        bits = []
        # Last pin first: inputs driven in port order leave the last one
        # unknown until all have arrived, so a wait costs one read.
        for port in reversed(self.input_ports()):
            if port.connector is None:
                raise SimulationError(
                    f"port {port.full_name} is not connected")
            bit = port.connector.get_value(scheduler_id, fallback_id)
            if bit is not Logic.ZERO and bit is not Logic.ONE:
                return  # one unknown input decides; skip the rest
            bits.append(bit)
        outputs = self._fn(tuple(reversed(bits)))
        if len(outputs) != len(self._output_names):
            raise SimulationError(
                f"module {self.name!r}: functional model returned "
                f"{len(outputs)} bits for {len(self._output_names)} "
                f"output ports")
        for port_name, value in zip(self._output_names, outputs):
            self.emit(port_name, value, ctx)


def functional_model_of(netlist: Netlist) -> Callable[[Tuple[Logic, ...]],
                                                      Tuple[Logic, ...]]:
    """Derive the public functional model a provider would ship.

    The provider compiles its implementation into an executable
    behavioural model (the paper's downloadable public part); here that
    compilation is a closure over a fault-free simulator of the default
    engine (``simulator_for(None, ...)``, like every other simulator the
    library builds).  Only input/output behaviour is exposed to the
    caller.
    """
    simulator = simulator_for(None, netlist)
    input_names = netlist.inputs

    def fn(bits: Tuple[Logic, ...]) -> Tuple[Logic, ...]:
        return simulator.outputs(dict(zip(input_names, bits)))

    return fn


@dataclass
class Figure4Setup:
    """The paper's Figure 4 half-adder design, ready to fault-simulate."""

    circuit: Circuit
    inputs: Dict[str, Connector]
    outputs: Dict[str, Connector]
    servant: TestabilityServant
    fault_list: FaultList
    ip_module: PublicFunctionalModel
    simulator: VirtualFaultSimulator


def build_figure4(collapse: str = "none",
                  stub: Optional[object] = None) -> Figure4Setup:
    """Build the Figure 4 circuit: E = AND(A,B) feeding IP1, outputs
    O1 = AND(OIP1, D) and O2 = BUF(OIP2).

    ``stub`` overrides the testability access path (e.g. an RMI stub to
    a remote server); by default the servant is called directly, which
    exercises the same interface.
    """
    netlist = ip1_block()
    fault_list = build_fault_list(netlist, collapse=collapse)
    servant = TestabilityServant(netlist, fault_list)

    a, b, c, d = (BitConnector(n) for n in "ABCD")
    e = BitConnector("E")
    oip1, oip2 = BitConnector("OIP1"), BitConnector("OIP2")
    o1, o2 = BitConnector("O1"), BitConnector("O2")

    gate_e = LogicGateModule("AND", [a, b], e, name="gE")
    ip1 = PublicFunctionalModel(
        ["IIP1", "IIP2"], ["OIP1", "OIP2"], functional_model_of(netlist),
        {"IIP1": e, "IIP2": c, "OIP1": oip1, "OIP2": oip2}, name="IP1")
    gate_o1 = LogicGateModule("AND", [oip1, d], o1, name="gO1")
    gate_f = LogicGateModule("BUF", [oip2], o2, name="gF")
    po1 = PrimaryOutput(1, o1, name="PO1")
    po2 = PrimaryOutput(1, o2, name="PO2")
    circuit = Circuit(gate_e, ip1, gate_o1, gate_f, po1, po2,
                      name="figure4")

    inputs = {"A": a, "B": b, "C": c, "D": d}
    outputs = {"O1": o1, "O2": o2}
    client = IPBlockClient(ip1, stub or servant, name="IP1")
    simulator = VirtualFaultSimulator(circuit, inputs, outputs, [client])
    return Figure4Setup(circuit, inputs, outputs, servant, fault_list,
                        ip1, simulator)


def figure4_flat_netlist() -> Netlist:
    """The same Figure 4 design as one flat, full-knowledge netlist."""
    flat = Netlist("figure4-flat")
    for net in "ABCD":
        flat.add_input(net)
    flat.add_gate("AND", ["A", "B"], "E", name="gE")
    flat.add_gate("BUF", ["E"], "I1", name="gI1")
    flat.add_gate("BUF", ["C"], "I2", name="gI2")
    flat.add_gate("NAND", ["I1", "I2"], "I3", name="gI3")
    flat.add_gate("NAND", ["I1", "I3"], "I4", name="gI4")
    flat.add_gate("NAND", ["I2", "I3"], "I5", name="gI5")
    flat.add_gate("NAND", ["I4", "I5"], "OIP1", name="gOIP1")
    flat.add_gate("AND", ["I1", "I2"], "I6", name="gI6")
    flat.add_gate("BUF", ["I6"], "OIP2", name="gOIP2")
    flat.add_output("O1")
    flat.add_gate("AND", ["OIP1", "D"], "O1", name="gO1")
    flat.add_output("O2")
    flat.add_gate("BUF", ["OIP2"], "O2", name="gF")
    flat.validate()
    return flat


def figure4_simulator(collapse: str = "none") -> VirtualFaultSimulator:
    """A fresh Figure 4 virtual fault simulator (worker-pool factory).

    Module-level so it pickles by reference: each
    :mod:`repro.parallel` worker calls it to build an isolated circuit,
    servant and controller stack in its own process.
    """
    return build_figure4(collapse=collapse).simulator


def embedded_simulator(ip_netlist: Optional[Netlist] = None,
                       collapse: str = "equivalence",
                       block_name: str = "IP") -> VirtualFaultSimulator:
    """A fresh embedded-IP virtual simulator (worker-pool factory).

    Defaults to the Figure 4 IP1 block behind guard gates; pass any
    combinational netlist to embed something bigger.
    """
    return build_embedded(ip_netlist or ip1_block(), collapse=collapse,
                          block_name=block_name).virtual


def chatty_fault_bench(n_inputs: int = 12, n_gates: int = 160,
                       n_outputs: int = 8, seed: int = 7) -> Netlist:
    """A dense random netlist whose fault campaign dominates CPU time.

    This is the workload the parallel-speedup trajectory
    (``benchmarks/test_parallel_speedup.py``) and the CLI's builtin
    ``chatty`` bench measure: hundreds of collapsed faults over a
    levelized network deep enough that each faulty simulation does real
    work, so sharding across cores pays off.
    """
    from ..gates.generators import random_netlist

    return random_netlist(n_inputs, n_gates, n_outputs, seed=seed,
                          name="chatty")


def figure4_internal_faults(fault_list: FaultList) -> List[str]:
    """IP1 faults that are internal (exclude boundary IIP*/OIP* stems).

    Boundary faults live on nets the user also drives/observes; the flat
    comparison restricts to internal faults so both flows target the
    same lines.
    """
    return [name for name in fault_list.names()
            if not (name.startswith("IIP") or name.startswith("OIP"))]


def build_sequential_wrapper(ip_netlist: Netlist, name: str = "seq"):
    """A synchronous wrapper around an IP block (for the E9 extension).

    IP input ``j = XOR(x_j, s_{j % m})``; each IP output is registered;
    primary output ``j = XOR(s_j, x_{j % k})`` observes the state one
    cycle later, so fault effects must cross a register to be seen.
    """
    from ..faults.sequential import SequentialDesign

    k = len(ip_netlist.inputs)
    m = len(ip_netlist.outputs)
    logic = Netlist(f"{name}-logic")
    xs = [logic.add_input(f"x{i}") for i in range(k)]
    ss = [logic.add_input(f"s{j}") for j in range(m)]
    ios = [logic.add_input(f"io{j}") for j in range(m)]
    iis = []
    for i in range(k):
        net = logic.add_output(f"ii{i}")
        logic.add_gate("XOR", [xs[i], ss[i % m]], net, name=f"gii{i}")
        iis.append(net)
    registers = {}
    pos = []
    for j in range(m):
        d_net = logic.add_output(f"d{j}")
        logic.add_gate("BUF", [ios[j]], d_net, name=f"gd{j}")
        registers[f"s{j}"] = d_net
        po_net = logic.add_output(f"po{j}")
        logic.add_gate("XOR", [ss[j], xs[j % k]], po_net,
                       name=f"gpo{j}")
        pos.append(po_net)
    logic.validate()
    return SequentialDesign(
        logic=logic, registers=registers,
        primary_inputs=tuple(f"x{i}" for i in range(k)),
        primary_outputs=tuple(pos),
        ip_inputs=tuple(iis),
        ip_outputs=tuple(f"io{j}" for j in range(m)))


# ---------------------------------------------------------------------------
# Generic embedding: virtual protocol vs flat baseline on arbitrary blocks
# ---------------------------------------------------------------------------


@dataclass
class EmbeddedExperiment:
    """An IP block embedded in an outer design, in both representations."""

    virtual: VirtualFaultSimulator
    serial: SerialFaultSimulator
    input_names: Tuple[str, ...]
    block_name: str

    def random_patterns(self, count: int,
                        seed: int = 0) -> List[Dict[str, int]]:
        """Random primary-input patterns over the design's inputs."""
        rng = random.Random(seed)
        return [{name: rng.getrandbits(1) for name in self.input_names}
                for _ in range(count)]

    def patterns_as_logic(self, patterns: Sequence[Dict[str, int]]
                          ) -> List[Dict[str, Logic]]:
        """The same patterns, typed for the flat netlist simulator."""
        return [{name: Logic(value) for name, value in pattern.items()}
                for pattern in patterns]


def build_embedded(ip_netlist: Netlist, collapse: str = "equivalence",
                   block_name: str = "IP") -> EmbeddedExperiment:
    """Embed an IP block behind per-output AND guard gates.

    Outer design: each IP input is a primary input; each IP output feeds
    ``AND(output, guard_i)`` with a dedicated guard primary input, so
    error propagation is pattern-dependent (as in Figure 4, where D
    gates O1).  The same structure is built flat for the baseline.
    """
    fault_list = build_fault_list(ip_netlist, collapse=collapse)
    internal = [name for name in fault_list.names()
                if not ip_netlist.is_input(fault_list.fault(name).net)]
    restricted = FaultList(
        ip_netlist.name,
        {name: fault_list.fault(name) for name in internal},
        {name: fault_list.class_of(name) for name in internal})
    servant = TestabilityServant(ip_netlist, restricted)

    # Backplane representation.
    connectors: Dict[str, Connector] = {}
    for net in ip_netlist.inputs:
        connectors[net] = BitConnector(net)
    for net in ip_netlist.outputs:
        connectors[net] = BitConnector(net)
    ip_module = PublicFunctionalModel(
        list(ip_netlist.inputs), list(ip_netlist.outputs),
        functional_model_of(ip_netlist), connectors, name=block_name)
    modules: List[ModuleSkeleton] = [ip_module]
    inputs: Dict[str, Connector] = {
        net: connectors[net] for net in ip_netlist.inputs}
    outputs: Dict[str, Connector] = {}
    for index, net in enumerate(ip_netlist.outputs):
        guard = BitConnector(f"guard{index}")
        po_net = BitConnector(f"po{index}")
        inputs[f"guard{index}"] = guard
        outputs[f"po{index}"] = po_net
        modules.append(LogicGateModule("AND", [connectors[net], guard],
                                       po_net, name=f"gpo{index}"))
        modules.append(PrimaryOutput(1, po_net, name=f"PO{index}"))
    circuit = Circuit(*modules, name=f"embedded-{ip_netlist.name}")
    client = IPBlockClient(ip_module, servant, name=block_name)
    virtual = VirtualFaultSimulator(circuit, inputs, outputs, [client])

    # Flat representation with identical net names.
    flat = Netlist(f"flat-{ip_netlist.name}")
    for net in ip_netlist.inputs:
        flat.add_input(net)
    for index in range(len(ip_netlist.outputs)):
        flat.add_input(f"guard{index}")
    for gate in ip_netlist.gates:
        flat.add_gate(gate.cell.name, list(gate.inputs), gate.output,
                      name=gate.name)
    for index, net in enumerate(ip_netlist.outputs):
        flat.add_output(f"po{index}")
        flat.add_gate("AND", [net, f"guard{index}"], f"po{index}",
                      name=f"gpo{index}")
    flat.validate()
    serial = SerialFaultSimulator(flat, FaultList(
        flat.name, {name: restricted.fault(name) for name in internal}))

    return EmbeddedExperiment(
        virtual=virtual, serial=serial,
        input_names=tuple(inputs), block_name=block_name)
