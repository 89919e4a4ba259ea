"""Virtual fault simulation: the paper's two-phase client/provider protocol.

Phase 1 -- the user composes the design fault list from the symbolic
fault lists each provider precharacterized for its component.

Phase 2 -- per test pattern: the client simulates the fault-free design;
for each IP block it sends the provider the signal configuration at the
block's inputs and receives a :class:`~repro.faults.detection.DetectionTable`;
for each table row it injects the erroneous output pattern at the
block's outputs into an otherwise fault-free copy of the design (a fresh
single-instant scheduler that reads the fault-free run's connector
values wherever it has stored none, and whose faulty module's event
handling is replaced), propagates, and marks every fault of the row
detected if any primary output differs.  Only the output ports whose
faulty value differs from the fault-free one are injected: an unchanged
value would re-deliver what every reader already sees.  Likewise only
the primary outputs the injection run stored on are compared: every
other one reads the fault-free run's value.  Detected faults
are dropped from the fault list and the simulation history records the
incremental coverage.

No netlist ever crosses the boundary: the provider sees only port
values, the user sees only symbolic names and output patterns.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter, ne
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from ..compiled import resolve_engine, simulator_for
from ..core.connector import Connector
from ..core.controller import SimulationController
from ..core.design import Circuit
from ..core.errors import FaultSimulationError
from ..core.module import ModuleSkeleton, deliver
from ..core.port import Port, Route
from ..core.signal import Logic, SignalValue, Word
from ..gates.netlist import Netlist
from ..net.clock import CostModel, VirtualClock
from ..rmi.server import current_server_context
from .detection import DetectionTable, build_detection_table
from .faultlist import FaultList, build_fault_list
from .serial import FaultSimReport, run_campaign


class TestabilityServant:
    """Provider-side servant answering the two protocol phases.

    Remote methods (the only ones a provider should bind):

    * ``fault_list()`` -- the component's symbolic fault names;
    * ``detection_table(input_bits, undetected)`` -- the detection table
      for one input configuration, restricted to still-undetected faults.

    The component's netlist stays inside this object on the provider's
    server; the restricted marshaller would reject it anyway.
    """

    REMOTE_METHODS = ("fault_list", "detection_table")
    __test__ = False  # not a pytest test class despite the name

    def __init__(self, netlist: Netlist,
                 fault_list: Optional[FaultList] = None,
                 gate_eval_cost: float = 40e-6,
                 engine: Optional[str] = None):
        self.netlist = netlist
        self.faults = fault_list or build_fault_list(netlist)
        self.engine = resolve_engine(engine)
        self.simulator = simulator_for(self.engine, netlist)
        self.gate_eval_cost = gate_eval_cost

    def fault_list(self) -> Tuple[str, ...]:
        """Phase 1: export the symbolic fault list."""
        return self.faults.names()

    def detection_table(self, input_bits: Sequence[Logic],
                        undetected: Sequence[str]) -> DetectionTable:
        """Phase 2: build the table for one input configuration."""
        if len(input_bits) != len(self.netlist.inputs):
            raise FaultSimulationError(
                f"component {self.netlist.name!r} expects "
                f"{len(self.netlist.inputs)} input bits, got "
                f"{len(input_bits)}")
        input_values = dict(zip(self.netlist.inputs, input_bits))
        table = build_detection_table(self.netlist, self.faults,
                                      input_values, only=tuple(undetected),
                                      simulator=self.simulator)
        server_ctx = current_server_context()
        if server_ctx is not None:
            evaluations = (len(undetected) + 1) * self.netlist.gate_count()
            server_ctx.charge(self.gate_eval_cost * evaluations)
        return table


class IPBlockClient:
    """Client-side handle tying a design module to its provider stub.

    ``stub`` must export the :class:`TestabilityServant` methods; it may
    equally be a local servant object (for an unprotected component),
    since both expose the same call interface.
    """

    def __init__(self, module: ModuleSkeleton, stub,
                 name: Optional[str] = None):
        self.module = module
        self.stub = stub
        self.name = name or module.name
        self._table_cache: Dict[Any, DetectionTable] = {}
        self.remote_table_fetches = 0
        # (output ports, their total width), checked against the
        # module's current port view on every injection.
        self._output_layout: Optional[Tuple[Tuple[Port, ...], int]] = None

    # -- flattened port views ------------------------------------------------

    def input_bits(self, scheduler_id: int) -> Tuple[Logic, ...]:
        """The block's input configuration, flattened LSB-first."""
        bits: List[Logic] = []
        for port in self.module.input_ports():
            if port.connector is None:
                raise FaultSimulationError(
                    f"IP block port {port.full_name} is unconnected")
            bits.extend(_value_bits(port.connector.get_value(scheduler_id)))
        return tuple(bits)

    def output_values(self, scheduler_id: int
                      ) -> Tuple[Optional[SignalValue], ...]:
        """The value at each output port (None where unconnected), in
        :meth:`~repro.core.module.ModuleSkeleton.output_ports` order."""
        return tuple(None if port.connector is None
                     else port.connector.get_value(scheduler_id)
                     for port in self.module.output_ports())

    def fetch_table(self, input_bits: Tuple[Logic, ...],
                    undetected: Sequence[str]) -> DetectionTable:
        """Get the detection table, reusing cached tables.

        The paper notes that identical input configurations lead to the
        same detection table, so the client caches by input bits; tables
        were computed against a superset of the current undetected set
        (the set only shrinks), so filtered reuse is always valid.
        """
        return self.cached_table(
            tuple(input_bits),
            lambda: self.stub.detection_table(list(input_bits),
                                              list(undetected)))

    def cached_table(self, key: Any,
                     request: Callable[[], DetectionTable]
                     ) -> DetectionTable:
        """The table cached under ``key``, requesting it on a miss."""
        table = self._table_cache.get(key)
        if table is None:
            table = request()
            self._table_cache[key] = table
            self.remote_table_fetches += 1
        return table

    def inject_outputs(self, controller: SimulationController,
                       pattern: Sequence[Logic],
                       fault_free: Sequence[Optional[SignalValue]]
                       ) -> None:
        """Assign a faulty output configuration at the block's outputs.

        ``fault_free`` holds each port's fault-free value (see
        :meth:`output_values`); a port whose faulty value equals it is
        not injected, and a word port is injected whole when any of its
        bits differs.
        """
        ports = self.module.output_ports()
        layout = self._output_layout
        if layout is None or layout[0] is not ports:
            # The port views are rebuilt on every wiring change.
            layout = self._output_layout = (
                ports, sum(port.width for port in ports))
        expected = layout[1]
        if expected != len(pattern):
            raise FaultSimulationError(
                f"output pattern width {len(pattern)} does not match the "
                f"block's output ports ({expected} bits)")
        if expected == len(ports):
            # Bit ports only: one C-level pass finds the changed ones.
            for slot in compress(range(expected),
                                 map(ne, pattern, fault_free)):
                controller.inject(ports[slot], pattern[slot])
            return
        offset = 0
        for port, good in zip(ports, fault_free):
            width = port.width
            value: SignalValue
            if width == 1:
                value = pattern[offset]
            else:
                value = Word.from_bits(pattern[offset:offset + width])
            offset += width
            if value != good:
                controller.inject(port, value)


def _value_bits(value: SignalValue) -> Tuple[Logic, ...]:
    if isinstance(value, Logic):
        return (value,)
    return value.to_bits()


def _reader_route(connector: Connector) -> Route:
    """The route a primary-input value takes to the module reading
    ``connector`` (with no reader, ``deliver`` just records it)."""
    reader = next((endpoint for endpoint in connector.endpoints
                   if endpoint.can_read), None)
    return (connector, reader, None if reader is None else reader.owner)


def drive_connector(controller: SimulationController, connector: Connector,
                    value: SignalValue) -> None:
    """Schedule a primary-input value at the module reading ``connector``."""
    deliver(_reader_route(connector), value, controller.scheduler)


def _hold_outputs(module: ModuleSkeleton, token: Any, ctx: Any) -> None:
    """An injection run's handler for the faulty module: it holds the
    injected outputs no matter what reaches its inputs."""


_BITS = (Logic.ZERO, Logic.ONE)


class VirtualFaultSimulator:
    """The client-side dynamic-estimation controller of Figure 5.

    Parameters
    ----------
    circuit:
        The user's design, containing the IP blocks' public parts.
    inputs:
        Named primary-input connectors; patterns map these names to
        Logic values.
    outputs:
        Named primary-output connectors observed for error detection.
    ip_blocks:
        One :class:`IPBlockClient` per remote IP component.
    """

    def __init__(self, circuit: Circuit,
                 inputs: Mapping[str, Connector],
                 outputs: Mapping[str, Connector],
                 ip_blocks: Sequence[IPBlockClient],
                 clock: Optional[VirtualClock] = None,
                 cost_model: Optional[CostModel] = None):
        self.circuit = circuit
        self.inputs = dict(inputs)
        self.outputs = dict(outputs)
        self.ip_blocks = list(ip_blocks)
        self.clock = clock or VirtualClock()
        self.cost = cost_model or CostModel()
        self.injection_runs = 0
        # Resolved at the start of each run (the wiring is fixed while
        # one lasts): each primary input's reader route, and everything
        # a fault-free run may store on.
        self._input_routes: List[Tuple[str, Connector, Route]] = []
        self._connectors: Tuple[Connector, ...] = ()

    # ------------------------------------------------------------------

    def build_fault_list(self) -> Dict[str, Tuple[IPBlockClient, str]]:
        """Phase 1: compose the design fault list from symbolic lists."""
        composed: Dict[str, Tuple[IPBlockClient, str]] = {}
        for block in self.ip_blocks:
            for name in block.stub.fault_list():
                composed[f"{block.name}:{name}"] = (block, name)
        return composed

    def run(self, patterns: Sequence[Mapping[str, object]],
            only: Optional[Sequence[str]] = None) -> FaultSimReport:
        """Phase 2: fault-simulate a pattern sequence with fault dropping.

        ``only`` restricts the campaign to a subset of qualified
        (``block:fault``) names -- the shard interface used by
        :mod:`repro.parallel`.  Whether a pattern detects a fault never
        depends on the rest of the target list, so restricted runs over
        a disjoint partition merge into exactly the full run's report.
        """
        self._reset_tables()
        self._input_routes = [(name, connector, _reader_route(connector))
                              for name, connector in self.inputs.items()]
        # A primary input nothing in the circuit reads is primed by
        # _drive but is no connector of the circuit.
        self._connectors = (*self.circuit.connectors(),
                            *self.inputs.values())
        composed = self.build_fault_list()
        if only is not None:
            wanted = set(only)
            unknown = wanted.difference(composed)
            if unknown:
                raise FaultSimulationError(
                    f"unknown qualified fault name(s): "
                    f"{sorted(unknown)[:5]}")
            composed = {qualified: origin
                        for qualified, origin in composed.items()
                        if qualified in wanted}
        return run_campaign(
            tuple(composed), patterns,
            lambda pattern, remaining: self._simulate_pattern(
                pattern, remaining, composed))

    # ------------------------------------------------------------------

    def _reset_tables(self) -> None:
        # Cached tables were fetched against an earlier run's undetected
        # set; a new run resets the fault list, so stale tables could
        # silently miss faults dropped before their fetch.  Within one
        # run the set only shrinks, which is what makes caching valid.
        for block in self.ip_blocks:
            block._table_cache.clear()

    def _table_for(self, block: IPBlockClient,
                   input_bits: Tuple[Logic, ...],
                   undetected: Sequence[str]) -> Optional[DetectionTable]:
        """The block's table for this pattern, or ``None`` to skip it.

        The one step a fault model overrides (see
        :class:`~repro.faults.transition.VirtualTransitionSimulator`).
        """
        if not all(bit.is_known for bit in input_bits):
            return None
        return block.fetch_table(input_bits, undetected)

    def _simulate_pattern(self, pattern: Mapping[str, object],
                          remaining: Sequence[str],
                          composed: Mapping[str, Tuple[IPBlockClient, str]]
                          ) -> List[str]:
        """The qualified names of ``remaining`` this pattern detects,
        in ``remaining`` (composed fault-list) order."""
        live: Dict[str, List[str]] = {}
        for qualified in remaining:
            block, local_name = composed[qualified]
            live.setdefault(block.name, []).append(local_name)
        good = SimulationController(self.circuit, clock=self.clock,
                                    cost_model=self.cost, name="fault-free")
        good_sid = good.scheduler.scheduler_id
        newly: Set[str] = set()
        try:
            self._drive(good, pattern)
            good.start()
            good_outputs = {id(connector._values):
                            connector.get_value(good_sid)
                            for connector in self.outputs.values()}
            for block in self.ip_blocks:
                if block.name not in live:
                    continue
                undetected = sorted(live[block.name])
                table = self._table_for(block, block.input_bits(good_sid),
                                        undetected)
                if table is None:
                    continue
                newly.update(
                    f"{block.name}:{name}" for name in self._try_rows(
                        block, table, undetected, good, good_outputs))
        finally:
            self.circuit.clear_scheduler_state(good_sid, self._connectors)
        return [qualified for qualified in remaining if qualified in newly]

    def _try_rows(self, block: IPBlockClient, table: DetectionTable,
                  undetected: Sequence[str], good: SimulationController,
                  good_outputs: Dict[int, SignalValue]) -> Set[str]:
        detected: Set[str] = set()
        undetected_set = set(undetected)
        fault_free = block.output_values(good.scheduler.scheduler_id)
        # The wire's row order (Logic is an IntEnum): see _table_to_wire.
        for faulty_pattern, names in sorted(table.rows.items(),
                                            key=itemgetter(0)):
            live = names & undetected_set
            if not live:
                continue
            if self._injection_detects(block, faulty_pattern, good,
                                       fault_free, good_outputs):
                detected |= live
        return detected

    def _injection_detects(self, block: IPBlockClient,
                           faulty_pattern: Tuple[Logic, ...],
                           good: SimulationController,
                           fault_free: Sequence[Optional[SignalValue]],
                           good_outputs: Dict[int, SignalValue]) -> bool:
        """Figure 5 step 2: inject, propagate, compare primary outputs.

        ``good_outputs`` maps each primary output's value table (by id)
        to its fault-free value.
        """
        # Copy on write over the fault-free run: a connector no event
        # reaches keeps its fault-free value, so only the output tables
        # this run touched can differ, and teardown clears only what
        # this run stored.
        injection = SimulationController(self.circuit, clock=self.clock,
                                         cost_model=self.cost,
                                         name="injection", fallback=good)
        self.injection_runs += 1
        try:
            injection.override_handler(block.module, _hold_outputs)
            block.inject_outputs(injection, faulty_pattern, fault_free)
            injection.start()
            scheduler = injection.scheduler
            stored = scheduler.scheduler_id
            for table in scheduler.touched:
                good_value = good_outputs.get(id(table))
                if good_value is not None:
                    value = table.get(stored)
                    if value is not None and value != good_value:
                        return True
            return False
        finally:
            injection.teardown()

    # ------------------------------------------------------------------

    def _drive(self, controller: SimulationController,
               pattern: Mapping[str, object]) -> None:
        scheduler = controller.scheduler
        for name, connector, route in self._input_routes:
            if name not in pattern:
                raise FaultSimulationError(
                    f"pattern is missing primary input {name!r}")
            raw = pattern[name]
            value: SignalValue
            if isinstance(raw, (Logic, Word)):
                value = raw
            elif connector.width == 1:
                value = _BITS[int(raw) & 1]
            else:
                value = Word(int(raw), connector.width)
            deliver(route, value, scheduler)
