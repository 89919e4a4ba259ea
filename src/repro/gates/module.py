"""GateLevelModule: a netlist wrapped as a backplane design component.

This is how a provider's gate-level implementation participates in
mixed-level simulation: word-level connectors on the outside, an
event-driven netlist evaluation inside.  The wrapped
:class:`~repro.gates.netlist.Netlist` itself never needs to be exposed
to the design -- which is precisely what makes it protectable IP.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from ..core.connector import Connector
from ..core.errors import DesignError, SimulationError
from ..core.module import ModuleSkeleton, deliver
from ..core.port import PortDirection
from ..core.signal import Logic, SignalValue, Word
from ..core.token import SignalToken, Token
from .netlist import Netlist
from .simulator import EventDrivenState, NetlistSimulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.controller import SimulationContext


class LogicGateModule(ModuleSkeleton):
    """A single logic gate as a backplane module.

    This is the finest-grained gate-level modelling style the paper
    supports (one module per gate, bit connectors between them); wrap a
    whole :class:`~repro.gates.netlist.Netlist` with
    :class:`GateLevelModule` instead when the structure is provider IP.
    Ports: ``in0`` .. ``in{N-1}`` and ``out``.

    An event reads its pins and indexes the cell's truth table
    (``table[a]`` or ``table[a][b]``); a cell with three or more pins
    has none and calls ``evaluate``.  Pins, table, output port and delay
    are bound here, so no event looks a port up by name.
    """

    def __init__(self, cell_name: str, inputs: Sequence[Connector],
                 output: Optional[Connector] = None,
                 name: Optional[str] = None):
        super().__init__(name=name)
        from .cells import cell as lookup_cell
        self.cell = lookup_cell(cell_name)
        if not self.cell.check_arity(len(inputs)):
            raise DesignError(
                f"gate module {self.name!r}: {self.cell.name} does not "
                f"accept {len(inputs)} inputs")
        self._pins = tuple(
            self.add_port(f"in{index}", PortDirection.IN, 1,
                          connector=connector)
            for index, connector in enumerate(inputs))
        self._out = self.add_port("out", PortDirection.OUT, 1,
                                  connector=output)
        self._table = self.cell.table_for(len(inputs))
        self._delay = self.cell.delay * 1e-3

    def process_input_event(self, token: SignalToken,
                            ctx: "SimulationContext") -> None:
        scheduler_id = ctx.scheduler_id
        fallback_id = ctx.fallback_id
        values = []
        for port in self._pins:
            connector = port.connector
            if connector is None:
                raise SimulationError(
                    f"port {port.full_name} is not connected")
            value = connector.get_value(scheduler_id, fallback_id)
            if not isinstance(value, Logic):
                raise DesignError(
                    f"gate module {self.name!r} needs Logic inputs")
            values.append(value)
        result = self._table
        if result is None:
            result = self.cell.evaluate(*values)
        else:
            for value in values:
                result = result[value]
        deliver(self._out.route, result, ctx.scheduler, self._delay)

    def event_cost(self, cost_model: Any, token: Token) -> float:
        return cost_model.gate_eval


def _value_to_bits(value: SignalValue, width: int) -> Tuple[Logic, ...]:
    if isinstance(value, Logic):
        if width != 1:
            raise DesignError("Logic value on a multi-bit port")
        return (value,)
    return value.resize(width).to_bits()


def _bits_to_value(bits: Sequence[Logic], width: int) -> SignalValue:
    if width == 1:
        return bits[0]
    return Word.from_bits(list(bits))


class GateLevelModule(ModuleSkeleton):
    """Wraps a combinational netlist as a (possibly word-level) module.

    Parameters
    ----------
    netlist:
        The gate-level implementation.
    input_map / output_map:
        Ordered mappings from port name to the (LSB-first) list of
        netlist net names carried by that port.  Single-net ports carry
        :class:`Logic` values; wider ports carry :class:`Word` values.
    delay:
        Propagation delay charged between an input event and the output
        events it causes (defaults to the netlist critical path, rounded
        into the sub-instant range so patterns applied at integer times
        settle before the next instant).
    """

    def __init__(self, netlist: Netlist,
                 input_map: Mapping[str, Sequence[str]],
                 output_map: Mapping[str, Sequence[str]],
                 connectors: Optional[Mapping[str, Connector]] = None,
                 delay: Optional[float] = None,
                 name: Optional[str] = None):
        super().__init__(name=name)
        self.netlist = netlist
        self.simulator = NetlistSimulator(netlist)
        self._input_map: Dict[str, Tuple[str, ...]] = {
            port: tuple(nets) for port, nets in input_map.items()}
        self._output_map: Dict[str, Tuple[str, ...]] = {
            port: tuple(nets) for port, nets in output_map.items()}
        self._check_maps()
        if delay is None:
            # Settle well within one pattern period (integer instants).
            delay = min(0.5, netlist.critical_path_delay() * 1e-3)
        self.delay = delay
        connectors = connectors or {}
        for port_name, nets in self._input_map.items():
            self.add_port(port_name, PortDirection.IN, len(nets),
                          connector=connectors.get(port_name))
        for port_name, nets in self._output_map.items():
            self.add_port(port_name, PortDirection.OUT, len(nets),
                          connector=connectors.get(port_name))

    def _check_maps(self) -> None:
        mapped_inputs = [n for nets in self._input_map.values() for n in nets]
        if sorted(mapped_inputs) != sorted(self.netlist.inputs):
            raise DesignError(
                f"module {self.name!r}: input map does not cover the "
                f"netlist's primary inputs exactly")
        known_outputs = set(self.netlist.outputs)
        for nets in self._output_map.values():
            for net in nets:
                if net not in known_outputs:
                    raise DesignError(
                        f"module {self.name!r}: {net!r} is not a netlist "
                        f"primary output")

    # ------------------------------------------------------------------

    def _engine(self, ctx: "SimulationContext") -> EventDrivenState:
        state = self.state(ctx)
        engine = state.get("engine")
        if engine is None:
            engine = EventDrivenState(self.simulator)
            state["engine"] = engine
            state["energy_trace"] = []
        return engine

    def process_input_event(self, token: SignalToken,
                            ctx: "SimulationContext") -> None:
        engine = self._engine(ctx)
        nets = self._input_map[token.port.name]
        bits = _value_to_bits(token.value, len(nets))
        before = engine.evaluated_gates
        toggled = engine.apply(dict(zip(nets, bits)))
        ctx.charge(ctx.cost.gate_eval * (engine.evaluated_gates - before))
        self.state(ctx)["energy_trace"].append(
            (ctx.now, engine.switched_energy))
        for port_name, out_nets in self._output_map.items():
            if toggled.intersection(out_nets):
                value = _bits_to_value(
                    [engine.value_of(net) for net in out_nets],
                    len(out_nets))
                self.emit(port_name, value, ctx, delay=self.delay)

    # -- observability for estimators -----------------------------------------

    def energy_trace(self, ctx: "SimulationContext") -> List[Tuple[float,
                                                                   float]]:
        """Per-event switched energy (fJ) recorded for this run."""
        self._engine(ctx)
        return self.state(ctx)["energy_trace"]

    def total_energy(self, ctx: "SimulationContext") -> float:
        """Total switched energy (fJ) so far in this run."""
        return sum(energy for _t, energy in self.energy_trace(ctx))

    def net_values(self, ctx: "SimulationContext") -> Dict[str, Logic]:
        """Current netlist net values for this run (provider-side view)."""
        return self._engine(ctx).values

    def event_cost(self, cost_model: Any, token: Token) -> float:
        # The fine-grained gate_eval charge happens in process_input_event
        # where the evaluated-gate count is known.
        return 0.0
