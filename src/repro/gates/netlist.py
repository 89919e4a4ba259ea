"""Gate-level netlists: the IP providers' undisclosed implementations.

A :class:`Netlist` is a combinational network of standard cells over
named nets.  Netlists are what the IP-protection machinery guards: the
restricted RMI marshaller refuses to serialize them, so they can never
leave a provider's server.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from ..core.errors import DesignError
from ..lint.findings import Finding, Severity
from ..lint.registry import finding
from .cells import CellType, cell as lookup_cell


@dataclass(frozen=True)
class Gate:
    """One cell instance: ``output = cell(inputs...)`` over net names."""

    name: str
    cell: CellType
    inputs: Tuple[str, ...]
    output: str

    def __post_init__(self) -> None:
        if not self.cell.check_arity(len(self.inputs)):
            raise DesignError(
                f"gate {self.name!r}: cell {self.cell.name} does not accept "
                f"{len(self.inputs)} inputs")


class EventTable(NamedTuple):
    """A netlist with every name resolved to an int, built once.

    A net's id is its position in ``nets()`` (so ids below ``n_inputs``
    are the primary inputs); a gate's index is its position in
    ``levelize()``, which is also its priority in an event wave.
    """

    names: Tuple[str, ...]
    net_id: Dict[str, int]
    n_inputs: int
    outputs: Tuple[int, ...]
    rows: Tuple[Tuple[Tuple[int, ...], int, Optional[tuple], Callable], ...]
    """Per gate index: (input net ids, output net id, the cell's truth
    table for that pin count or None, the cell's ``evaluate``)."""
    readers: Tuple[Tuple[int, ...], ...]
    """Per net id: the gate indices reading it, each once, ascending."""
    energy: Tuple[float, ...]
    """Per net id: the driving cell's energy per toggle, fJ (0 for inputs)."""


class Netlist:
    """A combinational gate-level network.

    Nets are identified by string names; primary inputs and outputs are
    declared explicitly.  A second driver is refused as the netlist is
    built; undriven nets and combinational loops are reported by
    :meth:`findings`, and :meth:`validate` raises the first of them.
    The netlist exposes a topological gate order for levelized
    evaluation.

    Everything derived from the declarations -- the tuples and sets the
    accessors hand out, the levelized order, the fan-out index, the
    event table -- lives in one cache, each entry built on first use
    and all of them dropped by any ``add_*``.  Every simulator,
    fault-list build and kernel compile over one netlist therefore
    shares one table, and the shared tuples and mappings are read-only
    by contract.
    """

    def __init__(self, name: str):
        self.name = name
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._gates: List[Gate] = []
        self._driver: Dict[str, Gate] = {}
        self._derived: Dict[str, Any] = {}

    def _cached(self, key: str, build: Callable[[], Any]) -> Any:
        """One entry of the derived cache, built on first use.

        Two threads racing on a cold entry both build it and either
        copy serves: the entries are pure functions of the declarations.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def __getstate__(self) -> Dict[str, Any]:
        # The derived cache is rebuilt on demand; shipping it to pool
        # workers would multiply the pickled netlist's size.
        return {**self.__dict__, "_derived": {}}

    # -- construction -------------------------------------------------------

    def add_input(self, net: str) -> str:
        """Declare a primary input net."""
        if net in self._inputs:
            raise DesignError(f"duplicate primary input {net!r}")
        if net in self._driver:
            raise DesignError(f"net {net!r} is already gate-driven")
        self._inputs.append(net)
        self._derived.clear()
        return net

    def add_output(self, net: str) -> str:
        """Declare a primary output net (must eventually be driven)."""
        if net in self._outputs:
            raise DesignError(f"duplicate primary output {net!r}")
        self._outputs.append(net)
        self._derived.clear()
        return net

    def add_gate(self, cell_name: str, inputs: Sequence[str], output: str,
                 name: Optional[str] = None) -> Gate:
        """Instantiate a gate driving ``output`` from ``inputs``."""
        if output in self._driver:
            raise DesignError(f"net {output!r} has two drivers")
        if output in self._inputs:
            raise DesignError(f"primary input {output!r} cannot be driven")
        gate = Gate(name or f"g{len(self._gates)}_{output}",
                    lookup_cell(cell_name), tuple(inputs), output)
        self._gates.append(gate)
        self._driver[output] = gate
        self._derived.clear()
        return gate

    # -- access -----------------------------------------------------------

    @property
    def inputs(self) -> Tuple[str, ...]:
        """Primary input net names, in declaration order."""
        return self._cached("inputs", lambda: tuple(self._inputs))

    @property
    def outputs(self) -> Tuple[str, ...]:
        """Primary output net names, in declaration order."""
        return self._cached("outputs", lambda: tuple(self._outputs))

    @property
    def gates(self) -> Tuple[Gate, ...]:
        """All gates, in instantiation order."""
        return self._cached("gates", lambda: tuple(self._gates))

    def driver_of(self, net: str) -> Optional[Gate]:
        """The gate driving a net, or None for primary inputs."""
        return self._driver.get(net)

    def nets(self) -> Tuple[str, ...]:
        """Every net name: inputs first, then gate outputs."""
        # Inputs and gate outputs are disjoint and single-driver by
        # construction, so the concatenation has no duplicates.
        return self._cached("nets", lambda: tuple(self._inputs) + tuple(
            gate.output for gate in self._gates))

    def is_input(self, net: str) -> bool:
        """Whether ``net`` is a declared primary input."""
        return net in self._cached("input_set",
                                   lambda: frozenset(self._inputs))

    def has_net(self, net: str) -> bool:
        """Whether ``net`` is a primary input or a gate output."""
        return net in self._cached("net_set",
                                   lambda: frozenset(self.nets()))

    def internal_nets(self) -> Tuple[str, ...]:
        """Gate-driven nets that are not primary outputs."""
        outs = set(self._outputs)
        return tuple(g.output for g in self._gates if g.output not in outs)

    def _build_fanout(self) -> Dict[str, Tuple[Tuple[Gate, int], ...]]:
        readers: Dict[str, List[Tuple[Gate, int]]] = {}
        for gate in self._gates:
            for pin, source in enumerate(gate.inputs):
                readers.setdefault(source, []).append((gate, pin))
        return {net: tuple(pairs) for net, pairs in readers.items()}

    def fanout_of(self, net: str) -> Tuple[Tuple[Gate, int], ...]:
        """All (gate, pin index) pairs reading a net.

        Ordered by gate instantiation, then pin; answered from the
        reader index, which one pass over the gates builds.
        """
        return self._cached("fanout", self._build_fanout).get(net, ())

    def event_table(self) -> EventTable:
        """The integer form every event-driven state of this netlist runs."""
        return self._cached("event_table", self._build_event_table)

    def _build_event_table(self) -> EventTable:
        names = self.nets()
        net_id = {net: index for index, net in enumerate(names)}
        rows, energy = [], [0.0] * len(names)
        readers: List[List[int]] = [[] for _ in names]
        for index, gate in enumerate(self.levelize()):
            pins = tuple(net_id[source] for source in gate.inputs)
            out = net_id[gate.output]
            rows.append((pins, out, gate.cell.table_for(len(pins)),
                         gate.cell.evaluate))
            energy[out] = gate.cell.energy
            for source in dict.fromkeys(pins):
                readers[source].append(index)
        return EventTable(names, net_id, len(self._inputs),
                          tuple(net_id[net] for net in self._outputs),
                          tuple(rows), tuple(map(tuple, readers)),
                          tuple(energy))

    # -- validation & levelization --------------------------------------------

    def findings(self) -> Tuple[Finding, ...]:
        """Every structural defect at once, as lint findings.

        Each gate pin, then each primary output, that reads a net no
        primary input or gate drives (JCD007), then one combinational
        loop named as its closed net/gate path (JCD006).  Empty for a
        well-formed netlist; ``repro lint`` prints these.
        """
        return self._cached("findings", self._build_findings)

    def _build_findings(self) -> Tuple[Finding, ...]:
        found: List[Finding] = []
        driven = self.has_net
        for gate in self._gates:
            for pin, source in enumerate(gate.inputs):
                if not driven(source):
                    found.append(finding(
                        "JCD007",
                        f"gate {gate.name!r} input pin {pin} reads net "
                        f"{source!r}, which nothing drives",
                        f"{self.name}.{gate.name}"))
        for net in self._outputs:
            if not driven(net):
                found.append(finding(
                    "JCD007", f"primary output {net!r} is undriven",
                    f"{self.name}.{net}"))
        # Only a loop or an undriven net leaves a gate unordered, so the
        # loop search runs on those netlists alone.
        ordered = self._cached("levelized", self._build_levelized)
        cycle = None if len(ordered) == len(self._gates) \
            else self.find_combinational_cycle()
        if cycle is not None:
            found.append(finding(
                "JCD006", f"combinational loop: {' -> '.join(cycle)}",
                f"{self.name}.{cycle[0]}"))
        return tuple(found)

    def validate(self) -> None:
        """Raise :class:`DesignError` on :meth:`findings`' first error."""
        for item in self.findings():
            if item.severity is Severity.ERROR:
                raise DesignError(f"netlist {self.name!r}: {item.message}")

    def find_combinational_cycle(self) -> Optional[List[str]]:
        """One combinational loop as an ordered net/gate name list.

        The returned path alternates net and gate names and is closed
        (first element repeated at the end), e.g.
        ``["q", "g1_nq", "nq", "g0_q", "q"]``.  Returns ``None`` for an
        acyclic netlist.  The search is a depth-first walk from each
        gate output in turn, along the fan-out, with an explicit stack:
        a chain of any depth is walked without recursion.
        """
        fanout = self._cached("fanout", self._build_fanout)
        done: Set[str] = set()
        for start in [gate.output for gate in self._gates]:
            if start in done:
                continue
            # path[i] is a net on the walk, via[i] the gate from path[i]
            # to path[i + 1], and pending[i] path[i]'s unread fan-out.
            path: List[str] = [start]
            via: List[str] = []
            on_path = {start: 0}
            pending = [iter(fanout.get(start, ()))]
            while pending:
                for gate, _pin in pending[-1]:
                    target = gate.output
                    first = on_path.get(target)
                    if first is not None:
                        cycle: List[str] = []
                        for net, name in zip(path[first:],
                                             via[first:] + [gate.name]):
                            cycle += (net, name)
                        cycle.append(target)
                        return cycle
                    if target not in done:
                        on_path[target] = len(path)
                        path.append(target)
                        via.append(gate.name)
                        pending.append(iter(fanout.get(target, ())))
                        break
                else:
                    net = path.pop()
                    del on_path[net]
                    done.add(net)
                    pending.pop()
                    del via[-1:]
        return None

    def levelize(self) -> Tuple[Gate, ...]:
        """Topologically ordered gates.

        A gate that reads an undriven net or sits on or behind a loop
        cannot be ordered: :meth:`validate` raises on that netlist.
        """
        ordered = self._cached("levelized", self._build_levelized)
        if len(ordered) < len(self._gates):
            self.validate()
        return ordered

    def _build_levelized(self) -> Tuple[Gate, ...]:
        # The order of repeated passes over the gates in declaration
        # order, each taking every gate whose inputs are driven when the
        # pass reaches it, until one takes nothing.  A gate's pass is
        # the largest over its gate-driven inputs of the driver's pass,
        # plus one where that driver is declared after it, and at least
        # 1; the order is by (pass, declaration position).  The first
        # pass is one sweep; a gate it leaves waits for its missing
        # inputs, and a heap on that key takes each once its last one is
        # driven.  A gate reading an undriven net, or on or behind a
        # loop, is never taken.
        gates = self._gates
        driven = set(self._inputs)
        waiting: Dict[int, int] = {}
        readers: Dict[str, List[int]] = {}
        heap: List[Tuple[int, int]] = []
        order: List[Gate] = []

        def take(level: int, index: int, gate: Gate) -> None:
            order.append(gate)
            driven.add(gate.output)
            # A second driver finds its net's readers already released.
            for reader in readers.pop(gate.output, ()):
                waiting[reader] -= 1
                if not waiting[reader]:
                    heappush(heap, (level + (reader < index), reader))

        for index, gate in enumerate(gates):
            missing = [source for source in gate.inputs
                       if source not in driven]
            if missing:
                waiting[index] = len(missing)
                for source in missing:
                    readers.setdefault(source, []).append(index)
            else:
                take(1, index, gate)
        while heap:
            level, index = heappop(heap)
            take(level, index, gates[index])
        return tuple(order)

    # -- physical summary ---------------------------------------------------

    def area(self) -> float:
        """Total cell area, equivalent gates."""
        return sum(gate.cell.area for gate in self._gates)

    def depth(self) -> int:
        """Logic depth in gate levels."""
        level: Dict[str, int] = {net: 0 for net in self._inputs}
        for gate in self.levelize():
            level[gate.output] = 1 + max(
                (level[s] for s in gate.inputs), default=0)
        return max((level.get(net, 0) for net in self._outputs), default=0)

    def critical_path_delay(self) -> float:
        """Worst-case input-to-output delay, ns."""
        arrival: Dict[str, float] = {net: 0.0 for net in self._inputs}
        for gate in self.levelize():
            arrival[gate.output] = gate.cell.delay + max(
                (arrival[s] for s in gate.inputs), default=0.0)
        return max((arrival.get(net, 0.0) for net in self._outputs),
                   default=0.0)

    def gate_count(self) -> int:
        """Number of gate instances."""
        return len(self._gates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Netlist({self.name!r}, {len(self._gates)} gates, "
                f"{len(self._inputs)} in, {len(self._outputs)} out)")
