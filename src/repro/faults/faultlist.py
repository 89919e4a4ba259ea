"""Fault enumeration and collapsing; symbolic fault lists.

Building the target fault list is the first phase of the paper's
virtual fault simulation: it is a local, additive property that each
provider precharacterizes for its component and exports under symbolic
names, and the user composes the per-component lists into the design
fault list.

The provider "exploits basic fault dominance" (and equivalence) to
shrink the exported list; every collapsed fault maps to the
representative of its class, so coverage over the full single-stuck-at
universe is still reported exactly.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from ..core.errors import FaultSimulationError
from ..core.signal import Logic
from ..gates.netlist import Gate, Netlist
from .model import StuckAtFault


def _universe(netlist: Netlist) -> Tuple[List[StuckAtFault], List[str]]:
    """The numbered single-stuck-at universe and each fault's name.

    Net ``i`` of :meth:`Netlist.nets` has its stem faults at ``2*i`` and
    ``2*i + 1`` (stuck-at 0 and 1); the branch pins of every net with
    more than one reader follow, net by net in the same order, each
    reader's pair in fan-out order.  Each name is formatted here, once.
    """
    if not isinstance(netlist, Netlist):
        raise FaultSimulationError(
            f"fault lists are built over a combinational Netlist, not "
            f"{type(netlist).__name__}: for a sequential bench pass its "
            f"combinational core, bench.core")
    unchecked = StuckAtFault._unchecked
    zero, one = Logic.ZERO, Logic.ONE
    nets = netlist.nets()
    faults: List[StuckAtFault] = []
    names: List[str] = []
    for net in nets:
        faults += (unchecked(net, zero, "", -1), unchecked(net, one, "", -1))
        names += (f"{net}sa0", f"{net}sa1")
    for net in nets:
        readers = netlist.fanout_of(net)
        if len(readers) <= 1:
            continue
        for gate, pin in readers:
            gate_name = gate.name
            faults += (unchecked(net, zero, gate_name, pin),
                       unchecked(net, one, gate_name, pin))
            prefix = f"{net}->{gate_name}.{pin}sa"
            names += (prefix + "0", prefix + "1")
    return faults, names


def enumerate_faults(netlist: Netlist) -> List[StuckAtFault]:
    """The full single-stuck-at universe of a netlist.

    Stem faults (both polarities) on every net, plus branch faults on
    every gate input pin whose source net fans out to more than one
    reader (for single-fanout nets the branch is the stem).
    """
    return _universe(netlist)[0]


# Gate-local equivalence data: (controlling value, output value when
# controlled).  For an AND gate a 0 input forces the output to 0, so an
# input stuck-at-0 is equivalent to the output stuck-at-0; for NAND the
# forced output is 1, and so on.  XOR/XNOR have no controlling value.
_CONTROLLING: Dict[str, Tuple[int, int]] = {
    "AND": (0, 0),
    "NAND": (0, 1),
    "OR": (1, 1),
    "NOR": (1, 0),
}


class FaultList:
    """A component's collapsed fault list with symbolic names.

    ``faults`` maps each symbolic name to the representative
    :class:`StuckAtFault` that is actually simulated; ``classes`` maps
    the same name to every fault of the full universe it stands for, so
    collapsed coverage can be expanded back to raw coverage.
    """

    def __init__(self, component: str,
                 faults: Mapping[str, StuckAtFault],
                 classes: Optional[Mapping[str, Sequence[StuckAtFault]]]
                 = None):
        self.component = component
        self._faults: Dict[str, StuckAtFault] = dict(faults)
        self._classes: Dict[str, Tuple[StuckAtFault, ...]] = {
            name: tuple(members)
            for name, members in (classes or
                                  {n: (f,) for n, f
                                   in self._faults.items()}).items()
        }

    # -- user-visible (symbolic) view -------------------------------------

    def names(self) -> Tuple[str, ...]:
        """The symbolic fault names (what the provider exports)."""
        return tuple(self._faults)

    def __len__(self) -> int:
        return len(self._faults)

    def __contains__(self, name: str) -> bool:
        return name in self._faults

    # -- provider-side view ---------------------------------------------------

    def fault(self, name: str) -> StuckAtFault:
        """The representative fault behind a symbolic name."""
        try:
            return self._faults[name]
        except KeyError:
            raise FaultSimulationError(
                f"component {self.component!r} has no fault {name!r}"
            ) from None

    def faults(self, names: Sequence[str]) -> List[StuckAtFault]:
        """The representative faults behind many symbolic names, in
        order (:meth:`fault` per name, one C-level lookup each)."""
        try:
            return list(map(self._faults.__getitem__, names))
        except KeyError:
            return [self.fault(name) for name in names]

    def class_of(self, name: str) -> Tuple[StuckAtFault, ...]:
        """All universe faults a symbolic name stands for."""
        return self._classes.get(name, (self.fault(name),))

    def universe_size(self) -> int:
        """Total number of uncollapsed faults represented."""
        return sum(len(members) for members in self._classes.values())

    def items(self) -> Tuple[Tuple[str, StuckAtFault], ...]:
        """(symbolic name, representative fault) pairs."""
        return tuple(self._faults.items())

    def subset(self, names: Iterable[str]) -> "FaultList":
        """A restricted fault list over ``names``, preserving classes.

        The restriction keeps each name's collapsed class intact, so
        per-shard universe accounting still adds up across a partition;
        unknown names raise :class:`FaultSimulationError`.
        """
        wanted = list(names)
        missing = [name for name in wanted if name not in self._faults]
        if missing:
            raise FaultSimulationError(
                f"component {self.component!r} has no fault(s) "
                f"{missing[:5]!r}")
        return FaultList(
            self.component,
            {name: self._faults[name] for name in wanted},
            {name: self._classes.get(name, (self._faults[name],))
             for name in wanted})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FaultList({self.component!r}, {len(self)} collapsed / "
                f"{self.universe_size()} total)")


def check_collapse(collapse: str) -> None:
    """Refuse a ``collapse`` mode :func:`build_fault_list` does not know."""
    if collapse not in ("none", "equivalence", "dominance"):
        raise FaultSimulationError(f"unknown collapse mode {collapse!r}")


def build_fault_list(netlist: Netlist, collapse: str = "equivalence",
                     obfuscate: bool = False) -> FaultList:
    """Build a component's (optionally collapsed) fault list.

    ``collapse`` is ``"none"``, ``"equivalence"`` (structural gate-local
    equivalence classes) or ``"dominance"`` (equivalence plus dropping
    gate-output faults dominated by their input faults).  With
    ``obfuscate`` the exported symbolic names are opaque (``f0``, ``f1``
    ...), hiding internal net names from the user: what every publish
    exports (:meth:`repro.ip.provider.IPProvider._publish`).

    Collapsing unions fault indices of the numbered universe, in time
    linear in the pin count; classes are ordered by their root's name,
    members by name, and each class is represented by its first stem
    fault, else its first member.  Two universe faults whose names
    coincide are refused: the list is keyed by name.
    """
    check_collapse(collapse)
    universe, names = _universe(netlist)
    if len(set(names)) < len(names):
        _refuse_shared_name(netlist, universe, names)
    parent = list(range(len(universe)))

    def find(index: int) -> int:
        while parent[index] != index:  # path halving
            parent[index] = index = parent[parent[index]]
        return index

    dropped: set = set()
    if collapse != "none":
        index_of = {net: index for index, net in enumerate(netlist.nets())}
        for gate, pins in _pin_sites(netlist, index_of):
            _merge_gate_equivalences(gate, 2 * index_of[gate.output], pins,
                                     parent, find)
        if collapse == "dominance":
            dropped = _dominated_output_faults(netlist, index_of, find)

    stems = 2 * len(netlist.nets())
    roots = [index if root == index else find(index)
             for index, root in enumerate(parent)]
    members: Dict[int, List[int]] = {}
    for index in sorted(range(len(universe)), key=names.__getitem__):
        members.setdefault(roots[index], []).append(index)
    member = universe.__getitem__
    faults: Dict[str, StuckAtFault] = {}
    class_map: Dict[str, Tuple[StuckAtFault, ...]] = {}
    for root in sorted(members, key=names.__getitem__):
        if root in dropped:
            # The whole class is dominated by input faults that remain in
            # the list: every test for a dominating fault detects these,
            # so they are removed from the target list (classic dominance
            # collapsing loses nothing for test generation).
            continue
        indices = members[root]
        if len(indices) == 1:
            representative, members_of = root, (universe[root],)
        else:
            # Prefer stem faults, then the lexicographically smallest name.
            representative = next(
                (index for index in indices if index < stems), indices[0])
            members_of = tuple(map(member, indices))
        name = names[representative]
        faults[name] = universe[representative]
        class_map[name] = members_of
    if obfuscate:
        symbols = [(f"f{index}", name)
                   for index, name in enumerate(sorted(faults))]
        return FaultList(
            netlist.name, {symbol: faults[name] for symbol, name in symbols},
            {symbol: class_map[name] for symbol, name in symbols})
    return FaultList(netlist.name, faults, class_map)


def _refuse_shared_name(netlist: Netlist, universe: Sequence[StuckAtFault],
                        names: Sequence[str]) -> None:
    first: Dict[str, int] = {}
    for index, name in enumerate(names):
        earlier = first.setdefault(name, index)
        if earlier != index:
            raise FaultSimulationError(
                f"netlist {netlist.name!r}: universe faults "
                f"{_describe(universe[earlier])} and "
                f"{_describe(universe[index])} share the name {name!r}")


def _describe(fault: StuckAtFault) -> str:
    if fault.is_stem:
        return f"(stem of net {fault.net!r}, stuck-at {int(fault.value)})"
    return (f"(branch of net {fault.net!r} at gate {fault.gate_name!r} "
            f"pin {fault.pin}, stuck-at {int(fault.value)})")


def _pin_sites(netlist: Netlist, index_of: Mapping[str, int]
               ) -> Iterator[Tuple[Gate, List[int]]]:
    """Each gate, in order, with the universe index of each input pin's
    stuck-at-0 fault (stuck-at-1 is the next index): the pin's branch
    where the source fans out, else the source's stem.

    A net's readers are its fan-out in gate order then pin order, which
    is the order this walk meets them, so each fanning-out net keeps a
    cursor over its run of branch faults.
    """
    nets = netlist.nets()
    cursor = [-1] * len(nets)
    start = 2 * len(nets)
    for position, net in enumerate(nets):
        readers = len(netlist.fanout_of(net))
        if readers > 1:
            cursor[position] = start
            start += 2 * readers
    for gate in netlist.gates:
        pins = []
        for source in gate.inputs:
            position = index_of[source]
            branch = cursor[position]
            if branch < 0:
                pins.append(2 * position)
            else:
                pins.append(branch)
                cursor[position] = branch + 2
        yield gate, pins


def _merge_gate_equivalences(gate: Gate, output: int, pins: Sequence[int],
                             parent: List[int],
                             find: Callable[[int], int]) -> None:
    """Union each pin fault with the output stem fault it is equivalent
    to; ``output`` is the index of the output's stuck-at-0 fault."""
    # Each union is ``parent[find(pin)] = find(out)``: the pin's root
    # goes under the output's, and Python finds the output's first.
    cell = gate.cell.name
    if cell in ("NOT", "BUF"):
        inverted = cell == "NOT"
        for value in (0, 1):
            out_value = (1 - value) if inverted else value
            parent[find(pins[0] + value)] = find(output + out_value)
        return
    if cell in _CONTROLLING:
        controlling, forced = _CONTROLLING[cell]
        out_fault = output + forced
        for pin in pins:
            parent[find(pin + controlling)] = find(out_fault)


def _dominated_output_faults(netlist: Netlist, index_of: Mapping[str, int],
                             find: Callable[[int], int]) -> set:
    """Roots of output stem faults dominated by each of their input faults.

    For an AND gate, the output stuck-at-1 is detected by any test that
    detects an input stuck-at-1, so the output fault can be dropped from
    the target list.
    """
    dropped = set()
    primary_outputs = frozenset(netlist.outputs)
    for gate in netlist.gates:
        cell = gate.cell.name
        if cell not in _CONTROLLING:
            continue
        if gate.output in primary_outputs:
            # Keep faults directly observable at primary outputs: the
            # user handles faults on component boundary signals itself.
            continue
        _controlling, forced = _CONTROLLING[cell]
        dropped.add(find(2 * index_of[gate.output] + 1 - forced))
    return dropped


def compose_design_fault_list(
        component_lists: Mapping[str, FaultList]) -> Dict[str, Tuple[str,
                                                                     str]]:
    """Phase 1 of virtual fault simulation, on the user's side.

    The user builds the fault list for the entire design by composing
    the symbolic fault lists of all components; the result maps a
    design-qualified name ``component:fault`` to its origin pair.
    """
    composed: Dict[str, Tuple[str, str]] = {}
    for component, fault_list in component_lists.items():
        for name in fault_list.names():
            composed[f"{component}:{name}"] = (component, name)
    return composed
