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

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import FaultSimulationError
from ..gates.netlist import Gate, Netlist
from .model import StuckAtFault


def enumerate_faults(netlist: Netlist) -> List[StuckAtFault]:
    """The full single-stuck-at universe of a netlist.

    Stem faults (both polarities) on every net, plus branch faults on
    every gate input pin whose source net fans out to more than one
    reader (for single-fanout nets the branch is the stem).
    """
    faults: List[StuckAtFault] = []
    for net in netlist.nets():
        faults.append(StuckAtFault.stem(net, 0))
        faults.append(StuckAtFault.stem(net, 1))
    for net in netlist.nets():
        readers = netlist.fanout_of(net)
        if len(readers) <= 1:
            continue
        for gate, pin in readers:
            faults.append(StuckAtFault.branch(net, gate.name, pin, 0))
            faults.append(StuckAtFault.branch(net, gate.name, pin, 1))
    return faults


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


class _UnionFind:
    def __init__(self, items: Iterable[str]) -> None:
        self._parent: Dict[str, str] = {item: item for item in items}

    def find(self, item: str) -> str:
        parent = self._parent[item]
        if parent != item:
            parent = self.find(parent)
            self._parent[item] = parent
        return parent

    def union(self, a: str, b: str) -> None:
        self._parent[self.find(a)] = self.find(b)

    def classes(self) -> Dict[str, List[str]]:
        groups: Dict[str, List[str]] = {}
        for item in self._parent:
            groups.setdefault(self.find(item), []).append(item)
        return groups


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


_Site = Tuple[str, str, int, int]
"""(net, gate name, pin, stuck value) of a universe fault; stems carry
the dataclass defaults ``""`` / ``-1`` for gate and pin."""


def _site(fault: StuckAtFault) -> _Site:
    return (fault.net, fault.gate_name, fault.pin, int(fault.value))


def _pin_site(netlist: Netlist, gate: Gate, pin: int, value: int) -> _Site:
    """The universe fault standing for a gate input pin stuck at value:
    the pin's branch where the source fans out, else the source's stem."""
    source = gate.inputs[pin]
    if len(netlist.fanout_of(source)) > 1:
        return (source, gate.name, pin, value)
    return (source, "", -1, value)


def build_fault_list(netlist: Netlist, collapse: str = "equivalence",
                     obfuscate: bool = False,
                     prefix: str = "") -> FaultList:
    """Build a component's (optionally collapsed) fault list.

    ``collapse`` is ``"none"``, ``"equivalence"`` (structural gate-local
    equivalence classes) or ``"dominance"`` (equivalence plus dropping
    gate-output faults dominated by their input faults).  With
    ``obfuscate`` the exported symbolic names are opaque (``f0``, ``f1``
    ...), hiding internal net names from the user.

    Each universe fault's name is formatted once; collapsing then works
    on names looked up by fault site, in time linear in the pin count.
    """
    if collapse not in ("none", "equivalence", "dominance"):
        raise FaultSimulationError(f"unknown collapse mode {collapse!r}")
    by_name = {fault.name: fault for fault in enumerate_faults(netlist)}
    union = _UnionFind(by_name)

    dropped: set = set()
    if collapse != "none":
        name_at = {_site(fault): name for name, fault in by_name.items()}
        for gate in netlist.gates:
            _merge_gate_equivalences(netlist, gate, union, name_at)
        if collapse == "dominance":
            dropped = _dominated_output_faults(netlist, union, name_at)

    faults: Dict[str, StuckAtFault] = {}
    class_map: Dict[str, List[StuckAtFault]] = {}
    for root, member_names in sorted(union.classes().items()):
        if root in dropped:
            # The whole class is dominated by input faults that remain in
            # the list: every test for a dominating fault detects these,
            # so they are removed from the target list (classic dominance
            # collapsing loses nothing for test generation).
            continue
        member_names.sort()
        # Prefer stem faults, then the lexicographically smallest name.
        representative = next(
            (name for name in member_names if by_name[name].is_stem),
            member_names[0])
        faults[representative] = by_name[representative]
        class_map[representative] = [by_name[name]
                                     for name in member_names]
    if obfuscate:
        renamed = {}
        renamed_classes = {}
        for index, (name, fault) in enumerate(sorted(faults.items())):
            symbol = f"{prefix}f{index}"
            renamed[symbol] = fault
            renamed_classes[symbol] = class_map[name]
        return FaultList(netlist.name, renamed, renamed_classes)
    return FaultList(netlist.name, faults, class_map)


def _merge_gate_equivalences(netlist: Netlist, gate: Gate,
                             union: _UnionFind,
                             name_at: Mapping[_Site, str]) -> None:
    cell = gate.cell.name
    output = gate.output
    if cell in ("NOT", "BUF"):
        inverted = cell == "NOT"
        for value in (0, 1):
            out_value = (1 - value) if inverted else value
            union.union(name_at[_pin_site(netlist, gate, 0, value)],
                        name_at[(output, "", -1, out_value)])
        return
    if cell in _CONTROLLING:
        controlling, forced = _CONTROLLING[cell]
        out_fault = name_at[(output, "", -1, forced)]
        for pin in range(len(gate.inputs)):
            union.union(
                name_at[_pin_site(netlist, gate, pin, controlling)],
                out_fault)


def _dominated_output_faults(netlist: Netlist, union: _UnionFind,
                             name_at: Mapping[_Site, str]) -> set:
    """Output stem faults dominated by each of their input faults.

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
        dropped.add(union.find(name_at[(gate.output, "", -1, 1 - forced)]))
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
