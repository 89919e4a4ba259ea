"""Detection tables: the IP-sensitive testability parameter.

A detection table is a partial representation of a component's
testability for one input configuration: each row associates an
erroneous output pattern with the list of symbolic faults that would
cause it.  It is a *local* parameter the provider evaluates
independently (it needs only the component's input values) and a plain
value object, so it marshals over RMI -- unlike the netlist it is
computed from.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import (Any, Dict, FrozenSet, Iterable, Mapping, Optional,
                    Sequence, Tuple)

from ..core.signal import Logic
from ..estimation.parameter import TESTABILITY, ParamValue
from ..gates.netlist import Netlist
from ..gates.simulator import NetlistSimulator
from ..rmi.marshal import register_value_type
from .faultlist import FaultList

OutputPattern = Tuple[Logic, ...]


class DetectionTable(ParamValue):
    """Rows of ``faulty output pattern -> symbolic faults causing it``.

    Only faults whose effect reaches the component's outputs for the
    given input configuration appear; a fault absent from every row is
    not excitable/propagatable by this input pattern.
    """

    def __init__(self, component: str, input_pattern: OutputPattern,
                 fault_free: OutputPattern,
                 rows: Mapping[OutputPattern, Iterable[str]]):
        super().__init__(TESTABILITY.name, None, estimator="detection-table")
        self.component = component
        self.input_pattern = tuple(input_pattern)
        self.fault_free = tuple(fault_free)
        self.rows: Dict[OutputPattern, FrozenSet[str]] = {
            tuple(pattern): frozenset(names)
            for pattern, names in rows.items()
        }

    @property
    def value(self) -> "DetectionTable":
        """The ParamValue protocol's value: the table itself.

        A property, not an attribute: a table that referred to itself
        would be a reference cycle, freed only by the cyclic collector
        long after its last use (a campaign's tables are megabytes).
        """
        return self

    @value.setter
    def value(self, value: Any) -> None:
        """``ParamValue.__init__`` stores its ``value`` (None); ignored."""

    # -- queries ----------------------------------------------------------

    def faults_causing(self, pattern: OutputPattern) -> FrozenSet[str]:
        """Symbolic faults producing the given erroneous output pattern."""
        return self.rows.get(tuple(pattern), frozenset())

    def output_for_fault(self, name: str) -> Optional[OutputPattern]:
        """The faulty output a symbolic fault produces, if any."""
        for pattern, names in self.rows.items():
            if name in names:
                return pattern
        return None

    def covered_faults(self) -> FrozenSet[str]:
        """All faults appearing in some row (observable at the outputs)."""
        covered: set = set()
        for names in self.rows.values():
            covered.update(names)
        return frozenset(covered)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetectionTable):
            return NotImplemented
        return (self.component == other.component
                and self.input_pattern == other.input_pattern
                and self.fault_free == other.fault_free
                and self.rows == other.rows)

    def __repr__(self) -> str:
        pattern = "".join(str(int(bit)) if bit.is_known else "X"
                          for bit in self.input_pattern)
        return (f"DetectionTable({self.component!r}, in={pattern}, "
                f"{len(self.rows)} rows)")


def build_detection_table(netlist: Netlist, fault_list: FaultList,
                          input_values: Mapping[str, Logic],
                          only: Optional[Sequence[str]] = None,
                          simulator: Optional[Any] = None
                          ) -> DetectionTable:
    """Provider-side construction of a detection table.

    Simulates the fault-free component for ``input_values``, then every
    (remaining) fault; faults whose output pattern differs from the
    fault-free one are grouped by that erroneous pattern (the
    simulator's ``detection_outputs`` hands every other fault the
    fault-free tuple itself, so an identity test finds them).  ``only``
    restricts the computation to the user's still-undetected faults.
    ``simulator`` is what :func:`repro.compiled.simulator_for` returns
    for either engine (the compiled one gives every fault a bit lane
    of one kernel run); both build identical tables.
    """
    simulator = simulator or NetlistSimulator(netlist)
    names = tuple(only) if only is not None else fault_list.names()
    fault_free, outputs = simulator.detection_outputs(
        input_values, fault_list.faults(names))
    rows: Dict[OutputPattern, set] = {}
    for name, faulty in zip(names, outputs):
        if faulty is not fault_free:
            rows.setdefault(faulty, set()).add(name)
    input_pattern = tuple(input_values[net] for net in netlist.inputs)
    return DetectionTable(netlist.name, input_pattern, fault_free, rows)


# -- marshalling ------------------------------------------------------------


def _table_to_wire(table: DetectionTable) -> dict:
    return {
        "component": table.component,
        "input": tuple(table.input_pattern),
        "fault_free": tuple(table.fault_free),
        # Logic is an IntEnum: patterns order as their int tuples do.
        "rows": [[tuple(pattern), sorted(names)]
                 for pattern, names in sorted(table.rows.items(),
                                              key=itemgetter(0))],
    }


_TABLE_SHAPE = ("a detection table is component: str, input and "
                "fault_free: tuples of Logic, and rows: [tuple of Logic, "
                "list of str] pairs")


def _table_from_wire(wire: dict) -> DetectionTable:
    """The table ``_table_to_wire`` wrote; any other shape raises
    ``TypeError`` (``unmarshal`` refuses it as malformed), so a hostile
    frame cannot build a table that fails later, in its own repr.

    The check is a fixed number of C-level type passes per table, not
    a Python loop per row: the rows' patterns and name lists are
    typed as two columns, then their elements as two flat runs.
    """
    component, pattern, fault_free, rows = (
        wire["component"], wire["input"], wire["fault_free"], wire["rows"])
    if type(component) is not str or type(pattern) is not tuple \
            or type(fault_free) is not tuple or type(rows) is not list \
            or not {list}.issuperset(map(type, rows)) \
            or not {2}.issuperset(map(len, rows)):
        raise TypeError(_TABLE_SHAPE)
    patterns, names = zip(*rows) if rows else ((), ())
    if not {tuple}.issuperset(map(type, patterns)) \
            or not {list}.issuperset(map(type, names)) \
            or not {Logic}.issuperset(map(type, chain(
                pattern, fault_free, chain.from_iterable(patterns)))) \
            or not {str}.issuperset(map(type, chain.from_iterable(names))):
        raise TypeError(_TABLE_SHAPE)
    return DetectionTable(component, pattern, fault_free,
                          dict(zip(patterns, map(frozenset, names))))


register_value_type("detection-table", DetectionTable, _table_to_wire,
                    _table_from_wire)
