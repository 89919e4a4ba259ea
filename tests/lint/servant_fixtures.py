"""Seeded-defect servants for the static code analyzers.

Every class here violates exactly the contracts the ``repro lint``
servant rules exist to catch; the test suite (and the CI lint job)
asserts that each defect is reported with its JCD0xx code.  None of
this code is ever executed -- the analyzers work on the source alone.
"""

from repro.faults.detection import DetectionTable
from repro.gates.netlist import Netlist


class ImpureCatalogServant:
    """JCD010: ``describe`` is pure by the stock whitelist but writes
    servant state, so a cached reply would silently go stale."""

    REMOTE_METHODS = ("describe", "reset_stats")

    def __init__(self):
        self.calls = 0
        self.log = []

    def describe(self, component: str) -> dict:
        self.calls += 1
        self.log.append(component)
        return {"component": component}

    def reset_stats(self) -> None:
        self.calls = 0


class LeakyNetlistServant:
    """JCD012: returns design structure instead of port-local values."""

    REMOTE_METHODS = ("internals", "gate_dump", "summary")

    def __init__(self, netlist: Netlist):
        self.netlist = netlist

    def internals(self):
        return self.netlist

    def gate_dump(self):
        return list(self.netlist.gates)

    def summary(self) -> dict:
        # Data-sheet scalars only: must NOT be flagged.
        return {"name": self.netlist.name,
                "gates": self.netlist.gate_count()}


class LeakyBaseServant:
    """JCD012 through inheritance: the leaking body lives in a base
    that declares ``REMOTE_METHODS``, and the servant that is actually
    bound (:class:`InheritingLeakServant`) only inherits it -- the
    shape of ``SessionPowerServant`` under ``PowerServant`` and
    ``BitPowerServant``.  The base is a servant class in its own
    right, so the leak is reported there."""

    REMOTE_METHODS = ("inherited_dump",)

    def __init__(self, netlist: Netlist):
        self.netlist = netlist

    def inherited_dump(self):
        return self.netlist.gates


class InheritingLeakServant(LeakyBaseServant):
    """Binds the inherited leak next to a clean method of its own."""

    REMOTE_METHODS = ("inherited_dump", "own_summary")

    def own_summary(self) -> int:
        # A data-sheet scalar: must NOT be flagged.
        return self.netlist.gate_count()


class UnmarshallableServant:
    """JCD011: promises to return types the marshaller rejects."""

    REMOTE_METHODS = ("fetch_netlist", "fetch_table")

    def __init__(self, netlist: Netlist):
        self._impl = netlist

    def fetch_netlist(self) -> Netlist:
        return Netlist("copy")

    def fetch_table(self) -> DetectionTable:
        # A registered value type: must NOT be flagged.
        return DetectionTable("x", (), (), {})


class StaleWhitelistServant:
    """JCD013: PURE_METHODS names methods that do not exist or are
    not remote."""

    REMOTE_METHODS = ("describe",)
    PURE_METHODS = ("describe", "vanished", "local_only")

    def describe(self) -> dict:
        return {}

    def local_only(self) -> int:
        return 1


class WaivedCounterServant:
    """A JCD010 violation waived inline: must NOT be flagged."""

    REMOTE_METHODS = ("describe",)

    def __init__(self):
        self.hits = 0

    def describe(self) -> dict:
        self.hits += 1  # lint: allow(JCD010)
        return {"hits": "counted"}
