"""Designs and circuits: hierarchical collections of connected modules.

A :class:`Circuit` is the flattened, simulatable view of a design: the
set of leaf modules (composites are expanded) plus the connectors that
tie their ports together.  A :class:`Design` is the user-facing entry
point mirroring the paper's Figure 2 style: subclass it, build the
circuit inside :meth:`Design.design`, then hand the result to a
:class:`~repro.core.controller.SimulationController`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..lint.findings import Finding, Severity
from ..lint.registry import finding
from .connector import Connector
from .errors import DesignError
from .module import ModuleSkeleton
from .port import PortDirection

_EVENT_HOOKS = ("receive", "process_input_event", "process_self_trigger",
                "process_control_token")
"""Overriding any of these makes a module handle (some) events."""


def _handles_events(module: ModuleSkeleton) -> bool:
    """Whether the module's class overrides any event handling hook."""
    for hook in _EVENT_HOOKS:
        if getattr(type(module), hook) is not getattr(ModuleSkeleton, hook):
            return True
    return False


class Circuit:
    """A flattened collection of interconnected modules."""

    def __init__(self, *modules: ModuleSkeleton, name: str = "circuit"):
        if not modules:
            raise DesignError("a circuit needs at least one module")
        self.name = name
        leaves: List[ModuleSkeleton] = []
        seen = set()
        for module in modules:
            for leaf in module.submodules():
                if id(leaf) in seen:
                    raise DesignError(
                        f"module {leaf.name!r} instantiated twice in "
                        f"circuit {name!r}")
                seen.add(id(leaf))
                leaves.append(leaf)
        self._modules: Tuple[ModuleSkeleton, ...] = tuple(leaves)
        self._by_name: Dict[str, ModuleSkeleton] = {}
        for module in self._modules:
            if module.name in self._by_name:
                raise DesignError(
                    f"duplicate module name {module.name!r} in circuit "
                    f"{name!r}")
            self._by_name[module.name] = module
        noop = ModuleSkeleton.initialize
        #: The modules whose class has an ``initialize`` hook of its
        #: own: a controller calls no other module's no-op hook.
        self.initializers: Tuple[ModuleSkeleton, ...] = tuple(
            module for module in self._modules
            if type(module).initialize is not noop)

    # -- access -----------------------------------------------------------

    @property
    def modules(self) -> Tuple[ModuleSkeleton, ...]:
        """All leaf modules, in instantiation order."""
        return self._modules

    def module(self, name: str) -> ModuleSkeleton:
        """Look a module up by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise DesignError(
                f"circuit {self.name!r} has no module {name!r}") from None

    def connectors(self) -> Tuple[Connector, ...]:
        """Every connector attached to a port of this circuit, once each."""
        found: Dict[int, Connector] = {}
        for module in self._modules:
            for port in module.ports:
                if port.connector is not None:
                    found.setdefault(id(port.connector), port.connector)
        return tuple(found.values())

    # -- validation ---------------------------------------------------------

    def findings(self) -> Tuple[Finding, ...]:
        """Every structural defect at once, as lint findings.

        Per module, unconnected input ports (JCD001) and readable ports
        on a module that handles no event (JCD005); per connector, fewer
        than two endpoints (JCD002) and more than one pure output or (a
        warning) no possible driver (JCD003).  Dangling outputs are
        legal; ``Connector.attach`` refuses a width mismatch and a third
        endpoint as the wiring is built.
        """
        found: List[Finding] = []
        prefix = self.name
        for module in self._modules:
            for port in module.ports:
                if port.direction is PortDirection.IN and \
                        not port.is_connected:
                    found.append(finding(
                        "JCD001",
                        f"input port {port.full_name!r} is unconnected "
                        f"and would read X forever",
                        f"{prefix}.{port.full_name}"))
            if module.input_ports() and not _handles_events(module):
                found.append(finding(
                    "JCD005",
                    f"module {module.name!r} has readable ports but "
                    f"overrides no event handling hook; tokens sent to "
                    f"it are dropped",
                    f"{prefix}.{module.name}"))
        for connector in self.connectors():
            target = f"{prefix}.{connector.name}"
            endpoints = connector.endpoints
            if len(endpoints) < 2:
                found.append(finding(
                    "JCD002",
                    f"connector {connector.name!r} has only "
                    f"{len(endpoints)} endpoint(s) inside the circuit",
                    target))
            drivers = [port for port in endpoints
                       if port.direction is PortDirection.OUT]
            if len(drivers) > 1:
                names = ", ".join(port.full_name for port in drivers)
                found.append(finding(
                    "JCD003",
                    f"connector {connector.name!r} is driven by "
                    f"{len(drivers)} output ports ({names}); conflicting "
                    f"drivers",
                    target))
            if len(endpoints) >= 2 and \
                    not any(port.direction.can_write for port in endpoints):
                found.append(finding(
                    "JCD003",
                    f"connector {connector.name!r} has no endpoint that "
                    f"can drive it; it would carry its default value "
                    f"forever",
                    target,
                    severity=Severity.WARNING))
        return tuple(found)

    def clear_scheduler_state(
            self, scheduler_id: int,
            connectors: Optional[Iterable[Connector]] = None) -> None:
        """Drop every per-scheduler value stored for one scheduler.

        A caller that already holds the result of :meth:`connectors`
        (and knows the wiring has not changed since) passes it to spare
        the scan; it may add connectors of its own to be cleared.
        Entries are dropped from each module's and connector's table
        directly (what ``clear_state`` / ``clear`` do, without a call
        per object: this runs after every fault-free run of a campaign).
        """
        for module in self._modules:
            module._state.pop(scheduler_id, None)
        for connector in (self.connectors() if connectors is None
                          else connectors):
            connector._values.pop(scheduler_id, None)

    def __iter__(self):
        return iter(self._modules)

    def __len__(self) -> int:
        return len(self._modules)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Circuit({self.name!r}, {len(self._modules)} modules)"


class Design:
    """Base class for user designs (the paper's ``extends Design`` idiom).

    Subclasses override :meth:`design` and either return a
    :class:`Circuit` or assemble one and assign it to ``self.circuit``.
    """

    def __init__(self, name: Optional[str] = None):
        self.name = name or type(self).__name__
        self.circuit: Optional[Circuit] = None

    def design(self) -> Optional[Circuit]:
        """Build the design; override in subclasses."""
        raise NotImplementedError

    def build(self) -> Circuit:
        """Run :meth:`design` and return the resulting circuit."""
        result = self.design()
        if result is not None:
            self.circuit = result
        if self.circuit is None:
            raise DesignError(
                f"design {self.name!r} did not produce a circuit")
        return self.circuit
