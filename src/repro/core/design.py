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

from .connector import Connector
from .errors import DesignError
from .module import ModuleSkeleton
from .port import PortDirection


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

    def check(self) -> List[str]:
        """Structural sanity check; returns a list of warnings.

        Dangling *input* ports are reported (they would read X forever);
        dangling outputs are legal.  Connectors with a single endpoint
        inside the circuit are also flagged.
        """
        warnings: List[str] = []
        for module in self._modules:
            for port in module.ports:
                if port.direction is PortDirection.IN and \
                        not port.is_connected:
                    warnings.append(
                        f"input port {port.full_name} is unconnected")
        for connector in self.connectors():
            if len(connector.endpoints) < 2:
                warnings.append(
                    f"connector {connector.name!r} has only "
                    f"{len(connector.endpoints)} endpoint(s)")
        return warnings

    def clear_scheduler_state(
            self, scheduler_id: int,
            connectors: Optional[Iterable[Connector]] = None) -> None:
        """Drop every per-scheduler value stored for one scheduler.

        A caller that already holds the result of :meth:`connectors`
        (and knows the wiring has not changed since) passes it to spare
        the scan; it may add connectors of its own to be cleared.
        """
        for module in self._modules:
            module.clear_state(scheduler_id)
        for connector in (self.connectors() if connectors is None
                          else connectors):
            connector.clear(scheduler_id)

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
