"""Fanout and delay modules.

Connectors are point-to-point and zero-delay, so multi-fanout nets and
net delays are represented by special modules.  This gives designers a
high degree of flexibility: a custom fanout module can propagate a
signal toward different target connectors with *different* delays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .connector import Connector
from .errors import DesignError, check_positive
from .module import ModuleSkeleton
from .port import PortDirection
from .token import SignalToken

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .controller import SimulationContext


class Fanout(ModuleSkeleton):
    """Replicates an input value onto N branches, with per-branch delays.

    Ports: ``in`` plus ``out0`` .. ``out{N-1}``.
    """

    def __init__(self, width: int, source: Connector,
                 branches: Sequence[Connector],
                 delays: Optional[Sequence[float]] = None,
                 name: Optional[str] = None):
        super().__init__(name=name)
        if not branches:
            raise DesignError(f"fanout {self.name!r} needs at least one "
                              f"branch")
        if delays is None:
            delays = [0.0] * len(branches)
        if len(delays) != len(branches):
            raise DesignError(
                f"fanout {self.name!r}: {len(branches)} branches but "
                f"{len(delays)} delays")
        for delay in delays:
            check_positive(f"fanout {self.name!r}: branch delay", delay,
                           zero=True)
        self.width = width
        self.delays = tuple(delays)
        self.add_port("in", PortDirection.IN, width, connector=source)
        for index, branch in enumerate(branches):
            self.add_port(f"out{index}", PortDirection.OUT, width,
                          connector=branch)

    def process_input_event(self, token: SignalToken,
                            ctx: "SimulationContext") -> None:
        for index, delay in enumerate(self.delays):
            self.emit(f"out{index}", token.value, ctx, delay=delay)


class Delay(ModuleSkeleton):
    """A pure transport delay between two connectors."""

    def __init__(self, width: int, source: Connector, target: Connector,
                 delay: float, name: Optional[str] = None):
        super().__init__(name=name)
        check_positive(f"delay module {self.name!r}: delay", delay,
                       zero=True)
        self.delay = delay
        self.add_port("in", PortDirection.IN, width, connector=source)
        self.add_port("out", PortDirection.OUT, width, connector=target)

    def process_input_event(self, token: SignalToken,
                            ctx: "SimulationContext") -> None:
        self.emit("out", token.value, ctx, delay=self.delay)
