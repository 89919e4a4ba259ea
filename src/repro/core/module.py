"""ModuleSkeleton: the base class of every design component.

A module is specialized by a set of *ports* (its connections) and a set
of methods executed when tokens reach it -- functionality in
:meth:`ModuleSkeleton.process_input_event`, cost metrics through
estimators bound per setup controller.  All per-run mutable state lives
in per-scheduler lookup tables so that concurrent simulations of the
same design never interfere.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Tuple)

from .connector import Connector
from .errors import ConnectionError_, DesignError, SimulationError
from .ids import next_id
from .port import Port, PortDirection, Route
from .signal import SignalValue
from .token import (ControlToken, EstimationToken, SelfTriggerToken,
                    SignalToken, Token)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .controller import SimulationContext


def deliver(route: Optional[Route], value: SignalValue, scheduler: Any,
            delay: float = 0.0) -> None:
    """Send ``value`` along a :attr:`Port.route` on ``scheduler``.

    The one way a value leaves a port, however it got there
    (:meth:`ModuleSkeleton.emit`, ``SimulationController.inject``,
    ``drive_connector``): no route drops the value, a route with no
    peer just records it on the connector, and a peer that cannot read
    is refused.
    """
    if route is None:
        return
    connector, peer, owner = route
    if peer is None:
        connector.set_value(scheduler.scheduler_id, value)
    elif not peer.can_read:
        raise SimulationError(
            f"peer port {peer.full_name} cannot receive events")
    else:
        scheduler.schedule(SignalToken(owner, peer, value), delay)


class ModuleSkeleton:
    """Base class for all design components (the paper's ModuleSkeleton).

    Subclasses declare ports in their constructor with :meth:`add_port`
    and implement behaviour by overriding the ``process_*`` hooks.  All
    other machinery -- initialization, event dispatch, setup control,
    estimator selection and invocation -- is inherited.
    """

    def __init__(self, name: Optional[str] = None):
        self.module_id = next_id("module")
        self.name = name or f"{type(self).__name__.lower()}{self.module_id}"
        self._ports: Dict[str, Port] = {}
        # (ports, input_ports, output_ports): built on first use and
        # dropped by add_port / add_alias, so the event path never
        # rebuilds a tuple or re-tests a direction.
        self._port_views: Optional[Tuple[Tuple[Port, ...], ...]] = None
        self._state: Dict[int, Dict[str, Any]] = {}
        # Candidate estimators per parameter name (provider-installed).
        self._candidates: Dict[str, List[Any]] = {}
        # Chosen estimator per (setup controller -> parameter name).
        # The hash-table key is the setup controller object itself.
        self._setup_tables: Dict[Any, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Ports and wiring
    # ------------------------------------------------------------------

    def add_port(self, name: str, direction: PortDirection, width: int = 1,
                 connector: Optional[Connector] = None) -> Port:
        """Declare a port; optionally attach it to a connector at once."""
        if name in self._ports:
            raise ConnectionError_(
                f"module {self.name!r} already has a port {name!r}")
        port = Port(name, direction, width, owner=self)
        self._ports[name] = port
        self._port_views = None
        if connector is not None:
            connector.attach(port)
        return port

    def port(self, name: str) -> Port:
        """Look up a port by name."""
        try:
            return self._ports[name]
        except KeyError:
            raise ConnectionError_(
                f"module {self.name!r} has no port {name!r}") from None

    def _declared_ports(self) -> Iterable[Port]:
        """The ports this module exposes, in declaration order."""
        return self._ports.values()

    def _build_port_views(self) -> Tuple[Tuple[Port, ...], ...]:
        # Two threads racing on a cold view both build it and either
        # copy serves: the tuples are pure functions of the declarations.
        ports = tuple(self._declared_ports())
        views = self._port_views = (
            ports,
            tuple(p for p in ports if p.can_read),
            tuple(p for p in ports if p.can_write))
        return views

    @property
    def ports(self) -> Tuple[Port, ...]:
        """All declared ports, in declaration order."""
        return (self._port_views or self._build_port_views())[0]

    def input_ports(self) -> Tuple[Port, ...]:
        """Ports that can receive events."""
        return (self._port_views or self._build_port_views())[1]

    def output_ports(self) -> Tuple[Port, ...]:
        """Ports that can emit events."""
        return (self._port_views or self._build_port_views())[2]

    # ------------------------------------------------------------------
    # Per-scheduler state (the lookup tables of the paper)
    # ------------------------------------------------------------------

    def state(self, ctx: "SimulationContext") -> Dict[str, Any]:
        """Mutable state dict private to the context's scheduler."""
        return self._state.setdefault(ctx.scheduler_id, {})

    def clear_state(self, scheduler_id: int) -> None:
        """Drop the state stored for one scheduler (end of its run)."""
        self._state.pop(scheduler_id, None)

    # ------------------------------------------------------------------
    # Reading and emitting values
    # ------------------------------------------------------------------

    def read(self, port_name: str, ctx: "SimulationContext") -> SignalValue:
        """Current value at a port, as seen by the context's scheduler."""
        port = self.port(port_name)
        if port.connector is None:
            raise SimulationError(
                f"port {port.full_name} is not connected")
        return port.connector.get_value(ctx.scheduler_id)

    def emit(self, port_name: str, value: SignalValue,
             ctx: "SimulationContext", delay: float = 0.0) -> None:
        """Emit a new value from an output port.

        The value travels through the port's (zero-delay) connector and a
        :class:`SignalToken` is scheduled at the peer module after
        ``delay`` time units.  Emitting from an unconnected port is legal
        and simply drops the value.
        """
        port = self.port(port_name)
        if not port.can_write:
            raise SimulationError(
                f"port {port.full_name} is not an output port")
        deliver(port.route, value, ctx.scheduler, delay)

    def self_trigger(self, ctx: "SimulationContext", delay: float,
                     tag: str = "tick", payload: Any = None) -> None:
        """Schedule a :class:`SelfTriggerToken` for this module."""
        ctx.schedule(SelfTriggerToken(self, tag, payload), delay)

    # ------------------------------------------------------------------
    # Token dispatch
    # ------------------------------------------------------------------

    def receive(self, token: Token, ctx: "SimulationContext") -> None:
        """Deliver a token: update values, then dispatch to the hooks.

        The active controller may override this module's event handling
        (used by fault injection); overrides take precedence over the
        normal hooks.
        """
        overrides = ctx.overrides
        if overrides:
            override = overrides.get(self.module_id)
            if override is not None:
                override(self, token, ctx)
                return
        if isinstance(token, SignalToken):
            self.process_input_event(token, ctx)
        elif isinstance(token, SelfTriggerToken):
            self.process_self_trigger(token, ctx)
        elif isinstance(token, EstimationToken):
            self.process_estimation_token(token, ctx)
        elif isinstance(token, ControlToken):
            self.process_control_token(token, ctx)
        else:
            raise SimulationError(f"unknown token kind: {token!r}")

    # -- behaviour hooks (override in subclasses) -----------------------------

    def initialize(self, ctx: "SimulationContext") -> None:
        """Called once before simulation; may self-schedule tokens."""

    def process_input_event(self, token: SignalToken,
                            ctx: "SimulationContext") -> None:
        """Functional behaviour: react to a value arriving at a port."""

    def process_self_trigger(self, token: SelfTriggerToken,
                             ctx: "SimulationContext") -> None:
        """React to a self-scheduled token (autonomous behaviour)."""

    def process_control_token(self, token: ControlToken,
                              ctx: "SimulationContext") -> None:
        """React to a control command token."""

    def process_estimation_token(self, token: EstimationToken,
                                 ctx: "SimulationContext") -> None:
        """Evaluate the estimators bound for the token's setup.

        The current setup always travels with the token, enabling runtime
        retrieval of the desired estimators and automatic invocation of
        the corresponding evaluation methods.
        """
        table = self._setup_tables.get(token.setup)
        if not table:
            return
        billing = getattr(token.setup, "billing", None)
        for parameter, estimator in table.items():
            ctx.charge(ctx.cost.estimator_invoke)
            if billing is not None:
                billing.charge(estimator, module=self)
            value = estimator.estimate(self, ctx)
            token.results.record(self, parameter, value)

    def event_cost(self, cost_model: Any, token: Token) -> float:
        """Extra virtual CPU charged when this module handles ``token``.

        The default module is free beyond the scheduler's dispatch cost;
        library modules override this (gates charge ``gate_eval``, word
        modules ``word_op``).
        """
        return 0.0

    # ------------------------------------------------------------------
    # Estimator management (provider side + setup binding)
    # ------------------------------------------------------------------

    def add_estimator(self, estimator: Any) -> None:
        """Register a candidate estimator for one of this module's parameters.

        Providers call this from the component constructor; a component
        may register several estimators for the same parameter, among
        which the user's setup criteria later choose.
        """
        self._candidates.setdefault(estimator.parameter, []).append(estimator)

    def candidate_estimators(self, parameter: str) -> Tuple[Any, ...]:
        """All registered estimators for a parameter."""
        return tuple(self._candidates.get(parameter, ()))

    def estimated_parameters(self) -> Tuple[str, ...]:
        """Parameter names for which at least one estimator exists."""
        return tuple(self._candidates)

    def bind_estimator(self, setup: Any, parameter: str,
                       estimator: Any) -> None:
        """Record the estimator chosen for ``parameter`` under ``setup``."""
        self._setup_tables.setdefault(setup, {})[parameter] = estimator

    def bound_estimator(self, setup: Any, parameter: str) -> Optional[Any]:
        """The estimator bound for a parameter under a setup, if any."""
        return self._setup_tables.get(setup, {}).get(parameter)

    def clear_setup(self, setup: Any) -> None:
        """Forget the estimator table associated with a setup controller."""
        self._setup_tables.pop(setup, None)

    # ------------------------------------------------------------------

    def submodules(self) -> Tuple["ModuleSkeleton", ...]:
        """Leaf modules contributed to a flattened circuit (self only)."""
        return (self,)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class CompositeModule(ModuleSkeleton):
    """A hierarchical module: a named bundle of inner modules.

    The composite's ports are *aliases* of inner-module ports: connecting
    to a composite port actually attaches the connector to the inner
    port, so simulation always runs on the flattened design while
    designers keep a hierarchical view (the paper's hierarchical
    descriptions at multiple abstraction levels).
    """

    def __init__(self, *modules: ModuleSkeleton, name: Optional[str] = None):
        super().__init__(name=name)
        if not modules:
            raise DesignError("a composite module needs at least one inner "
                              "module")
        self._inner: Tuple[ModuleSkeleton, ...] = tuple(modules)
        self._aliases: Dict[str, Port] = {}

    def add_alias(self, name: str, inner_port: Port) -> None:
        """Expose an inner module's port under this composite's interface."""
        owners = set()
        for module in self._inner:
            owners.update(module.submodules())
        if inner_port.owner not in owners:
            raise DesignError(
                f"port {inner_port.full_name} does not belong to composite "
                f"{self.name!r}")
        if name in self._aliases:
            raise DesignError(
                f"composite {self.name!r} already exposes {name!r}")
        self._aliases[name] = inner_port
        self._port_views = None

    def port(self, name: str) -> Port:
        """Resolve an exposed alias to the underlying inner port."""
        try:
            return self._aliases[name]
        except KeyError:
            raise ConnectionError_(
                f"composite {self.name!r} has no exposed port {name!r}"
            ) from None

    def _declared_ports(self) -> Iterable[Port]:
        return self._aliases.values()

    def submodules(self) -> Tuple[ModuleSkeleton, ...]:
        """Recursively flatten to leaf modules."""
        leaves: List[ModuleSkeleton] = []
        for module in self._inner:
            leaves.extend(module.submodules())
        return tuple(leaves)

    def receive(self, token: Token, ctx: "SimulationContext") -> None:
        raise SimulationError(
            f"composite module {self.name!r} never receives tokens; "
            f"simulation runs on the flattened design")


HandlerOverride = Callable[[ModuleSkeleton, Token, "SimulationContext"], None]
"""Signature of a controller-installed event-handler replacement."""
