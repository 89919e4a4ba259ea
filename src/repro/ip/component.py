"""Client-side IP components: public parts, stubs, provider connections.

A remote module consists of three parts (the paper's split):

* the **public part** -- downloadable behaviour that runs on the user's
  machine (e.g. :class:`MultFastLowPower`'s functional model);
* the **RMI stub** -- transparent access to the remote methods, carrying
  no IP-protected information;
* the **private part** -- which always resides on the provider's server
  (:mod:`repro.ip.provider`).

The instantiation of a remote module is identical to that of any local
module, but cites a :class:`ProviderConnection` in its constructor,
exactly as in the paper's Figure 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from ..core.connector import Connector
from ..core.errors import DesignError, IPProtectionError
from ..core.ids import next_id
from ..core.module import ModuleSkeleton
from ..core.port import PortDirection
from ..core.signal import Word
from ..core.token import SignalToken, Token
from ..estimation.estimator import ConstantEstimator, EstimatorSkeleton
from ..estimation.parameter import AREA, AVERAGE_POWER, DELAY, NullValue
from ..net.clock import CostModel, VirtualClock
from ..net.model import LOCALHOST, NetworkModel
from ..power.constant import ConstantPowerEstimator
from ..power.regression import LinearRegressionPowerEstimator
from ..cache import ResponseCache
from ..rmi.batching import DEFAULT_MAX_BATCH
from ..rmi.security import SecurityPolicy, default_policy_for
from ..rmi.server import JavaCADServer
from ..rmi.stub import RemoteStub
from ..rmi.transport import InProcessTransport
from ..rmi.wire import wrap_transport
from .buffering import BufferedRemoteEstimation
from .provider import (FunctionalServant, IPProvider, PowerServant,
                       TimingServant)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.controller import SimulationContext


class ProviderConnection:
    """The client's handle to one IP provider's JavaCAD server.

    This is what the paper's Figure 2 instantiates as
    ``new JavaCADServer("provider.Host.Name")`` on the client side: it
    owns the transport (with its network model and virtual clock), the
    security policy applied to everything downloaded from this provider,
    and a session identifier that scopes provider-side state.
    """

    def __init__(self, provider: Union[IPProvider, JavaCADServer],
                 network: NetworkModel = LOCALHOST,
                 clock: Optional[VirtualClock] = None,
                 cost_model: Optional[CostModel] = None,
                 policy: Optional[SecurityPolicy] = None,
                 session: Optional[str] = None,
                 batching: bool = False,
                 caching: bool = False,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 cache: Optional[ResponseCache] = None):
        """``batching`` / ``caching`` / ``max_batch`` are this
        connection's wire (see :func:`~repro.rmi.wire.wrap_transport`).
        ``cache`` shares or tunes the response cache; the implicit one
        never expires entries, so a session that wants expiry passes
        ``ResponseCache(ttl=..., time_fn=lambda: clock.wall)`` -- aged
        by its *virtual* clock, so a slow real-time run cannot expire
        entries a fast one keeps."""
        server = provider.server if isinstance(provider, IPProvider) \
            else provider
        self.server = server
        self.network = network
        self.clock = clock or VirtualClock()
        self.cost = cost_model or CostModel()
        self.policy = policy or default_policy_for(server.host_name)
        self.session = session or f"session{next_id('session')}"
        # The wire transport (true round-trip counter), optionally
        # stacked with batching/caching wrappers.
        self.base_transport = InProcessTransport(server, network,
                                                 clock=self.clock,
                                                 cost_model=self.cost,
                                                 policy=self.policy)
        self.transport = wrap_transport(
            self.base_transport, batching=batching, caching=caching,
            max_batch=max_batch, cache=cache)
        self._catalog = RemoteStub(self.transport, "catalog",
                                   ("list_components", "describe"))

    @property
    def round_trips(self) -> int:
        """Frames that actually crossed the wire (batches count once)."""
        return self.base_transport.stats.calls

    def flush(self) -> None:
        """Push out any queued (batched) oneway traffic."""
        self.transport.flush()

    # -- catalog access -------------------------------------------------------

    def list_components(self) -> List[str]:
        """Component names available from this provider."""
        return self._catalog.list_components()

    def describe(self, component: str) -> dict:
        """Download a component's public data sheet."""
        return self._catalog.describe(component)

    def stub(self, object_name: str,
             methods: Sequence[str]) -> RemoteStub:
        """Create a stub for one of the provider's bound objects."""
        return RemoteStub(self.transport, object_name, methods)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ProviderConnection({self.server.host_name!r}, "
                f"network={self.network.name}, session={self.session!r})")


class RemoteGateLevelPowerEstimator(EstimatorSkeleton):
    """The Table 1 gate-level toggle-count estimator (remote, buffered).

    Each invocation (one per simulated pattern) reads the component's
    own input ports -- nothing else may cross the boundary -- and pushes
    the operand pair into the buffered non-blocking pipeline.  Results
    accumulate on the server and are fetched once at the end with
    :meth:`MultFastLowPower.collect_power`.
    """

    def __init__(self, expected_error: float = 10.0, cost: float = 0.1,
                 cpu_time: float = 100.0):
        super().__init__(AVERAGE_POWER.name, "gate-level-toggle",
                         expected_error=expected_error, cost=cost,
                         cpu_time=cpu_time, units="mW")

    @property
    def remote(self) -> bool:
        return True

    def estimation(self, module: ModuleSkeleton,
                   ctx: "SimulationContext") -> Any:
        if not isinstance(module, MultFastLowPower):
            raise IPProtectionError(
                "the gate-level estimator is bound to the provider's "
                "multiplier component")
        a = module.read("a", ctx)
        b = module.read("b", ctx)
        if isinstance(a, Word) and isinstance(b, Word) \
                and a.known and b.known:
            if module.remote_functional:
                # MR: the input patterns are buffered *remotely* -- each
                # pattern is marked with one small call and the provider
                # accumulates on its side (the paper's MR buffering).
                module.mark_pattern_remotely(ctx, a.value, b.value)
            else:
                # ER: local buffering, flushed with non-blocking batch
                # calls that amortize the per-call RMI overhead.
                module.remote_estimation(ctx).push((a.value, b.value))
        return NullValue(self.parameter)


class MultFastLowPower(ModuleSkeleton):
    """Public part of the provider's high-performance low-power multiplier.

    Instantiated exactly like the paper's Figure 2::

        MULT = MultFastLowPower(width, AR, BR, O, provider)

    The functional model (plain multiplication) runs locally by default;
    with ``remote_functional=True`` the module is *entirely* remote (the
    paper's MR comparison scenario) and every event is forwarded to the
    provider-side private part.  The constructor downloads the data
    sheet and registers the three candidate power estimators plus static
    area/delay estimators and the remote accurate-timing estimator.
    """

    def __init__(self, width: int, a: Connector, b: Connector,
                 o: Connector, provider: ProviderConnection,
                 component: str = "MultFastLowPower",
                 remote_functional: bool = False, buffer_size: int = 5,
                 nonblocking: bool = False,
                 name: Optional[str] = None):
        super().__init__(name=name or "MULT")
        self.width = width
        self.component = component
        self.provider = provider
        self.remote_functional = remote_functional
        self.buffer_size = buffer_size
        self.nonblocking = nonblocking
        self.add_port("a", PortDirection.IN, width, connector=a)
        self.add_port("b", PortDirection.IN, width, connector=b)
        self.add_port("o", PortDirection.OUT, 2 * width, connector=o)

        datasheet = provider.describe(component)
        if datasheet.get("width") != width:
            raise DesignError(
                f"component {component!r} is published for width "
                f"{datasheet.get('width')}, not {width}")
        self.datasheet = datasheet
        self._power_stub = provider.stub(f"{component}.power",
                                         PowerServant.REMOTE_METHODS)
        self._timing_stub = provider.stub(f"{component}.timing",
                                          TimingServant.REMOTE_METHODS)
        self._module_stub = provider.stub(
            f"{component}.module", FunctionalServant.REMOTE_METHODS) \
            if remote_functional else None

        self.add_estimator(ConstantPowerEstimator(
            datasheet["power_constant_mw"],
            expected_error=datasheet["power_constant_error"]))
        self.add_estimator(LinearRegressionPowerEstimator(
            datasheet["linreg_intercept"], datasheet["linreg_slope"],
            ports=("a", "b"),
            expected_error=datasheet["linreg_error"]))
        self.add_estimator(RemoteGateLevelPowerEstimator(
            expected_error=datasheet["gate_level_error"],
            cost=datasheet["gate_level_cost_cents"]))
        self.add_estimator(ConstantEstimator(
            AREA.name, datasheet["area"], name="datasheet-area",
            expected_error=5.0, units="eq-gates"))
        self.add_estimator(ConstantEstimator(
            DELAY.name, datasheet["delay_ns"], name="datasheet-delay",
            expected_error=15.0, units="ns"))
        if "scoap_boundary" in datasheet:
            from ..estimation.parameter import TESTABILITY
            self.add_estimator(ConstantEstimator(
                TESTABILITY.name, datasheet["scoap_boundary"],
                name="datasheet-scoap", expected_error=50.0))

    # ------------------------------------------------------------------

    def remote_estimation(self, ctx: "SimulationContext"
                          ) -> BufferedRemoteEstimation:
        """The per-scheduler buffered remote-estimation pipeline."""
        state = self.state(ctx)
        pipeline = state.get("remote_power")
        if pipeline is None:
            session = f"{self.provider.session}.s{ctx.scheduler_id}"
            pipeline = BufferedRemoteEstimation(
                self._power_stub, session, buffer_size=self.buffer_size,
                nonblocking=self.nonblocking)
            state["remote_power"] = pipeline
        return pipeline

    def mark_pattern_remotely(self, ctx: "SimulationContext", a: int,
                              b: int) -> None:
        """MR-mode pattern push: server-side buffering, one small call."""
        session = f"{self.provider.session}.s{ctx.scheduler_id}"
        self._power_stub.mark_pattern(session, a, b)

    def collect_power(self, ctx: "SimulationContext") -> List[float]:
        """Drain any local buffer and fetch the accumulated powers."""
        if self.remote_functional:
            session = f"{self.provider.session}.s{ctx.scheduler_id}"
            return self._power_stub.fetch_results(session)
        return self.remote_estimation(ctx).collect()

    def accurate_timing(self) -> float:
        """Blocking remote call for gate-level output timing (ns)."""
        return self._timing_stub.output_timing()

    # ------------------------------------------------------------------

    def process_input_event(self, token: SignalToken,
                            ctx: "SimulationContext") -> None:
        if self.remote_functional:
            self._process_remotely(token, ctx)
            return
        a = self.read("a", ctx)
        b = self.read("b", ctx)
        if isinstance(a, Word) and isinstance(b, Word):
            if a.known and b.known:
                self.emit("o", (a * b).resize(2 * self.width), ctx)
            else:
                self.emit("o", Word.unknown(2 * self.width), ctx)

    def _process_remotely(self, token: SignalToken,
                          ctx: "SimulationContext") -> None:
        value = token.value
        if not (isinstance(value, Word) and value.known):
            return
        # The module's input state is mirrored by the local connectors,
        # so the full configuration can cross the wire in one *pure*
        # call (``evaluate``) instead of a per-port stateful session
        # (``handle_event``) -- identical stimuli then become cacheable.
        inputs: Dict[str, int] = {}
        for port_name in ("a", "b"):
            word = self.read(port_name, ctx)
            if isinstance(word, Word) and word.known:
                inputs[port_name] = word.value
        emissions = self._module_stub.evaluate(inputs)
        for port_name, raw in emissions:
            self.emit(port_name, Word(raw, 2 * self.width), ctx)

    def event_cost(self, cost_model: Any, token: Token) -> float:
        # Local functional evaluation costs a word op; in the remote case
        # the compute happens (and is charged) server-side, while the
        # marshalling cost is charged by the transport.
        if self.remote_functional:
            return 0.0
        return cost_model.word_op
