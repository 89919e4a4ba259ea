"""The paper's performance case study: Figure 2 circuit in three scenarios.

* **AL** (all local): every design component is local -- the classical
  design flow with no IP protection, used as the comparison baseline.
* **ER** (estimator remote): only one method of the multiplier (the
  accurate gate-level power estimator) is remotely accessed, with
  pattern buffering and non-blocking calls.
* **MR** (multiplier remote): the entire multiplier is remote -- every
  event targeting the module crosses the RMI channel (not realistic,
  but useful for comparison, as the paper notes).

Each scenario runs 100 random patterns through the register/multiplier
circuit of Figure 2 and reports virtual CPU and real (wall) time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from ..compiled import resolve_engine, simulator_for
from ..core.connector import WordConnector
from ..core.controller import SimulationController
from ..core.design import Circuit, Design
from ..core.errors import DesignError
from ..core.ids import id_scope
from ..core.library import PrimaryOutput, RandomPrimaryInput, Register
from ..estimation.criteria import ByName
from ..estimation.parameter import AVERAGE_POWER
from ..estimation.setup import SetupController
from ..ip.component import MultFastLowPower, ProviderConnection
from ..ip.provider import IPProvider
from ..net.clock import CostModel, VirtualClock
from ..net.model import LAN, LOCALHOST, WAN, NetworkModel
from ..power.regression import LinearRegressionPowerEstimator
from ..rtl.combinational import WordMultiplier

SCENARIOS = ("AL", "ER", "MR")
"""The three paper scenarios."""

TABLE2_ROWS: Tuple[Tuple[str, NetworkModel], ...] = (
    ("AL", LOCALHOST),
    ("ER", LOCALHOST), ("MR", LOCALHOST),
    ("ER", LAN), ("MR", LAN),
    ("ER", WAN), ("MR", WAN))
"""The seven Table 2 cells, in the paper's row order."""

DEFAULT_WIDTH = 16
DEFAULT_PATTERNS = 100
DEFAULT_BUFFER = 5


@dataclass
class ScenarioResult:
    """One Table 2 row: a scenario in one network environment."""

    scenario: str
    host: str
    cpu: float
    real: float
    events: int
    remote_calls: int
    remote_bytes: int
    powers: Optional[List[float]] = None
    round_trips: int = 0


@lru_cache(maxsize=8)
def _multiplier_provider(width: int, power_enabled: bool,
                         engine: str) -> IPProvider:
    provider = IPProvider("provider.host.name")
    provider.publish_multiplier(width, power_enabled=power_enabled,
                                engine=engine)
    return provider


def shared_provider(width: int = DEFAULT_WIDTH,
                    power_enabled: bool = True,
                    engine: Optional[str] = None) -> IPProvider:
    """A memoized provider publishing the Figure 2 multiplier IP.

    Publishing characterizes power models over the secret netlist, which
    is expensive; benchmarks reuse one provider per configuration,
    however the call spells its defaults.  ``engine`` selects the
    provider's logic simulator (see
    :meth:`repro.ip.provider.IPProvider.publish_multiplier`).
    """
    return _multiplier_provider(width, power_enabled,
                                resolve_engine(engine))


@lru_cache(maxsize=16)
def _bench_provider(bench: str, engine: str) -> IPProvider:
    provider = IPProvider("provider.host.name")
    provider.publish_bench(bench, engine=engine)
    return provider


def shared_bench_provider(bench: str,
                          engine: Optional[str] = None) -> IPProvider:
    """A memoized provider publishing one corpus bench as IP.

    Publishing builds the netlist and its fault list, which is expensive
    for the four-digit-gate corpus entries; benchmarks and the CLI reuse
    one provider per (bench, engine) pair.
    """
    return _bench_provider(bench, resolve_engine(engine))


def clear_shared_providers() -> None:
    """Drop both provider memos (``reset_session_state()`` says why)."""
    _multiplier_provider.cache_clear()
    _bench_provider.cache_clear()


class Figure2Design(Design):
    """The paper's Figure 2: two registered random inputs feeding MULT.

    ``mode`` selects AL / ER / MR; for the remote modes a
    :class:`ProviderConnection` must be supplied.
    """

    def __init__(self, mode: str = "AL",
                 provider: Optional[ProviderConnection] = None,
                 width: int = DEFAULT_WIDTH,
                 patterns: int = DEFAULT_PATTERNS,
                 buffer_size: int = DEFAULT_BUFFER, seed: int = 0,
                 nonblocking: bool = False):
        super().__init__(name=f"figure2-{mode}")
        if mode not in SCENARIOS:
            raise DesignError(f"unknown scenario {mode!r}")
        if mode != "AL" and provider is None:
            raise DesignError(f"scenario {mode} needs a provider connection")
        self.mode = mode
        self.provider = provider
        self.width = width
        self.patterns = patterns
        self.buffer_size = buffer_size
        self.seed = seed
        self.nonblocking = nonblocking
        self.mult = None
        self.out = None

    def design(self) -> Circuit:
        width = self.width
        a = WordConnector(width, name="A")
        ar = WordConnector(width, name="AR")
        b = WordConnector(width, name="B")
        br = WordConnector(width, name="BR")
        o = WordConnector(2 * width, name="O")
        ina = RandomPrimaryInput(width, a, patterns=self.patterns,
                                 seed=self.seed, name="INA")
        rega = Register(width, a, ar, name="REGA")
        inb = RandomPrimaryInput(width, b, patterns=self.patterns,
                                 seed=self.seed + 1, name="INB")
        regb = Register(width, b, br, name="REGB")
        if self.mode == "AL":
            mult = WordMultiplier(width, ar, br, o, name="MULT")
            # With no IP protection the user owns the implementation and
            # characterizes a local macro-model; coefficients here stand
            # in for that in-house characterization.
            mult.add_estimator(LinearRegressionPowerEstimator(
                0.05, 0.003, ports=("a", "b"), name="local-power"))
        else:
            mult = MultFastLowPower(
                width, ar, br, o, self.provider,
                remote_functional=(self.mode == "MR"),
                buffer_size=self.buffer_size,
                nonblocking=self.nonblocking, name="MULT")
        out = PrimaryOutput(2 * width, o, name="OUT")
        self.mult = mult
        self.out = out
        return Circuit(ina, rega, inb, regb, mult, out,
                       name=f"figure2-{self.mode}")


def run_scenario(mode: str, network: NetworkModel = LOCALHOST,
                 width: int = DEFAULT_WIDTH,
                 patterns: int = DEFAULT_PATTERNS,
                 buffer_size: int = DEFAULT_BUFFER,
                 power_enabled: bool = True,
                 cost_model: Optional[CostModel] = None,
                 collect_powers: bool = False,
                 nonblocking: bool = False,
                 batching: bool = False,
                 caching: bool = False,
                 engine: Optional[str] = None) -> ScenarioResult:
    """Run one Table 2 cell and return its measured row.

    ``batching``/``caching`` select the wire wrappers for the provider
    connection (both off: the paper's plain wire).  ``engine`` picks
    the provider's logic simulator; the rows are engine-independent.
    """
    cost = cost_model or CostModel()
    clock = VirtualClock()
    connection: Optional[ProviderConnection] = None
    if mode != "AL":
        provider = shared_provider(width, power_enabled, engine)
        connection = ProviderConnection(provider, network, clock=clock,
                                        cost_model=cost,
                                        batching=batching,
                                        caching=caching)
    design = Figure2Design(mode, connection, width=width,
                           patterns=patterns, buffer_size=buffer_size,
                           nonblocking=nonblocking)
    circuit = design.build()

    setup = SetupController(name=f"{mode}-setup")
    estimator_name = ("local-power" if mode == "AL"
                      else "gate-level-toggle")
    setup.set(AVERAGE_POWER, ByName(estimator_name))
    setup.apply(circuit)

    controller = SimulationController(circuit, setup=setup, clock=clock,
                                      cost_model=cost, name=mode)
    stats = controller.start()

    powers: Optional[List[float]] = None
    if mode != "AL":
        collected = design.mult.collect_power(controller.context)
        if collect_powers:
            powers = collected
        connection.flush()
    clock.sync()

    calls = connection.transport.stats.calls if connection else 0
    wire = (connection.base_transport.stats.bytes_sent
            + connection.base_transport.stats.bytes_received) if connection \
        else 0
    result = ScenarioResult(
        scenario=mode, host=network.name if mode != "AL" else "NA",
        cpu=clock.cpu, real=clock.wall, events=stats.events,
        remote_calls=calls, remote_bytes=wire, powers=powers,
        round_trips=connection.round_trips if connection else 0)
    controller.teardown()
    return result


def run_table2(width: int = DEFAULT_WIDTH, patterns: int = DEFAULT_PATTERNS,
               buffer_size: int = DEFAULT_BUFFER,
               engine: Optional[str] = None) -> List[ScenarioResult]:
    """All seven rows of the paper's Table 2, in paper order.

    Each row draws its ids from a fresh scope, as a row of
    ``run_table2_parallel`` does in its worker: ids reach marshalled
    bytes, so rows sharing one scope would charge later rows for
    longer ids.
    """
    rows = []
    for mode, network in TABLE2_ROWS:
        with id_scope():
            rows.append(run_scenario(mode, network, width, patterns,
                                     buffer_size, engine=engine))
    return rows


def run_corpus_scenario(mode: str, bench: str,
                        network: NetworkModel = LOCALHOST,
                        patterns: int = DEFAULT_PATTERNS,
                        buffer_size: int = DEFAULT_BUFFER,
                        engine: Optional[str] = None, seed: int = 0,
                        cost_model: Optional[CostModel] = None
                        ) -> ScenarioResult:
    """One Table 2 cell over a corpus bench instead of Figure 2.

    The workload is a pattern-push loop at the flip-flop boundary: every
    cycle applies one random primary-input vector, evaluates the
    combinational core (locally in AL/ER, remotely in MR), threads the
    register state client-side for sequential benches, and estimates
    accurate per-pattern power -- locally in AL, on the provider with
    client-side pattern buffering in ER (non-blocking ``power_buffer``),
    and with server-side marking in MR (``mark_bits`` piggybacking on
    the blocking ``evaluate`` round trips).
    """
    import random

    from ..core.signal import Logic
    from ..gates.corpus import load_bench
    from ..gates.io import SequentialBench
    from ..ip.provider import BenchFunctionalServant, BitPowerServant
    from ..power.toggle import ToggleCountModel

    if mode not in SCENARIOS:
        raise DesignError(f"unknown scenario {mode!r}")
    loaded = load_bench(bench)
    sequential = isinstance(loaded, SequentialBench)
    core = loaded.core if sequential else loaded
    primary_inputs = (loaded.primary_inputs if sequential
                      else tuple(core.inputs))
    registers = dict(loaded.registers) if sequential else {}

    cost = cost_model or CostModel()
    clock = VirtualClock()
    rng = random.Random(seed)

    connection: Optional[ProviderConnection] = None
    power_stub = module_stub = None
    session = None
    if mode != "AL":
        provider = shared_bench_provider(bench, engine)
        connection = ProviderConnection(provider, network, clock=clock,
                                        cost_model=cost)
        session = connection.session
        power_stub = connection.stub(f"{bench}.power",
                                     BitPowerServant.REMOTE_METHODS)
        if mode == "MR":
            module_stub = connection.stub(
                f"{bench}.module",
                BenchFunctionalServant.REMOTE_METHODS)

    local_simulator = None
    if mode != "MR":
        local_simulator = simulator_for(engine, core)
    local_power = ToggleCountModel(core) if mode == "AL" else None

    # Client-side register state: core output position of each d net.
    state = {q: 0 for q in registers}
    output_position = {net: index
                       for index, net in enumerate(core.outputs)}
    d_position = {q: output_position[d] for q, d in registers.items()}
    eval_cost = cost.event_dispatch + cost.gate_eval * core.gate_count()

    buffered: List[List[int]] = []
    events = 0
    for _ in range(patterns):
        stimulus = {net: rng.getrandbits(1) for net in primary_inputs}
        vector = [stimulus[net] if net in stimulus else state[net]
                  for net in core.inputs]
        events += 1
        if mode == "MR":
            output_bits = module_stub.evaluate(vector)
            power_stub.invoke_oneway("mark_bits", session, vector)
        else:
            inputs = {net: Logic(bit)
                      for net, bit in zip(core.inputs, vector)}
            output_bits = [int(value)
                           for value in local_simulator.outputs(inputs)]
            clock.charge_cpu(eval_cost)
            if mode == "AL":
                # Local accurate PPP; like the paper's Table 2 the
                # estimation compute itself is excluded from timing.
                local_power.power_of_pattern(inputs)
            else:
                buffered.append(vector)
                if len(buffered) >= buffer_size:
                    power_stub.invoke_oneway("power_buffer", session,
                                             list(buffered))
                    buffered.clear()
        if sequential:
            state = {q: output_bits[position]
                     for q, position in d_position.items()}
    if mode == "ER" and buffered:
        power_stub.invoke_oneway("power_buffer", session, list(buffered))
        buffered.clear()

    powers: Optional[List[float]] = None
    if mode != "AL":
        connection.flush()
        powers = power_stub.fetch_results(session)
    clock.sync()

    calls = connection.transport.stats.calls if connection else 0
    wire = (connection.base_transport.stats.bytes_sent
            + connection.base_transport.stats.bytes_received) \
        if connection else 0
    return ScenarioResult(
        scenario=mode, host=network.name if mode != "AL" else "NA",
        cpu=clock.cpu, real=clock.wall, events=events,
        remote_calls=calls, remote_bytes=wire, powers=powers,
        round_trips=connection.round_trips if connection else 0)


def run_corpus_table2(bench: str, patterns: int = DEFAULT_PATTERNS,
                      buffer_size: int = DEFAULT_BUFFER,
                      engine: Optional[str] = None,
                      seed: int = 0) -> List[ScenarioResult]:
    """All seven Table 2 rows over a corpus bench, in paper order."""
    return [run_corpus_scenario(mode, bench, network, patterns,
                                buffer_size, engine=engine, seed=seed)
            for mode, network in TABLE2_ROWS]


def run_buffer_sweep(buffer_percents: Optional[List[int]] = None,
                     width: int = DEFAULT_WIDTH,
                     patterns: int = DEFAULT_PATTERNS
                     ) -> List[Tuple[int, float, float]]:
    """Figure 3: (buffer % of data size, real s, CPU s) series.

    ER scenario over the WAN with the actual PPP call disabled, exactly
    as in the paper: the runtime variation is pure RMI overhead.
    """
    if buffer_percents is None:
        buffer_percents = [1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90,
                           100]
    series: List[Tuple[int, float, float]] = []
    for percent in buffer_percents:
        buffer_size = max(1, round(patterns * percent / 100))
        result = run_scenario("ER", WAN, width, patterns, buffer_size,
                              power_enabled=False)
        series.append((percent, result.real, result.cpu))
    return series
