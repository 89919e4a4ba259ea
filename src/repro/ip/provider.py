"""Provider-side servants and the IPProvider publishing workflow.

To make an IP component available, the provider authors the component's
class and estimators, then *publishes* it: the private parts (netlist,
accurate simulators) are bound on the provider's JavaCAD server, while
the public data sheet (static estimates, macro-model coefficients,
estimator catalog) is exported for the user to download.  The netlist
itself can never leave: the restricted marshaller rejects it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..compiled import simulator_for
from ..core.errors import IPProtectionError, RemoteError
from ..core.ids import current_connection
from ..core.signal import Logic
from ..faults.faultlist import build_fault_list, check_collapse
from ..faults.virtual import TestabilityServant
from ..gates.generators import array_multiplier
from ..gates.netlist import Netlist
from ..net.clock import CostModel
from ..power.constant import characterize_constant, operands_to_inputs
from ..power.regression import fit_regression
from ..power.toggle import (SiliconReference, ToggleCountModel,
                            calibrate_toggle_model)
from ..rmi.server import JavaCADServer, current_server_context


def _check_operand(port: str, value: Any, width: int) -> None:
    """Refuse a value no local model could drive ``port`` with: it must
    be an ``int`` that is not a ``bool``, in ``0 .. 2**width - 1``."""
    if type(value) is bool or not isinstance(value, int) \
            or not 0 <= value < 1 << width:
        raise RemoteError(f"{port} is {value!r}; expected an int in "
                          f"0..{(1 << width) - 1}")


def bits_to_inputs(netlist: Netlist,
                   bits: Sequence[int]) -> Dict[str, Logic]:
    """One wire bit per netlist primary input, in declaration order:
    0, 1, 2 (``X``) or 3 (``Z``)."""
    if len(bits) != len(netlist.inputs):
        raise RemoteError(
            f"expected {len(netlist.inputs)} input bits, "
            f"got {len(bits)}")
    inputs: Dict[str, Logic] = {}
    for position, (net, bit) in enumerate(zip(netlist.inputs, bits)):
        _check_operand(f"input bit {position} ({net})", bit, 2)
        inputs[net] = Logic(bit)
    return inputs


class SessionPowerServant:
    """Provider-side accurate power estimation (the PPP stand-in).

    Keeps one toggle-count model per client session (consecutive
    patterns matter for switched energy) and accumulates batch results
    so that oneway (non-blocking) buffered calls can be fetched later;
    both live in the caller's connection context.
    With ``enabled=False`` the actual simulator call is skipped -- the
    Figure 3 configuration, where only RMI overhead remains.

    This is the whole implementation; the two published surfaces,
    :class:`PowerServant` and :class:`BitPowerServant`, supply only
    ``_decode`` (wire pattern -> ``{input net: Logic}``) and the two
    single-pattern methods whose argument shape follows from it.  Every
    call is a buffer, evaluated in one run of the model; a
    single-pattern call is a buffer of one.
    """

    REMOTE_METHODS = ("reset", "power_buffer", "fetch_results")

    def __init__(self, netlist: Netlist, calibration: float = 1.0,
                 enabled: bool = True, gate_eval_cost: float = 0.0):
        self.netlist = netlist
        self.calibration = calibration
        self.enabled = enabled
        self.gate_eval_cost = gate_eval_cost

    def _decode(self, pattern: Sequence[int]) -> Dict[str, Logic]:
        raise NotImplementedError

    def _session(self, session: str
                 ) -> Tuple[ToggleCountModel, List[float]]:
        """The session's (model, accumulated powers), made on first use."""
        sessions = current_connection().sessions(self)
        state = sessions.get(session)
        if state is None:
            state = sessions.setdefault(
                session, (ToggleCountModel(self.netlist), []))
        return state

    def _estimate(self, session: str, patterns: Sequence[Sequence[int]]
                  ) -> Tuple[List[float], List[float]]:
        """A buffer's calibrated powers, and the session's results.

        The whole buffer decodes before the session is touched, so a
        rejected buffer changes nothing.  Each pattern charges the
        gates it evaluated, in order.
        """
        inputs = [self._decode(pattern) for pattern in patterns]
        model, results = self._session(session)
        if not self.enabled:
            return [0.0] * len(inputs), results
        context = current_server_context()
        powers: List[float] = []
        for energy, gates in model.transitions(inputs):
            if context is not None:
                context.charge(self.gate_eval_cost * gates)
            powers.append(model.power_of_energy(energy) * self.calibration)
        return powers, results

    # -- remote methods -----------------------------------------------------

    def reset(self, session: str) -> None:
        """Start a fresh pattern sequence for a session."""
        current_connection().sessions(self).pop(session, None)

    def power_buffer(self, session: str,
                     patterns: Sequence[Sequence[int]]) -> int:
        """Batch estimation; results accumulate for fetch_results."""
        powers, results = self._estimate(session, patterns)
        results.extend(powers)
        return len(results)

    def fetch_results(self, session: str) -> List[float]:
        """All accumulated per-pattern powers for a session.

        A read creates no state: a session never seen has none.
        """
        state = current_connection().sessions(self).get(session)
        return list(state[1]) if state else []


class PowerServant(SessionPowerServant):
    """The power servant of an operand-structured component: a pattern
    is one integer per word port (``a``/``b`` of the multiplier)."""

    REMOTE_METHODS = ("reset", "power_of_pair", "power_buffer",
                      "mark_pattern", "fetch_results")

    def __init__(self, netlist: Netlist, prefixes: Sequence[str],
                 widths: Sequence[int], calibration: float = 1.0,
                 enabled: bool = True, gate_eval_cost: float = 40e-6):
        super().__init__(netlist, calibration, enabled, gate_eval_cost)
        self.prefixes = tuple(prefixes)
        self.widths = tuple(widths)

    def _decode(self, pattern: Sequence[int]) -> Dict[str, Logic]:
        if len(pattern) != len(self.widths):
            raise RemoteError(f"expected {len(self.widths)} operands, "
                              f"got {len(pattern)}")
        for prefix, width, operand in zip(self.prefixes, self.widths,
                                          pattern):
            _check_operand(f"operand {prefix}", operand, width)
        return operands_to_inputs(pattern, self.prefixes, self.widths)

    def power_of_pair(self, session: str, a: int, b: int) -> float:
        """Blocking single-pattern estimation (unbuffered)."""
        return self._estimate(session, [(a, b)])[0][0]

    def mark_pattern(self, session: str, a: int, b: int) -> None:
        """Single-pattern push with *server-side* buffering.

        Used by fully remote modules (the paper's MR scenario), where
        the input patterns are buffered remotely: the client marks each
        pattern with a small call and the provider accumulates and runs
        the accurate simulation on its side.
        """
        self.power_buffer(session, [(a, b)])


class FunctionalServant:
    """Private part of a fully remote module (the paper's MR scenario).

    The module's event handling runs here: the client pushes every event
    arriving at the module's ports and receives the resulting output
    emissions.  Port state is per client session, kept in the caller's
    connection context.
    """

    REMOTE_METHODS = ("handle_event", "evaluate", "reset")

    def __init__(self, width: int, word_op_cost: float = 85e-3):
        self.width = width
        self.word_op_cost = word_op_cost

    def reset(self, session: str) -> None:
        """Drop a session's port state."""
        current_connection().sessions(self).pop(session, None)

    def handle_event(self, session: str, port: str,
                     value: int) -> List[Tuple[str, int]]:
        """Process one input event; return the output emissions."""
        if port not in ("a", "b"):
            raise RemoteError(f"multiplier has no input port {port!r}")
        _check_operand(f"operand {port}", value, self.width)
        state = current_connection().sessions(self).setdefault(session, {})
        state[port] = value
        a, b = state.get("a"), state.get("b")
        context = current_server_context()
        if context is not None:
            context.charge(self.word_op_cost)
        if a is None or b is None:
            return []
        return [("o", (a * b) & ((1 << (2 * self.width)) - 1))]

    def evaluate(self, inputs: Dict[str, int]) -> List[Tuple[str, int]]:
        """Pure combinational evaluation: all known inputs, no session.

        Unlike :meth:`handle_event`, this carries the module's complete
        input-port configuration in one call and touches no server-side
        state, so identical stimuli always produce identical replies --
        which is what makes the call safely *cacheable* on the client's
        response cache.
        """
        unknown = set(inputs) - {"a", "b"}
        if unknown:
            raise RemoteError(
                f"multiplier has no input port(s) {sorted(unknown)!r}")
        for port, value in inputs.items():
            _check_operand(f"operand {port}", value, self.width)
        context = current_server_context()
        if context is not None:
            context.charge(self.word_op_cost)
        a, b = inputs.get("a"), inputs.get("b")
        if a is None or b is None:
            return []
        return [("o", (a * b) & ((1 << (2 * self.width)) - 1))]


class BitPowerServant(SessionPowerServant):
    """The power servant of a corpus bench: arbitrary port structures,
    so a pattern is one bit per netlist primary input, in declaration
    order."""

    REMOTE_METHODS = ("reset", "power_of_bits", "power_buffer",
                      "mark_bits", "fetch_results")

    def _decode(self, pattern: Sequence[int]) -> Dict[str, Logic]:
        return bits_to_inputs(self.netlist, pattern)

    def power_of_bits(self, session: str,
                      bits: Sequence[int]) -> float:
        """Blocking single-pattern estimation (unbuffered)."""
        return self._estimate(session, [bits])[0][0]

    def mark_bits(self, session: str, bits: Sequence[int]) -> None:
        """Single-pattern push with server-side buffering (MR)."""
        self.power_buffer(session, [bits])


class BenchFunctionalServant:
    """Remote functional evaluation of a published bench core (MR).

    ``evaluate`` carries the complete input vector and touches no
    server-side state, so identical stimuli produce identical replies
    (client-cacheable).  Sequential designs thread their register state
    on the *client*: the provider only ever sees combinational core
    evaluations, never the design's trajectory.
    """

    REMOTE_METHODS = ("evaluate",)

    def __init__(self, netlist: Netlist, engine: Optional[str] = None,
                 gate_eval_cost: float = 40e-6):
        self.netlist = netlist
        self.gate_eval_cost = gate_eval_cost
        self.simulator = simulator_for(engine, netlist)

    def evaluate(self, bits: Sequence[int]) -> List[int]:
        """Core output bits for one full input vector, in order."""
        outputs = self.simulator.outputs(
            bits_to_inputs(self.netlist, bits))
        context = current_server_context()
        if context is not None:
            context.charge(self.gate_eval_cost
                           * self.netlist.gate_count())
        return [int(value) for value in outputs]


class TimingServant:
    """Accurate output timing: needs the gate-level structure, so it can
    only run on the provider's server (the paper's Figure 2 example of a
    method that must be remote)."""

    REMOTE_METHODS = ("output_timing",)

    def __init__(self, netlist: Netlist, path_cost: float = 5e-3):
        self.netlist = netlist
        self.path_cost = path_cost

    def output_timing(self) -> float:
        """Worst-case propagation delay in ns."""
        context = current_server_context()
        if context is not None:
            context.charge(self.path_cost)
        return self.netlist.critical_path_delay()


class CatalogServant:
    """Provider-level catalog: component data sheets, estimator listings."""

    REMOTE_METHODS = ("list_components", "describe")

    def __init__(self) -> None:
        self._datasheets: Dict[str, dict] = {}

    def add(self, name: str, datasheet: dict) -> None:
        """Register a component's public data sheet."""
        self._datasheets[name] = datasheet

    def list_components(self) -> List[str]:
        """Names of all published components."""
        return sorted(self._datasheets)

    def describe(self, name: str) -> dict:
        """The public data sheet for one component."""
        try:
            return dict(self._datasheets[name])
        except KeyError:
            raise RemoteError(f"no component named {name!r}") from None


class IPProvider:
    """An IP vendor: authors components and publishes them on a server."""

    def __init__(self, host_name: str = "provider.host.name",
                 cost_model: Optional[CostModel] = None, seed: int = 2099):
        self.server = JavaCADServer(host_name, cost_model=cost_model)
        self.seed = seed
        self.catalog = CatalogServant()
        self.server.bind("catalog", self.catalog,
                         CatalogServant.REMOTE_METHODS)
        self._netlists: Dict[str, Netlist] = {}

    # ------------------------------------------------------------------

    def publish_multiplier(self, width: int,
                           name: str = "MultFastLowPower",
                           training_patterns: int = 300,
                           power_enabled: bool = True,
                           power_server_cost: float = 0.0,
                           fault_collapse: str = "equivalence",
                           engine: Optional[str] = None) -> str:
        """Author and publish the Figure 2 multiplier IP component.

        Builds the secret gate-level implementation, characterizes the
        three Table 1 power estimators against the provider's silicon
        reference, and binds the private servants (power, functionality,
        timing, testability) on the server.  Returns the component name.
        ``engine`` selects the logic simulator under the detection
        tables (:func:`repro.compiled.simulator_for`); replies are
        identical either way.
        """
        import random
        netlist = array_multiplier(width, name=f"{name}-impl")
        prefixes, widths = ("a", "b"), (width, width)

        # Provider-side characterization against measured silicon: one
        # pass over the training sequence feeds all three fits.
        rng = random.Random(self.seed)
        training = [(rng.getrandbits(width), rng.getrandbits(width))
                    for _ in range(training_patterns)]
        inputs = [operands_to_inputs(p, prefixes, widths) for p in training]
        powers = SiliconReference(netlist, seed=self.seed
                                  ).power_of_sequence(inputs)
        constant = characterize_constant(powers)
        regression = fit_regression(powers, training, prefixes)
        calibration = calibrate_toggle_model(ToggleCountModel(netlist),
                                             powers, inputs)

        from ..gates.scoap import ScoapAnalysis
        scoap = ScoapAnalysis(netlist)
        datasheet = {
            "component": name,
            "width": width,
            "area": netlist.area(),
            "delay_ns": netlist.critical_path_delay(),
            # Static testability estimate: boundary SCOAP numbers (the
            # paper's precharacterized open-specification data), which
            # disclose difficulty, not structure.
            "scoap_boundary": scoap.boundary_summary(),
            "scoap_hardest_effort": scoap.hardest_fault()[1],
            "power_constant_mw": constant._value,
            "power_constant_error": 25.0,
            "linreg_intercept": regression.intercept,
            "linreg_slope": regression.slope,
            "linreg_error": 20.0,
            "gate_level_error": 10.0,
            "gate_level_cost_cents": 0.1,
            "estimators": [
                {"type": "constant", "avg_error_pct": 25.0,
                 "rms_error_pct": 90.0, "cost_cents_per_pattern": 0.0,
                 "cpu_s_per_pattern": 0.0, "remote": False,
                 "unpredictable_time": False},
                {"type": "linear-regression", "avg_error_pct": 20.0,
                 "rms_error_pct": 50.0, "cost_cents_per_pattern": 0.0,
                 "cpu_s_per_pattern": 1.0, "remote": False,
                 "unpredictable_time": False},
                {"type": "gate-level-toggle", "avg_error_pct": 10.0,
                 "rms_error_pct": 20.0, "cost_cents_per_pattern": 0.1,
                 "cpu_s_per_pattern": 100.0, "remote": True,
                 "unpredictable_time": True},
            ],
        }
        # The paper's Table 2 excludes the time spent in the actual PPP
        # estimations (it is constant across scenarios), so the default
        # provider-side power compute carries no virtual cost.
        power = PowerServant(netlist, prefixes, widths,
                             calibration=calibration,
                             enabled=power_enabled,
                             gate_eval_cost=power_server_cost)
        return self._publish(name, netlist, datasheet, power,
                             FunctionalServant(width), fault_collapse,
                             engine)

    def _publish(self, name: str, netlist: Netlist, datasheet: dict,
                 power: SessionPowerServant, module: Any,
                 fault_collapse: str, engine: Optional[str]) -> str:
        """Keep the netlist, export the data sheet, bind the four
        private servants of a full component; returns ``name``.  The
        one naming rule of a publish: ``.test`` exports opaque fault
        names (``f0`` ...); each stays mapped to its structural fault
        here, in the fault list's class map.  The ``.test`` servant
        builds that list on its first call, so a client that never
        calls it never pays for it."""
        check_collapse(fault_collapse)
        self._netlists[name] = netlist
        self.catalog.add(name, datasheet)
        faults = partial(build_fault_list, netlist, collapse=fault_collapse,
                         obfuscate=True)
        for suffix, servant in (
                ("power", power), ("module", module),
                ("timing", TimingServant(netlist)),
                ("test", TestabilityServant(netlist, faults,
                                            engine=engine))):
            self.server.bind(f"{name}.{suffix}", servant,
                             servant.REMOTE_METHODS)
        return name

    def publish_bench(self, spec: str, engine: Optional[str] = None,
                      power_enabled: bool = True,
                      power_server_cost: float = 0.0,
                      fault_collapse: str = "equivalence") -> str:
        """Publish a corpus bench (or ``.bench`` file) as an IP component.

        Resolves ``spec`` through :func:`repro.gates.corpus.load_bench`
        -- only the *name* ever crosses the wire; the netlist is built
        and kept provider-side.  Sequential benches publish their
        combinational core (the flip-flop boundary is the user's to
        thread): the bound servants are ``{name}.power``
        (:class:`BitPowerServant`), ``{name}.module``
        (:class:`BenchFunctionalServant`), ``{name}.timing`` and
        ``{name}.test`` (opaque fault names).  ``engine`` selects the
        logic simulator under ``.module`` and ``.test``; replies are
        identical either way.  Returns the component name.
        """
        from ..gates.corpus import load_bench
        from ..gates.io import SequentialBench
        bench = load_bench(spec)
        sequential = isinstance(bench, SequentialBench)
        core = bench.core if sequential else bench
        datasheet = {
            "component": spec,
            "gates": core.gate_count(),
            "area": core.area(),
            "delay_ns": core.critical_path_delay(),
            "inputs": len(core.inputs),
            "outputs": len(core.outputs),
            "flip_flops": len(bench.registers) if sequential else 0,
            "sequential": sequential,
        }
        power = BitPowerServant(core, enabled=power_enabled,
                                gate_eval_cost=power_server_cost)
        return self._publish(
            spec, core, datasheet, power,
            BenchFunctionalServant(core, engine=engine), fault_collapse,
            engine)

    def private_netlist(self, name: str) -> Netlist:
        """Provider-internal access to a published implementation.

        Raises :class:`IPProtectionError` if called through RMI -- this
        accessor exists for the provider's own tooling and tests only.
        """
        if current_server_context() is not None:
            raise IPProtectionError(
                "netlists are never served over the RMI channel")
        return self._netlists[name]
