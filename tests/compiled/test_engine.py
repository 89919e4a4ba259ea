"""Engine selection plumbing: resolve, dispatch, ATPG and servant."""

import pytest

from repro.compiled import (CompiledFaultSimulator, CompiledSimulator,
                            clear_kernel_cache, fault_simulator_for,
                            resolve_engine, simulator_for)
from repro.compiled.engine import DEFAULT_ENGINE
from repro.core.errors import FaultSimulationError
from repro.core.signal import Logic
from repro.faults.atpg import generate_test_set
from repro.faults.detection import build_detection_table
from repro.faults.faultlist import build_fault_list
from repro.faults.serial import SerialFaultSimulator
from repro.faults.virtual import TestabilityServant
from repro.gates.generators import ip1_block
from repro.gates.simulator import NetlistSimulator
from repro.ip import IPProvider
from repro.parallel.remote import resolve_bench
from repro.telemetry import TELEMETRY, telemetry_session


class TestResolution:
    def test_none_means_compiled(self):
        assert resolve_engine(None) == "compiled" == DEFAULT_ENGINE

    def test_known_engines_pass_through(self):
        assert resolve_engine("event") == "event"
        assert resolve_engine("compiled") == "compiled"

    def test_unknown_engine_rejected(self):
        with pytest.raises(FaultSimulationError, match="unknown engine"):
            resolve_engine("jit")

    def test_dispatch_types(self):
        netlist = resolve_bench("figure4")
        assert isinstance(fault_simulator_for("event", netlist),
                          SerialFaultSimulator)
        assert isinstance(fault_simulator_for("compiled", netlist),
                          CompiledFaultSimulator)
        assert isinstance(fault_simulator_for(None, netlist),
                          CompiledFaultSimulator)

    def test_simulator_dispatch_types(self):
        netlist = resolve_bench("figure4")
        assert isinstance(simulator_for("event", netlist),
                          NetlistSimulator)
        assert isinstance(simulator_for("compiled", netlist),
                          CompiledSimulator)
        assert isinstance(simulator_for(None, netlist), CompiledSimulator)
        with pytest.raises(FaultSimulationError, match="unknown engine"):
            simulator_for("jit", netlist)

    @pytest.mark.parametrize("engine", ["event", "compiled"])
    def test_outputs_for_faults_equals_per_fault_outputs(self, engine):
        netlist = resolve_bench("figure4")
        fault_list = build_fault_list(netlist, collapse="none")
        faults = [fault_list.fault(name) for name in fault_list.names()]
        simulator = simulator_for(engine, netlist)
        oracle = NetlistSimulator(netlist)
        for word in range(1 << len(netlist.inputs)):
            pattern = {net: Logic((word >> bit) & 1)
                       for bit, net in enumerate(netlist.inputs)}
            assert simulator.outputs_for_faults(pattern, faults) \
                == [oracle.outputs(pattern, fault=fault)
                    for fault in faults]
        assert simulator.outputs_for_faults(pattern, []) == []


class TestAtpgParity:
    def test_test_sets_byte_identical(self):
        netlist = resolve_bench("figure4")
        fault_list = build_fault_list(netlist)
        event = generate_test_set(netlist, fault_list, random_patterns=16,
                                  seed=2, engine="event")
        compiled = generate_test_set(netlist, fault_list,
                                     random_patterns=16, seed=2,
                                     engine="compiled")
        assert compiled.patterns == event.patterns
        assert compiled.detected == event.detected
        assert list(compiled.detected) == list(event.detected)
        assert compiled.untestable == event.untestable
        assert compiled.aborted == event.aborted


class TestServantEngine:
    def test_detection_tables_identical(self):
        netlist = ip1_block()
        fault_list = build_fault_list(netlist)
        event = TestabilityServant(netlist, fault_list, engine="event")
        compiled = TestabilityServant(netlist, fault_list)
        assert (event.engine, compiled.engine) == ("event", "compiled")
        undetected = fault_list.names()
        bits = [Logic.ONE if i % 2 else Logic.ZERO
                for i in range(len(netlist.inputs))]
        assert compiled.detection_table(bits, undetected) \
            == event.detection_table(bits, undetected)

    def test_unknown_engine_rejected(self):
        with pytest.raises(FaultSimulationError, match="unknown engine"):
            TestabilityServant(ip1_block(), engine="jit")

    def test_publishing_compiles_only_the_power_kernel(self):
        """The compiled engine is the default on the provider path and
        costs a publish nothing: the logic simulators take the kernel
        from the process-wide cache on the first ``detection_table`` /
        ``evaluate`` that needs it, not at construction.  The one
        compile a publish pays is the multiplier's power
        characterization (the silicon runs on the kernel, and the
        calibrated toggle model takes it from the cache), and the
        testability servant then shares that kernel."""
        clear_kernel_cache()
        with telemetry_session():
            counter = TELEMETRY.metrics.counter
            provider = IPProvider("lazy.provider")
            name = provider.publish_multiplier(8, training_patterns=20)
            assert counter("compiled.cache.misses").value == 1
            provider.publish_bench("c17")
            assert counter("compiled.cache.misses").value == 1
            assert counter("compiled.cache.hits").value == 1
            lookup = provider.server.registry.lookup
            test = lookup(f"{name}.test").servant
            bits = [Logic.ZERO] * len(test.netlist.inputs)
            test.detection_table(bits, test.fault_list()[:8])
            test.detection_table(bits, test.fault_list()[8:16])
            assert counter("compiled.cache.misses").value == 1
            lookup("c17.module").servant.evaluate([0, 1, 0, 1, 1])
            assert counter("compiled.cache.misses").value == 2

    def test_detection_table_accepts_compiled_simulator(self):
        netlist = ip1_block()
        fault_list = build_fault_list(netlist)
        servant = TestabilityServant(netlist, fault_list,
                                     engine="compiled")
        inputs = {net: Logic.ZERO for net in netlist.inputs}
        table = build_detection_table(netlist, fault_list, inputs,
                                      simulator=servant.simulator)
        reference = build_detection_table(netlist, fault_list, inputs)
        assert table == reference
