"""Cached port views and what the event path may re-derive.

A module answers ``ports`` / ``input_ports()`` / ``output_ports()`` from
tuples built once; every wiring change made *after* their first use
must still be seen, and the per-event path must not redo structural
work.  Work is checked by counting calls, never by timing.
"""

import sys

from repro.bench import build_figure4
from repro.core import (BitConnector, Circuit, CompositeModule, Logic,
                        ModuleSkeleton, PortDirection,
                        SimulationController, connect)
from repro.faults.virtual import drive_connector


def names(ports):
    return [port.name for port in ports]


class TestPortViewInvalidation:
    def test_add_port_after_first_use_is_seen(self):
        module = ModuleSkeleton("m")
        module.add_port("i", PortDirection.IN)
        assert names(module.ports) == ["i"]
        assert names(module.input_ports()) == ["i"]
        assert module.output_ports() == ()
        module.add_port("o", PortDirection.OUT)
        module.add_port("io", PortDirection.INOUT)
        assert names(module.ports) == ["i", "o", "io"]
        assert names(module.input_ports()) == ["i", "io"]
        assert names(module.output_ports()) == ["o", "io"]

    def test_add_alias_after_first_use_is_seen(self):
        inner = ModuleSkeleton("inner")
        inp = inner.add_port("i", PortDirection.IN)
        composite = CompositeModule(inner, name="outer")
        assert composite.ports == ()
        assert composite.input_ports() == ()
        composite.add_alias("in", inp)
        assert composite.ports == (inp,)
        assert composite.input_ports() == (inp,)
        # A port added to the inner module later is exposed on demand.
        out = inner.add_port("o", PortDirection.OUT)
        assert composite.output_ports() == ()
        composite.add_alias("out", out)
        assert composite.ports == (inp, out)
        assert composite.output_ports() == (out,)
        assert names(inner.output_ports()) == ["o"]

    def test_views_are_identical_between_wiring_changes(self):
        module = ModuleSkeleton("m")
        module.add_port("i", PortDirection.IN)
        module.add_port("o", PortDirection.OUT)
        assert module.input_ports() is module.input_ports()
        assert module.output_ports() is module.output_ports()
        assert module.ports is module.ports
        before = module.input_ports()
        module.add_port("j", PortDirection.IN)
        assert module.input_ports() is not before
        assert module.input_ports() is module.input_ports()


class TestCircuitSeesRewiring:
    """``connectors()`` is not cached: attach / detach / add_port after
    its first use reach it, ``check()`` and ``clear_scheduler_state``."""

    def make(self):
        a = ModuleSkeleton("a")
        b = ModuleSkeleton("b")
        out = a.add_port("o", PortDirection.OUT)
        inp = b.add_port("i", PortDirection.IN)
        connector = connect(out, inp)
        return Circuit(a, b), a, b, out, inp, connector

    def test_detach_and_attach(self):
        circuit, _a, _b, out, inp, connector = self.make()
        assert circuit.connectors() == (connector,)
        assert circuit.check() == []
        connector.detach(inp)
        assert circuit.connectors() == (connector,)
        assert circuit.check() == [
            "input port b.i is unconnected",
            f"connector {connector.name!r} has only 1 endpoint(s)"]
        connector.detach(out)
        assert circuit.connectors() == ()
        replacement = connect(out, inp)
        assert circuit.connectors() == (replacement,)
        assert circuit.check() == []

    def test_port_added_after_first_use(self):
        circuit, a, _b, _out, _inp, connector = self.make()
        assert circuit.connectors() == (connector,)
        late = BitConnector("late")
        a.add_port("extra", PortDirection.IN, connector=late)
        assert circuit.connectors() == (connector, late)
        assert circuit.check() == [
            f"connector {late.name!r} has only 1 endpoint(s)"]

    def test_clear_scheduler_state_reaches_a_late_connector(self):
        circuit, a, _b, _out, _inp, connector = self.make()
        controller = SimulationController(circuit)
        assert circuit.connectors() == (connector,)
        late = BitConnector("late")
        a.add_port("extra", PortDirection.IN, connector=late)
        controller.prime(connector, Logic.ONE)
        controller.prime(late, Logic.ZERO)
        controller.teardown()
        assert connector._values == {} and late._values == {}

    def test_clear_scheduler_state_skips_a_detached_connector(self):
        circuit, _a, _b, out, inp, connector = self.make()
        controller = SimulationController(circuit)
        controller.prime(connector, Logic.ONE)
        connector.detach(out)
        connector.detach(inp)
        controller.teardown()
        sid = controller.scheduler.scheduler_id
        assert connector._values == {sid: Logic.ONE}


class TestEventPathWorkCounts:
    def test_default_value_is_not_evaluated_for_a_present_value(
            self, monkeypatch):
        calls = []
        default_value = BitConnector.default_value

        def counted(connector):
            calls.append(connector.name)
            return default_value(connector)

        monkeypatch.setattr(BitConnector, "default_value", counted)
        connector = BitConnector("n")
        assert connector.get_value(1) is Logic.X
        assert calls == ["n"]
        connector.set_value(1, Logic.ZERO)
        assert connector.get_value(1) is Logic.ZERO
        assert connector.get_value(2) is Logic.X
        assert calls == ["n", "n"]

    def test_connectors_are_scanned_once_per_pattern(self, monkeypatch):
        setup = build_figure4(collapse="none")
        scans = []
        connectors = Circuit.connectors

        def counted(circuit):
            scans.append(circuit.name)
            return connectors(circuit)

        monkeypatch.setattr(Circuit, "connectors", counted)
        patterns = [{"A": 1, "B": 1, "C": 0, "D": 1},
                    {"A": 1, "B": 1, "C": 1, "D": 1},
                    {"A": 0, "B": 1, "C": 1, "D": 0}]
        setup.simulator.run(patterns)
        assert setup.simulator.injection_runs > len(patterns)
        assert scans == ["figure4"] * len(patterns)


class TestConcurrentControllersOverCachedViews:
    def test_cold_views_built_under_contention(self):
        """Controllers started together over one gate-level circuit race
        to build its modules' port views; each still computes its own
        stimulus's outputs."""
        stimuli = [{"A": a, "B": 1, "C": c, "D": 1}
                   for a in (0, 1) for c in (0, 1)] * 2
        expected = [(Logic(p["A"] ^ p["C"]), Logic(p["A"] & p["C"]))
                    for p in stimuli]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            setup = build_figure4(collapse="none")
            controllers = []
            for index, pattern in enumerate(stimuli):
                controller = SimulationController(setup.circuit,
                                                  name=f"t{index}")
                for name, connector in setup.inputs.items():
                    drive_connector(controller, connector,
                                    Logic(pattern[name]))
                controllers.append(controller)
            threads = [controller.start_async()
                       for controller in controllers]
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        observed = [tuple(setup.outputs[name].get_value(
            controller.scheduler.scheduler_id) for name in ("O1", "O2"))
            for controller in controllers]
        assert observed == expected
