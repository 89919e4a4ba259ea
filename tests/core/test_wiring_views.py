"""Cached port views and what the event path may re-derive.

A module answers ``ports`` / ``input_ports()`` / ``output_ports()`` from
tuples built once; every wiring change made *after* their first use
must still be seen, and the per-event path must not redo structural
work.  Work is checked by counting calls, never by timing.
"""

import sys

from repro.bench import build_figure4
from repro.core import (BitConnector, Circuit, CompositeModule, Connector,
                        Logic, ModuleSkeleton, PortDirection,
                        SimulationController, connect)
from repro.faults.virtual import drive_connector
from repro.gates import LogicGateModule
from repro.gates.cells import CELLS


def names(ports):
    return [port.name for port in ports]


def found(circuit):
    """Each of a circuit's findings as its (code, target)."""
    return [(item.code, item.target) for item in circuit.findings()]


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
    its first use reach it, ``findings()`` and ``clear_scheduler_state``.
    ``b`` reads a port and handles no event, so JCD005 stays."""

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
        assert found(circuit) == [("JCD005", "circuit.b")]
        connector.detach(inp)
        assert circuit.connectors() == (connector,)
        assert found(circuit) == [
            ("JCD001", "circuit.b.i"), ("JCD005", "circuit.b"),
            ("JCD002", f"circuit.{connector.name}")]
        connector.detach(out)
        assert circuit.connectors() == ()
        replacement = connect(out, inp)
        assert circuit.connectors() == (replacement,)
        assert found(circuit) == [("JCD005", "circuit.b")]

    def test_port_added_after_first_use(self):
        circuit, a, _b, _out, _inp, connector = self.make()
        assert circuit.connectors() == (connector,)
        late = BitConnector("late")
        a.add_port("extra", PortDirection.IN, connector=late)
        assert circuit.connectors() == (connector, late)
        assert found(circuit) == [
            ("JCD005", "circuit.a"), ("JCD005", "circuit.b"),
            ("JCD002", "circuit.late")]

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


class Recorder(ModuleSkeleton):
    """Logs every signal event it is handed as (module, port, value)."""

    def __init__(self, name, log):
        super().__init__(name)
        self.log = log

    def process_input_event(self, token, ctx):
        self.log.append((self.name, token.port.name, token.value))


class TestRouteInvalidation:
    """A port's route is resolved by attach / detach, never per event:
    every rewiring, however late, must be what the next event sees."""

    def make(self):
        log = []
        a, b, c = (Recorder(name, log) for name in "abc")
        out = a.add_port("o", PortDirection.OUT)
        connector = connect(out, b.add_port("i", PortDirection.IN))
        c.add_port("i", PortDirection.IN)
        controller = SimulationController(Circuit(a, b, c))
        return controller, log, a, b, c, out, connector

    def test_routes_follow_attach_and_detach(self):
        _controller, _log, a, b, _c, out, connector = self.make()
        inp = b.port("i")
        assert out.route == (connector, inp, b)
        assert inp.route == (connector, out, a)
        assert out.peer() is inp and inp.peer() is out
        connector.detach(inp)
        assert inp.route is None and inp.peer() is None
        assert out.route == (connector, None, None)
        connector.detach(out)
        assert out.route is None and out.connector is None
        assert connector.endpoints == ()

    def test_detach_then_emit_drops_the_value(self):
        controller, log, a, b, _c, out, connector = self.make()
        sid = controller.scheduler.scheduler_id
        connector.detach(out)
        a.emit("o", Logic.ONE, controller.context)
        assert controller.scheduler.empty
        assert connector._values == {}
        # The far end alone on the connector: the value is recorded.
        connector.attach(out)
        connector.detach(b.port("i"))
        a.emit("o", Logic.ONE, controller.context)
        assert controller.scheduler.empty
        assert connector._values == {sid: Logic.ONE}
        assert log == []

    def test_rewiring_after_the_first_event_reaches_the_new_peer(self):
        controller, log, a, _b, c, out, connector = self.make()
        a.emit("o", Logic.ONE, controller.context)
        controller.start()
        assert log == [("b", "i", Logic.ONE)]
        connector.detach(out)
        replacement = connect(out, c.port("i"))
        a.emit("o", Logic.ZERO, controller.context)
        controller.inject(out, Logic.ONE)
        controller.start()
        assert log[1:] == [("c", "i", Logic.ZERO), ("c", "i", Logic.ONE)]
        sid = controller.scheduler.scheduler_id
        assert replacement.get_value(sid) is Logic.ONE
        assert connector.get_value(sid) is Logic.ONE  # b's, untouched

    def test_composite_alias_resolves_to_the_inner_route(self):
        controller, log, a, _b, c, out, connector = self.make()
        composite = CompositeModule(a, name="outer")
        composite.add_alias("result", out)
        composite.emit("result", Logic.ONE, controller.context)
        connector.detach(out)
        connect(composite.port("result"), c.port("i"))
        composite.emit("result", Logic.ZERO, controller.context)
        controller.start()
        assert log == [("b", "i", Logic.ONE), ("c", "i", Logic.ZERO)]

    def test_inout_ports_route_both_ways(self):
        log = []
        left, right = Recorder("left", log), Recorder("right", log)
        connect(left.add_port("io", PortDirection.INOUT),
                right.add_port("io", PortDirection.INOUT))
        controller = SimulationController(Circuit(left, right))
        left.emit("io", Logic.ONE, controller.context)
        right.emit("io", Logic.ZERO, controller.context)
        controller.start()
        assert log == [("right", "io", Logic.ONE),
                       ("left", "io", Logic.ZERO)]


class TestEventPathWorkCounts:
    def test_a_campaign_never_rescans_wiring_or_directions(
            self, monkeypatch):
        """After build, no event scans a connector for its peer or
        evaluates a direction property: ports carry both."""
        setup = build_figure4(collapse="none")
        calls = []

        def counting(name, wrapped):
            def counted(*args):
                calls.append(name)
                return wrapped(*args)
            return counted

        monkeypatch.setattr(Connector, "peer_of",
                            counting("peer_of", Connector.peer_of))
        for name in ("can_read", "can_write"):
            monkeypatch.setattr(PortDirection, name, property(counting(
                name, getattr(PortDirection, name).fget)))
        patterns = [dict(zip("ABCD", ((index >> 3) & 1, (index >> 2) & 1,
                                      (index >> 1) & 1, index & 1)))
                    for index in range(16)]
        report = setup.simulator.run(patterns)
        assert setup.simulator.injection_runs == 12
        assert len(report.detected) == 36
        assert calls == []
        # The counters do count: one wiring change is one rescan.
        out = setup.circuit.module("gE").port("out")
        out.connector.detach(out)
        assert calls == ["peer_of"]
        assert PortDirection.IN.can_read and calls[1:] == ["can_read"]

    def test_gates_read_their_tables_and_hooks_are_skipped(
            self, monkeypatch):
        """Over one campaign a one- or two-pin gate module never calls
        ``cell.evaluate`` (it indexes the truth table) or looks a port
        up by name, and no module's no-op ``initialize`` is called."""
        setup = build_figure4(collapse="none")
        gates = [module for module in setup.circuit.modules
                 if isinstance(module, LogicGateModule)]
        assert sorted(len(gate.input_ports()) for gate in gates) \
            == [1, 2, 2]
        calls = []

        def counting(name, wrapped):
            def counted(*args, **kwargs):
                calls.append(name)
                return wrapped(*args, **kwargs)
            return counted

        originals = {cell: cell.evaluate for cell in CELLS.values()}
        try:
            for cell, evaluate in originals.items():
                # CellType is frozen: swap the field in place.
                object.__setattr__(cell, "evaluate", counting(
                    f"{cell.name}.evaluate", evaluate))
            port = ModuleSkeleton.port

            def counted_port(module, name):
                if isinstance(module, LogicGateModule):
                    calls.append(f"{module.name}.port")
                return port(module, name)

            monkeypatch.setattr(ModuleSkeleton, "port", counted_port)
            monkeypatch.setattr(ModuleSkeleton, "initialize", counting(
                "initialize", ModuleSkeleton.initialize))
            patterns = [dict(zip("ABCD", ((index >> 3) & 1,
                                          (index >> 2) & 1,
                                          (index >> 1) & 1, index & 1)))
                        for index in range(16)]
            report = setup.simulator.run(patterns)
            assert setup.simulator.injection_runs == 12
            assert len(report.detected) == 36
            assert calls == []
            # The counters do count.
            gate = setup.circuit.module("gE")
            gate.port("out")
            CELLS["AND"].evaluate(Logic.ONE, Logic.ONE)
            ModuleSkeleton.initialize(gate, None)
            assert calls == ["gE.port", "AND.evaluate", "initialize"]
        finally:
            for cell, evaluate in originals.items():
                object.__setattr__(cell, "evaluate", evaluate)

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

    def test_connectors_are_scanned_once_per_campaign(self, monkeypatch):
        """The wiring is fixed while a campaign lasts: one scan serves
        every pattern's fault-free clear."""
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
        assert scans == ["figure4"]
        setup.simulator.run(patterns)
        assert scans == ["figure4"] * 2


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
