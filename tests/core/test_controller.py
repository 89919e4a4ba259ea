"""Simulation controllers: the event loop, instants, concurrency."""

import pytest

from repro.core import (Circuit, Logic, ModuleSkeleton,
                        PatternPrimaryInput, PortDirection, PrimaryOutput,
                        Register, SimulationController, SimulationError,
                        Word, WordConnector, connect)
from repro.estimation import (AVERAGE_POWER, ByName, ConstantEstimator,
                              SetupController)


def simple_pipeline(patterns):
    connector = WordConnector(8)
    source = PatternPrimaryInput(8, patterns, connector, name="IN")
    sink = PrimaryOutput(8, connector, name="OUT")
    return Circuit(source, sink), source, sink


class TestEventLoop:
    def test_stats(self):
        circuit, _source, sink = simple_pipeline([1, 2, 3])
        controller = SimulationController(circuit)
        stats = controller.start()
        # 3 self-triggers + 3 signal deliveries
        assert stats.events == 6
        assert stats.instants == 3
        assert stats.end_time == 2.0
        assert [v.value for _t, v in sink.trace(controller.context)] == \
            [1, 2, 3]

    def test_max_time_bound(self):
        circuit, _source, sink = simple_pipeline(list(range(10)))
        controller = SimulationController(circuit)
        controller.start(max_time=4.0)
        assert len(sink.trace(controller.context)) == 5

    def test_max_events_bound(self):
        circuit, _source, _sink = simple_pipeline(list(range(10)))
        controller = SimulationController(circuit)
        stats = controller.start(max_events=4)
        assert stats.events == 4

    def test_initialize_runs_once(self):
        circuit, _source, sink = simple_pipeline([5])
        controller = SimulationController(circuit)
        controller.initialize()
        controller.initialize()
        controller.start()
        assert len(sink.trace(controller.context)) == 1

    def test_virtual_cpu_charged(self):
        circuit, _source, _sink = simple_pipeline([1, 2])
        controller = SimulationController(circuit)
        stats = controller.start()
        assert stats.cpu > 0
        assert controller.clock.cpu == pytest.approx(stats.cpu)

    def test_teardown_clears_state(self):
        circuit, _source, sink = simple_pipeline([1])
        controller = SimulationController(circuit)
        controller.start()
        assert sink.trace(controller.context)
        controller.teardown()
        assert sink.trace(controller.context) == []


class TestPrimeAndInject:
    def test_prime_sets_connector_value(self):
        circuit, _source, _sink = simple_pipeline([1])
        controller = SimulationController(circuit)
        connector = circuit.connectors()[0]
        controller.prime(connector, Word(99, 8))
        assert connector.get_value(
            controller.scheduler.scheduler_id) == Word(99, 8)

    def test_inject_reaches_peer(self):
        a = ModuleSkeleton("a")
        out = a.add_port("o", PortDirection.OUT, 8)
        connector = WordConnector(8)
        connector.attach(out)
        sink = PrimaryOutput(8, connector, name="OUT")
        circuit = Circuit(a, sink)
        controller = SimulationController(circuit)
        controller.inject(out, Word(17, 8))
        controller.start()
        assert sink.last_value(controller.context) == Word(17, 8)

    def test_inject_and_emit_refuse_an_out_only_peer_alike(self):
        a = ModuleSkeleton("a")
        b = ModuleSkeleton("b")
        connect(a.add_port("o", PortDirection.OUT),
                b.add_port("o", PortDirection.OUT))
        controller = SimulationController(Circuit(a, b))
        with pytest.raises(SimulationError) as injected:
            controller.inject(a.port("o"), Logic.ONE)
        with pytest.raises(SimulationError) as emitted:
            a.emit("o", Logic.ONE, controller.context)
        assert str(injected.value) == str(emitted.value) \
            == "peer port b.o cannot receive events"
        assert controller.scheduler.pending == 0


class TestCopyOnWrite:
    """A controller built with ``fallback=`` reads the fallback's values
    wherever it stored none, and its teardown pops only its own."""

    @staticmethod
    def chain():
        """a.o -> w1 -> register -> w2 -> OUT; b.o -> w3 (no reader)."""
        a, b = ModuleSkeleton("a"), ModuleSkeleton("b")
        out = a.add_port("o", PortDirection.OUT, 8)
        spare = b.add_port("o", PortDirection.OUT, 8)
        w1, w2, w3 = WordConnector(8), WordConnector(8), WordConnector(8)
        w1.attach(out)
        w3.attach(spare)
        register = Register(8, w1, w2, name="R")
        sink = PrimaryOutput(8, w2, name="OUT")
        circuit = Circuit(a, b, register, sink)
        return circuit, out, spare, (w1, w2, w3), (register, sink)

    def test_reads_fall_back_and_stores_shadow(self):
        circuit, out, spare, (w1, w2, w3), (_register, sink) = \
            self.chain()
        good = SimulationController(circuit)
        good.inject(out, Word(1, 8))
        good.inject(spare, Word(3, 8))  # no peer: stored, not scheduled
        good.start()
        overlay = SimulationController(circuit, fallback=good)
        sid = overlay.scheduler.scheduler_id
        fallback = overlay.context.fallback_id
        assert fallback == good.scheduler.scheduler_id
        assert w2.get_value(sid, fallback) == Word(1, 8)
        assert w3.get_value(sid, fallback) == Word(3, 8)
        assert not w3.get_value(sid).known  # a plain read: the default
        overlay.inject(out, Word(2, 8))
        stats = overlay.start()
        assert stats.events == 2
        assert w2.get_value(sid, fallback) == Word(2, 8)
        assert w2.get_value(good.scheduler.scheduler_id) == Word(1, 8)
        assert sink.last_value(overlay.context) == Word(2, 8)

    def test_teardown_pops_only_what_the_run_stored(self):
        circuit, out, spare, connectors, modules = self.chain()
        good = SimulationController(circuit)
        good.inject(out, Word(1, 8))
        good.inject(spare, Word(3, 8))
        good.start()
        before = [dict(table._values) for table in connectors] \
            + [dict(module._state) for module in modules]
        overlay = SimulationController(circuit, fallback=good)
        overlay.inject(out, Word(2, 8))
        overlay.inject(spare, Word(4, 8))  # the peer-less store
        overlay.start()
        sid = overlay.scheduler.scheduler_id
        assert all(sid in table._values for table in connectors)
        assert all(sid in module._state for module in modules)
        overlay.teardown()
        after = [dict(table._values) for table in connectors] \
            + [dict(module._state) for module in modules]
        assert after == before
        assert overlay.scheduler.touched == []

    def test_an_unreached_connector_is_never_touched(self):
        circuit, out, _spare, (w1, w2, w3), _modules = self.chain()
        good = SimulationController(circuit)
        good.inject(out, Word(1, 8))
        good.start()
        overlay = SimulationController(circuit, fallback=good)
        overlay.start()
        assert overlay.scheduler.touched == []
        assert w2.get_value(overlay.scheduler.scheduler_id,
                            overlay.context.fallback_id) == Word(1, 8)

    def test_a_plain_controller_keeps_no_log(self):
        circuit, _source, _sink = simple_pipeline([1, 2])
        controller = SimulationController(circuit)
        controller.start()
        assert controller.scheduler.touched is None
        assert controller.context.fallback_id is None


class TestEstimationSweep:
    def make(self, patterns):
        circuit, source, sink = simple_pipeline(patterns)
        estimator = ConstantEstimator(AVERAGE_POWER.name, 2.5,
                                      name="const")
        source.add_estimator(estimator)
        setup = SetupController(name="sweep")
        setup.set(AVERAGE_POWER, ByName("const"))
        setup.apply(circuit)
        return circuit, setup

    def test_one_estimate_per_instant(self):
        circuit, setup = self.make([1, 2, 3, 4])
        controller = SimulationController(circuit, setup=setup)
        controller.start()
        assert len(setup.results.series("IN", AVERAGE_POWER.name)) == 4

    def test_no_setup_no_records(self):
        circuit, setup = self.make([1, 2])
        controller = SimulationController(circuit)  # no setup passed
        controller.start()
        assert setup.results.records == ()


class TestConcurrentControllers:
    def test_threaded_runs_do_not_interfere(self):
        """Two controllers replay the same design concurrently; each
        observes its complete, private trace."""
        circuit, _source, sink = simple_pipeline(list(range(50)))
        controllers = [SimulationController(circuit, name=f"t{i}")
                       for i in range(4)]
        threads = [controller.start_async()
                   for controller in controllers]
        for thread in threads:
            thread.join(timeout=30)
        for controller in controllers:
            trace = sink.trace(controller.context)
            assert [v.value for _t, v in trace] == list(range(50))

    def test_sequential_reuse_without_reset(self):
        circuit, _source, sink = simple_pipeline([7, 8])
        first = SimulationController(circuit)
        first.start()
        second = SimulationController(circuit)
        second.start()
        assert sink.trace(first.context) == sink.trace(second.context)
        assert first.scheduler.scheduler_id != \
            second.scheduler.scheduler_id
