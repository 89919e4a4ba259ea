"""The virtual fault-simulation protocol, unit scale."""

import gc
import weakref

import pytest

from repro.bench import PublicFunctionalModel, build_embedded, build_figure4
from repro.core import (BitConnector, Circuit, ConnectionError_,
                        FaultSimulationError, Logic, ModuleSkeleton,
                        PortDirection, PrimaryOutput, SimulationController,
                        SimulationError, Word, WordConnector)
from repro.faults import (DetectionTable, IPBlockClient,
                          TestabilityServant, build_fault_list)
from repro.faults.detection import _table_to_wire
from repro.faults import virtual as virtual_module
from repro.faults.virtual import drive_connector
from repro.gates import ip1_block
from repro.gates.corpus import load_bench


class TestServant:
    def test_fault_list_phase(self):
        servant = TestabilityServant(ip1_block())
        names = servant.fault_list()
        assert len(names) == len(servant.faults)
        assert all(isinstance(name, str) for name in names)

    def test_detection_table_arity_check(self):
        servant = TestabilityServant(ip1_block())
        with pytest.raises(FaultSimulationError, match="input bits"):
            servant.detection_table([Logic.ONE], servant.fault_list())


class TestClientProtocol:
    def test_phase1_composes_qualified_names(self):
        setup = build_figure4(collapse="none")
        composed = setup.simulator.build_fault_list()
        assert all(name.startswith("IP1:") for name in composed)
        assert len(composed) == len(setup.fault_list)

    def test_detection_table_cache_by_input_config(self):
        setup = build_figure4(collapse="none")
        # Two patterns with identical IP input configurations (E=1, C=0).
        setup.simulator.run([
            {"A": 1, "B": 1, "C": 0, "D": 0},
            {"A": 1, "B": 1, "C": 0, "D": 1},
        ])
        assert setup.simulator.ip_blocks[0].remote_table_fetches == 1

    def test_different_input_config_fetches_again(self):
        setup = build_figure4(collapse="none")
        setup.simulator.run([
            {"A": 1, "B": 1, "C": 0, "D": 1},
            {"A": 0, "B": 1, "C": 1, "D": 1},
        ])
        assert setup.simulator.ip_blocks[0].remote_table_fetches == 2

    def test_injection_runs_once_per_live_row(self):
        setup = build_figure4(collapse="none")
        table = setup.servant.detection_table(
            [Logic.ONE, Logic.ZERO], setup.fault_list.names())
        setup.simulator.run([{"A": 1, "B": 1, "C": 0, "D": 1}])
        assert setup.simulator.injection_runs == len(table.rows)

    def test_dropped_faults_not_requested_again(self):
        setup = build_figure4(collapse="none")
        report = setup.simulator.run(
            [{"A": 1, "B": 1, "C": 0, "D": 1}] * 3)
        # Every detection happened on the first pattern; later identical
        # patterns found nothing new.
        assert all(index == 0 for index in report.detected.values())

    def test_full_coverage_skips_further_work(self):
        setup = build_figure4(collapse="none")
        patterns = [{"A": a, "B": b, "C": c, "D": 1}
                    for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        report = setup.simulator.run(patterns + patterns)
        fetches = setup.simulator.ip_blocks[0].remote_table_fetches
        # At most one fetch per distinct IP input configuration (4).
        assert fetches <= 4
        assert report.coverage > 0.8

    def test_unknown_ip_inputs_skip_the_block(self):
        """Before the IP sees defined inputs no table is requested."""
        setup = build_figure4(collapse="none")
        report = setup.simulator.run([])
        assert report.detected == {}
        assert setup.simulator.ip_blocks[0].remote_table_fetches == 0

    def test_fault_free_run_does_not_mark_anything(self):
        setup = build_figure4(collapse="none")
        report = setup.simulator.run([{"A": 0, "B": 0, "C": 0, "D": 0}])
        # Whatever is detected must come from table rows, never from the
        # fault-free comparison itself.
        good = {"IP1:" + name for name in setup.fault_list.names()}
        assert set(report.detected) <= good

    def test_missing_primary_input_rejected(self):
        setup = build_figure4(collapse="none")
        with pytest.raises(FaultSimulationError, match="missing"):
            setup.simulator.run([{"A": 1, "B": 1, "C": 0}])


class TestNothingLeftBehind:
    """Every per-scheduler entry a pattern creates dies with it."""

    @staticmethod
    def leftovers(setup, *extra):
        return ([c.name for c in setup.circuit.connectors() + extra
                 if c._values]
                + [m.name for m in setup.circuit.modules if m._state])

    def test_unread_primary_input_does_not_leak(self):
        """A primary input nothing reads is primed, not scheduled, and
        is no connector of the circuit: the pattern must clear it."""
        setup = build_figure4(collapse="none")
        spare = BitConnector("SPARE")
        setup.simulator.inputs["SPARE"] = spare
        setup.simulator.run([
            {"A": a, "B": 1, "C": c, "D": 1, "SPARE": a}
            for a in (0, 1) for c in (0, 1, 1)])
        assert setup.simulator.injection_runs > 0
        assert self.leftovers(setup, spare) == []

    def test_injection_runs_leave_nothing_figure4(self):
        """Figure 4 with O2 read by no module: gF's output route has no
        peer, so every value reaching O2 is ``deliver``'s direct store,
        in the fault-free run and in the injections alike."""
        setup = build_figure4(collapse="none")
        po2 = setup.circuit.module("PO2").port("in")
        o2 = po2.connector
        o2.detach(po2)
        stores = []
        set_value = o2.set_value

        def recorded(scheduler_id, value):
            stores.append(scheduler_id)
            set_value(scheduler_id, value)

        o2.set_value = recorded
        patterns = [dict(zip("ABCD", ((index >> 3) & 1, (index >> 2) & 1,
                                      (index >> 1) & 1, index & 1)))
                    for index in range(16)]
        report = setup.simulator.run(patterns)
        assert setup.simulator.injection_runs > 0 and report.detected
        # Injection runs stored on O2 too, not only the 16 fault-free.
        assert len(set(stores)) > len(patterns)
        assert self.leftovers(setup, o2) == []

    def test_injection_runs_leave_nothing_embedded_alu8(self):
        experiment = build_embedded(load_bench("alu8"), block_name="IP")
        virtual = experiment.virtual
        virtual.run(experiment.random_patterns(16, seed=1))
        assert virtual.injection_runs > 0
        assert [c.name for c in (*virtual.circuit.connectors(),
                                 *virtual.inputs.values()) if c._values] \
            == []
        assert [m.name for m in virtual.circuit.modules if m._state] == []

    def test_controllers_are_freed_by_reference_count(self, monkeypatch):
        """A controller, its context and its scheduler form no cycle: with
        the cyclic collector off, every fault-free and injection
        controller of a campaign is gone once its pattern is done."""
        alive = []

        class Watched(SimulationController):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                alive.append((weakref.ref(self),
                              weakref.ref(self.scheduler)))

        monkeypatch.setattr(virtual_module, "SimulationController",
                            Watched)
        experiment = build_embedded(load_bench("alu8"), block_name="IP")
        virtual = experiment.virtual
        enabled = gc.isenabled()
        gc.disable()
        try:
            virtual.run(experiment.random_patterns(8, seed=1))
            assert virtual.injection_runs > 0
            assert len(alive) == 8 + virtual.injection_runs
            assert [pair for pair in alive
                    if pair[0]() is not None or pair[1]() is not None] \
                == []
        finally:
            if enabled:
                gc.enable()

    def test_missing_input_error_still_tears_down(self):
        setup = build_figure4(collapse="none")
        spare = BitConnector("SPARE")
        setup.simulator.inputs = {"SPARE": spare,
                                  **setup.simulator.inputs}
        with pytest.raises(FaultSimulationError, match="missing"):
            setup.simulator.run([{"SPARE": 1, "A": 1, "B": 1, "C": 0}])
        assert self.leftovers(setup, spare) == []

    def test_module_error_in_the_fault_free_run_still_tears_down(self):
        setup = build_figure4(collapse="none")
        # A word on a bit connector is rejected when the event is
        # delivered, after A and B have already reached gate gE.
        with pytest.raises(ConnectionError_, match="carries Logic"):
            setup.simulator.run([{"A": 1, "B": 1, "C": Word(1, 2),
                                  "D": 1}])
        assert self.leftovers(setup) == []


class TestInjectOutputs:
    def test_short_faulty_pattern_schedules_nothing(self):
        """The width is validated before the first token is scheduled."""
        setup = build_figure4(collapse="none")
        controller = SimulationController(setup.circuit)
        block = setup.simulator.ip_blocks[0]
        fault_free = (Logic.ZERO, Logic.ZERO)
        for width in (1, 3):
            with pytest.raises(FaultSimulationError,
                               match="output pattern width"):
                block.inject_outputs(controller, [Logic.ONE] * width,
                                     fault_free)
        assert controller.scheduler.empty

    @staticmethod
    def word_and_bit_block():
        """A block with a 3-bit word output ``w`` and a bit output ``b``,
        each read by a primary output (so an injection is a token)."""
        block = ModuleSkeleton("blk")
        word = WordConnector(3)
        bit = BitConnector()
        block.add_port("w", PortDirection.OUT, 3, connector=word)
        block.add_port("b", PortDirection.OUT, 1, connector=bit)
        circuit = Circuit(block, PrimaryOutput(3, word, name="PW"),
                          PrimaryOutput(1, bit, name="PB"))
        return circuit, IPBlockClient(block, stub=None)

    def scheduled(self, fault_free, pattern):
        circuit, client = self.word_and_bit_block()
        controller = SimulationController(circuit)
        client.inject_outputs(controller, pattern, fault_free)
        return sorted((token.port.owner.name, token.value)
                      for _time, _seq, token in controller.scheduler._queue)

    def test_an_unchanged_bit_is_not_scheduled(self):
        assert self.scheduled(
            (Word(5, 3), Logic.ONE),
            (Logic.ZERO, Logic.ZERO, Logic.ONE, Logic.ONE)) \
            == [("PW", Word(4, 3))]

    def test_an_unchanged_word_is_not_scheduled(self):
        assert self.scheduled(
            (Word(5, 3), Logic.ONE),
            (Logic.ONE, Logic.ZERO, Logic.ONE, Logic.ZERO)) \
            == [("PB", Logic.ZERO)]

    def test_a_word_with_one_flipped_bit_is_scheduled_whole(self):
        assert self.scheduled(
            (Word(5, 3), Logic.ONE),
            (Logic.ONE, Logic.ONE, Logic.ONE, Logic.ONE)) \
            == [("PW", Word(7, 3))]

    def test_x_and_z_compare_as_themselves(self):
        unknown = (Logic.X, Logic.X, Logic.X)
        # X against X and Z against Z are unchanged ...
        assert self.scheduled((Word.unknown(3), Logic.X),
                              unknown + (Logic.X,)) == []
        assert self.scheduled((Word(0, 3), Logic.Z),
                              (Logic.ZERO,) * 3 + (Logic.Z,)) == []
        # ... Z against X, X against 0 and a known word against an
        # unknown one are not.
        assert self.scheduled((Word.unknown(3), Logic.X),
                              (Logic.ZERO,) * 3 + (Logic.Z,)) \
            == [("PB", Logic.Z), ("PW", Word(0, 3))]
        assert self.scheduled((Word(0, 3), Logic.ZERO),
                              (Logic.ZERO, Logic.X, Logic.ZERO, Logic.X)) \
            == [("PB", Logic.X), ("PW", Word.unknown(3))]


class TestRowOrder:
    def test_rows_are_injected_in_wire_order(self, monkeypatch):
        """``_try_rows`` walks the rows as ``_table_to_wire`` ships them
        (one sort key), which is their int-tuple order, X and Z too."""
        setup = build_figure4(collapse="none")
        patterns = [(Logic.Z, Logic.ZERO), (Logic.X, Logic.ONE),
                    (Logic.ONE, Logic.Z), (Logic.ZERO, Logic.X),
                    (Logic.ONE, Logic.ZERO), (Logic.X, Logic.X),
                    (Logic.ZERO, Logic.ONE), (Logic.Z, Logic.Z)]
        names = setup.fault_list.names()[:len(patterns)]
        table = DetectionTable(
            "IP1", (Logic.ONE, Logic.ZERO), (Logic.ONE, Logic.ONE),
            {pattern: [name] for pattern, name in zip(patterns, names)})
        injected = []
        monkeypatch.setattr(
            setup.simulator, "_injection_detects",
            lambda block, pattern, *rest: injected.append(pattern))
        setup.simulator._try_rows(setup.simulator.ip_blocks[0], table,
                                  names, SimulationController(setup.circuit),
                                  {})
        assert injected == [tuple(pattern) for pattern, _names
                            in _table_to_wire(table)["rows"]]
        assert injected == sorted(
            patterns, key=lambda pattern: tuple(int(b) for b in pattern))


class TestPublicModelWidth:
    @pytest.mark.parametrize("returned", [1, 3])
    def test_wrong_output_width_is_refused(self, returned):
        """Zipping a short or long result against the two output ports
        would silently simulate something else."""
        connectors = {name: BitConnector(name) for name in "ab"}
        model = PublicFunctionalModel(
            ["a"], ["x", "y"], lambda bits: (Logic.ONE,) * returned,
            connectors, name="M")
        controller = SimulationController(Circuit(model))
        drive_connector(controller, connectors["a"], Logic.ZERO)
        with pytest.raises(
                SimulationError,
                match=f"'M'.*returned {returned} bits for 2 output"):
            controller.start()


class TestSimulatorReuse:
    def test_second_run_is_not_poisoned_by_stale_tables(self):
        """Regression: tables cached during run 1 were fetched against
        run 1's shrinking undetected set; run 2 resets the fault list,
        so reusing them would silently miss faults.  A reused simulator
        must detect exactly what a fresh one does."""
        reused = build_figure4(collapse="none")
        patterns = [
            {"A": 1, "B": 1, "C": 0, "D": 1},   # drops several faults
            {"A": 1, "B": 1, "C": 0, "D": 1},
        ]
        reused.simulator.run(patterns)
        second = reused.simulator.run(patterns)

        fresh = build_figure4(collapse="none")
        reference = fresh.simulator.run(patterns)
        assert dict(second.detected) == dict(reference.detected)

    def test_cache_still_effective_within_one_run(self):
        setup = build_figure4(collapse="none")
        setup.simulator.run([{"A": 1, "B": 1, "C": 0, "D": 0},
                             {"A": 1, "B": 1, "C": 0, "D": 1}])
        assert setup.simulator.ip_blocks[0].remote_table_fetches == 1


class TestCollapsedProtocol:
    def test_collapsed_lists_also_work(self):
        full = build_figure4(collapse="none")
        collapsed = build_figure4(collapse="equivalence")
        patterns = [{"A": a, "B": b, "C": c, "D": d}
                    for a in (0, 1) for b in (0, 1)
                    for c in (0, 1) for d in (0, 1)]
        full_report = full.simulator.run(patterns)
        collapsed_report = collapsed.simulator.run(patterns)
        # Expanded to the universe, both flows cover the same faults.
        full_members = set()
        for qualified in full_report.detected:
            name = qualified.split(":", 1)[1]
            full_members |= {f.name for f
                             in full.fault_list.class_of(name)}
        collapsed_members = set()
        for qualified in collapsed_report.detected:
            name = qualified.split(":", 1)[1]
            collapsed_members |= {
                f.name for f in collapsed.fault_list.class_of(name)}
        assert full_members == collapsed_members
