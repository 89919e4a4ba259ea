"""The virtual fault-simulation protocol, unit scale."""

import pytest

from repro.bench import PublicFunctionalModel, build_figure4
from repro.core import (BitConnector, Circuit, ConnectionError_,
                        FaultSimulationError, Logic,
                        SimulationController, SimulationError, Word)
from repro.faults import (DetectionTable, TestabilityServant,
                          build_fault_list)
from repro.faults.detection import _table_to_wire
from repro.faults.virtual import drive_connector
from repro.gates import ip1_block


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

    def test_tables_served_counter(self):
        servant = TestabilityServant(ip1_block())
        servant.detection_table([Logic.ONE, Logic.ZERO],
                                servant.fault_list())
        assert servant.tables_served == 1


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
        for width in (1, 3):
            with pytest.raises(FaultSimulationError,
                               match="output pattern width"):
                block.inject_outputs(controller, [Logic.ONE] * width)
        assert controller.scheduler.empty


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
                                  names, {}, {})
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
