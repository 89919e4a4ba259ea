"""Design lint: a circuit's own findings (JCD001-JCD003, JCD005) and
the rules over designs and setups (JCD001, JCD009)."""

from types import SimpleNamespace

import pytest

from repro.core import (BitConnector, Circuit, Design, ModuleSkeleton,
                        PortDirection, connect)
from repro.estimation import SetupController
from repro.lint import Severity, lint_design, lint_setup
from repro.lint.runner import run_lint
from repro.telemetry import TELEMETRY, telemetry_session


class Sink(ModuleSkeleton):
    """A module that actually handles input events."""

    def process_input_event(self, token, ctx):
        pass


def codes(findings):
    return sorted(f.code for f in findings)


def clean_circuit():
    source = ModuleSkeleton(name="src")
    source.add_port("q", PortDirection.OUT)
    sink = Sink(name="snk")
    sink.add_port("d", PortDirection.IN)
    connect(source.port("q"), sink.port("d"))
    return Circuit(source, sink, name="clean")


class TestCleanCircuit:
    def test_zero_findings(self):
        assert clean_circuit().findings() == ()


class TestUnconnectedInput:
    def test_jcd001(self):
        sink = Sink(name="snk")
        sink.add_port("d", PortDirection.IN)
        findings = Circuit(sink, name="c").findings()
        assert codes(findings) == ["JCD001"]
        assert "snk.d" in findings[0].message
        assert findings[0].severity is Severity.ERROR

    def test_dangling_output_is_legal(self):
        source = ModuleSkeleton(name="src")
        source.add_port("q", PortDirection.OUT)
        assert Circuit(source, name="c").findings() == ()


class TestSilentModule:
    def test_jcd005(self):
        mute = ModuleSkeleton(name="mute")
        mute.add_port("d", PortDirection.IN)
        driver = ModuleSkeleton(name="drv")
        driver.add_port("q", PortDirection.OUT)
        connect(driver.port("q"), mute.port("d"))
        findings = Circuit(driver, mute, name="c").findings()
        assert codes(findings) == ["JCD005"]
        assert findings[0].severity is Severity.WARNING

    def test_any_hook_override_counts(self):
        assert clean_circuit().findings() == ()


class TestConnectorRules:
    def test_jcd002_dangling_connector(self):
        source = ModuleSkeleton(name="src")
        source.add_port("q", PortDirection.OUT)
        connector = BitConnector(name="stub")
        connector.attach(source.port("q"))
        findings = Circuit(source, name="c").findings()
        assert codes(findings) == ["JCD002"]
        assert "stub" in findings[0].message

    def test_jcd003_conflicting_drivers(self):
        a = ModuleSkeleton(name="a")
        a.add_port("q", PortDirection.OUT)
        b = ModuleSkeleton(name="b")
        b.add_port("q", PortDirection.OUT)
        connect(a.port("q"), b.port("q"))
        findings = Circuit(a, b, name="c").findings()
        assert codes(findings) == ["JCD003"]
        assert "2 output ports" in findings[0].message

    def test_jcd003_no_possible_driver_is_warning(self):
        a = Sink(name="a")
        a.add_port("d", PortDirection.IN)
        b = Sink(name="b")
        b.add_port("d", PortDirection.IN)
        connect(a.port("d"), b.port("d"))
        findings = Circuit(a, b, name="c").findings()
        assert codes(findings) == ["JCD003"]
        assert findings[0].severity is Severity.WARNING


class TestDesignDispatch:
    def test_lint_design_builds_and_lints(self):
        class Clean(Design):
            def design(self):
                return clean_circuit()

        assert lint_design(Clean()) == []

    def test_broken_build_is_a_finding_not_a_crash(self):
        class Broken(Design):
            def design(self):
                return None

        findings = lint_design(Broken())
        assert codes(findings) == ["JCD001"]
        assert "failed to build" in findings[0].message

    def test_run_lint_rejects_unknown_subjects(self):
        with pytest.raises(TypeError, match="Design, Circuit or"):
            run_lint(object())

    def test_run_lint_suppression(self):
        sink = Sink(name="snk")
        sink.add_port("d", PortDirection.IN)
        circuit = Circuit(sink, name="c")
        assert run_lint(circuit, suppress={"JCD001"}) == []


class TestSetupCoverage:
    def test_jcd009_uncovered_parameter(self):
        from repro.estimation import MaxAccuracy

        setup = SetupController(name="s")
        setup.set("power", MaxAccuracy())
        findings = lint_setup(setup, clean_circuit())
        assert codes(findings) == ["JCD009"]
        assert "power" in findings[0].message
        assert findings[0].severity is Severity.WARNING

    def test_covered_parameter_is_clean(self):
        from repro.estimation import MaxAccuracy

        circuit = clean_circuit()
        circuit.module("src").add_estimator(
            SimpleNamespace(parameter="power"))
        setup = SetupController(name="s")
        setup.set("power", MaxAccuracy())
        assert lint_setup(setup, circuit) == []


class TestTelemetry:
    def setup_method(self):
        TELEMETRY.disable()
        TELEMETRY.reset()

    def teardown_method(self):
        TELEMETRY.disable()
        TELEMETRY.reset()

    def test_lint_counters_emitted(self):
        sink = Sink(name="snk")
        sink.add_port("d", PortDirection.IN)
        circuit = Circuit(sink, name="c")
        with telemetry_session():
            run_lint(circuit)
            run_lint(circuit, suppress={"JCD001"})
            assert TELEMETRY.metrics.counter("lint.runs").value == 2
            assert TELEMETRY.metrics.counter(
                "lint.findings").value == 1
            assert TELEMETRY.metrics.counter(
                "lint.findings.error").value == 1
            assert TELEMETRY.metrics.counter(
                "lint.suppressed").value == 1

    def test_no_counters_when_disabled(self):
        sink = Sink(name="snk")
        sink.add_port("d", PortDirection.IN)
        run_lint(Circuit(sink, name="c"))
        assert TELEMETRY.metrics.names() == ()
