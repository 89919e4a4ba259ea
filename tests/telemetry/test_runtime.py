"""The global telemetry switchboard and the instrumented hot paths."""

import json
import os

import pytest

from repro.bench.scenarios import run_scenario
from repro.cli import main
from repro.net.model import LOCALHOST
from repro.telemetry import TELEMETRY, telemetry_session


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Keep the process-wide singleton pristine across tests."""
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


class TestSwitchboard:
    def test_disabled_by_default(self):
        assert TELEMETRY.enabled is False

    def test_session_enables_then_restores(self):
        with telemetry_session():
            assert TELEMETRY.enabled
        assert not TELEMETRY.enabled

    def test_session_restores_enabled_state_when_nested(self):
        TELEMETRY.enable()
        with telemetry_session(reset=False):
            pass
        assert TELEMETRY.enabled

    def test_session_exports_on_exit(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        with telemetry_session(trace_out=str(trace_path),
                               metrics_out=str(metrics_path)):
            TELEMETRY.metrics.counter("touched").inc()
            with TELEMETRY.tracer.span("spanned"):
                pass
        assert json.loads(trace_path.read_text())["traceEvents"]
        loaded = json.loads(metrics_path.read_text())
        assert loaded["metrics"]["touched"]["value"] == 1


class TestInstrumentedPaths:
    def test_disabled_run_collects_nothing(self):
        run_scenario("ER", LOCALHOST, width=4, patterns=5, buffer_size=2)
        assert TELEMETRY.tracer.spans == ()
        assert TELEMETRY.metrics.names() == ()

    def test_scenario_produces_all_three_span_categories(self):
        with telemetry_session():
            run_scenario("ER", LOCALHOST, width=4, patterns=5,
                         buffer_size=2)
        categories = {span.category for span in TELEMETRY.tracer.spans}
        assert {"scheduler", "rmi", "estimator"} <= categories

    def test_spans_carry_virtual_timestamps(self):
        with telemetry_session():
            run_scenario("ER", LOCALHOST, width=4, patterns=5,
                         buffer_size=2)
        rmi_spans = TELEMETRY.tracer.spans_by_category("rmi")
        assert rmi_spans
        for span in rmi_spans:
            assert span.virtual_start is not None
            assert span.virtual_end is not None
            assert span.virtual_end >= span.virtual_start

    def test_scheduler_metrics_match_run_stats(self):
        with telemetry_session():
            result = run_scenario("ER", LOCALHOST, width=4, patterns=5,
                                  buffer_size=2)
        delivered = TELEMETRY.metrics.counter("scheduler.delivered")
        assert delivered.value == result.events

    def test_rmi_metrics_match_transport_stats(self):
        with telemetry_session():
            result = run_scenario("ER", LOCALHOST, width=4, patterns=5,
                                  buffer_size=2)
        calls = TELEMETRY.metrics.counter(
            "rmi.calls", labels={"transport": "in-process"})
        assert calls.value == result.remote_calls
        assert TELEMETRY.metrics.counter(
            "rmi.dispatch.calls",
            labels={"server": "provider.host.name"}).value >= calls.value

    def test_estimator_spans_compare_measured_and_declared_cpu(self):
        with telemetry_session():
            run_scenario("ER", LOCALHOST, width=4, patterns=5,
                         buffer_size=2)
        estimator_spans = TELEMETRY.tracer.spans_by_category("estimator")
        assert estimator_spans
        for span in estimator_spans:
            assert "declared_cpu_s" in span.args
            assert "measured_cpu_s" in span.args


class TestCliTelemetry:
    @staticmethod
    def _table2(tmp_path, capsys, *extra):
        """Run a small traced table2; returns (X events, metrics)."""
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(["table2", "--width", "4", "--patterns", "5",
                     "--trace-out", str(trace_path),
                     "--metrics-out", str(metrics_path), *extra])
        assert code == 0
        output = capsys.readouterr().out
        assert "trace written to" in output

        trace = json.loads(trace_path.read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        categories = {e["cat"] for e in spans}
        assert {"scheduler", "rmi", "estimator"} <= categories
        timestamps = [e["ts"] for e in spans]
        assert timestamps == sorted(timestamps)
        metrics = json.loads(metrics_path.read_text())["metrics"]
        return spans, metrics

    def test_trace_and_metrics_options_write_files(self, tmp_path,
                                                   capsys):
        # Default --workers is one per core, so the scheduler metrics
        # are the parent's own or the workers', depending on the host.
        _spans, metrics = self._table2(tmp_path, capsys)
        assert any(key.startswith(("scheduler.",
                                   "parallel.worker.scheduler."))
                   for key in metrics)

    def test_single_worker_traces_in_process(self, tmp_path, capsys):
        spans, metrics = self._table2(tmp_path, capsys, "--workers", "1")
        assert {e["pid"] for e in spans} == {os.getpid()}
        assert any(key.startswith("scheduler.") for key in metrics)

    def test_forked_workers_ship_their_spans_back(self, tmp_path,
                                                  capsys):
        # Pinned to two workers whatever the host's core count: worker
        # spans used to be dropped, leaving the trace file empty.
        spans, metrics = self._table2(tmp_path, capsys, "--workers", "2")
        worker_pids = {e["pid"] for e in spans} - {os.getpid()}
        assert 1 <= len(worker_pids) <= 2  # one pid lane per worker
        assert min(e["ts"] for e in spans) >= 0
        assert any(key.startswith("parallel.worker.scheduler.")
                   for key in metrics)

    def test_cli_without_options_leaves_telemetry_disabled(self, capsys):
        code = main(["figure4"])
        assert code == 0
        capsys.readouterr()
        assert not TELEMETRY.enabled
        assert TELEMETRY.tracer.spans == ()
