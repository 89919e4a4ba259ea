"""WorkerPool ordering, failure propagation and telemetry round-trip."""

import os

import pytest

from repro.compiled import fault_simulator_for
from repro.core import Logic
from repro.core.errors import ParallelExecutionError
from repro.faults import build_fault_list
from repro.gates.io import c17
from repro.parallel import (TaskOutcome, WorkerPool, diff_reports,
                            parallel_fault_simulate, resolve_workers)
from repro.telemetry import TELEMETRY


@pytest.fixture
def one_usable_cpu(monkeypatch):
    """This process may run on CPU 0 only, as under ``taskset -c 0``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)


def _square(value):
    return value * value


def _fail_on_three(value):
    if value == 3:
        raise ValueError("task three exploded")
    return value


def _count_in_worker(value):
    TELEMETRY.metrics.counter("worker.side.effects").inc(value)
    return value


class TestResolveWorkers:
    def test_zero_and_none_mean_auto(self):
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) >= 1

    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ParallelExecutionError):
            resolve_workers(-1)

    def test_auto_counts_usable_cpus(self, one_usable_cpu):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(3) == 3

    def test_one_usable_cpu_runs_the_serial_path(self, one_usable_cpu,
                                                 monkeypatch):
        def no_fan_out(self, fn, payloads):
            raise AssertionError("a one-CPU auto pool fanned out")

        monkeypatch.setattr(WorkerPool, "map", no_fan_out)
        netlist = c17()
        fault_list = build_fault_list(netlist)
        patterns = [{net: Logic(index >> bit & 1)
                     for bit, net in enumerate(netlist.inputs)}
                    for index in range(8)]
        serial = fault_simulator_for(None, netlist, fault_list).run(
            patterns)
        assert diff_reports(serial, parallel_fault_simulate(
            netlist, patterns, fault_list, workers=0)) == []


class TestWorkerPoolMap:
    def test_results_in_submission_order(self):
        outcomes = WorkerPool(2).map(_square, [5, 4, 3, 2, 1])
        assert [outcome.value for outcome in outcomes] == [25, 16, 9, 4, 1]
        assert [outcome.index for outcome in outcomes] == [0, 1, 2, 3, 4]

    def test_empty_payloads(self):
        assert WorkerPool(2).map(_square, []) == []

    def test_single_payload_runs_inline(self):
        import os

        outcomes = WorkerPool(4).map(_square, [7])
        assert outcomes[0].value == 49
        assert outcomes[0].worker_pid == os.getpid()

    def test_workers_one_runs_inline(self):
        import os

        outcomes = WorkerPool(1).map(_square, [2, 3])
        assert [outcome.value for outcome in outcomes] == [4, 9]
        assert all(outcome.worker_pid == os.getpid()
                   for outcome in outcomes)

    def test_failure_raises_with_cause(self):
        with pytest.raises(ParallelExecutionError) as info:
            WorkerPool(2).map(_fail_on_three, [1, 2, 3, 4])
        assert "task" in str(info.value)

    def test_outcomes_are_task_outcomes(self):
        outcomes = WorkerPool(2).map(_square, [1, 2])
        assert all(isinstance(outcome, TaskOutcome)
                   for outcome in outcomes)
        assert all(outcome.wall_seconds >= 0.0 for outcome in outcomes)


class TestTelemetryAggregation:
    def test_worker_metrics_fold_into_parent(self):
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            WorkerPool(2).map(_count_in_worker, [1, 2, 3, 4])
            snapshot = TELEMETRY.metrics.snapshot()
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert snapshot["parallel.tasks"]["value"] == 4
        assert snapshot["parallel.workers"]["value"] == 2
        assert snapshot["parallel.task_wall_seconds"]["count"] == 4
        assert snapshot["parallel.pool_wall_seconds"]["value"] > 0.0
        # Worker-side counters come back summed across all workers.
        assert snapshot["parallel.worker.worker.side.effects"]["value"] \
            == 1 + 2 + 3 + 4

    def test_no_telemetry_no_parallel_metrics(self):
        TELEMETRY.reset()
        WorkerPool(2).map(_square, [1, 2, 3])
        assert "parallel.tasks" not in TELEMETRY.metrics.snapshot()


def _fail_fast_or_hang(value):
    import time as _time

    if value == 0:
        raise ValueError("fails immediately")
    _time.sleep(5.0)
    return value


class TestFirstFailureShutdown:
    def test_failure_carries_shard_index(self):
        with pytest.raises(ParallelExecutionError) as excinfo:
            WorkerPool(2).map(_fail_on_three, [1, 2, 3, 4])
        assert excinfo.value.shard_index == 2

    def test_failure_does_not_wait_for_hung_siblings(self):
        import time as _time

        begin = _time.perf_counter()
        with pytest.raises(ParallelExecutionError) as excinfo:
            WorkerPool(2).map(_fail_fast_or_hang, list(range(8)))
        elapsed = _time.perf_counter() - begin
        assert excinfo.value.shard_index == 0
        # The sibling worker sleeps for 5s; the failure must surface
        # without waiting for it (pre-fix: executor shutdown blocked).
        assert elapsed < 4.0
