"""Virtual clock: CPU/wall accounting, async completions, threads."""

import threading

import pytest

from repro.net import CostModel, VirtualClock


class TestCharging:
    def test_cpu_advances_both(self):
        clock = VirtualClock()
        clock.charge_cpu(2.0)
        assert clock.cpu == 2.0 and clock.wall == 2.0

    def test_wait_advances_wall_only(self):
        clock = VirtualClock()
        clock.wait(3.0)
        assert clock.cpu == 0.0 and clock.wall == 3.0

    def test_server_cpu_separate(self):
        clock = VirtualClock()
        clock.charge_server_cpu(5.0)
        assert clock.server_cpu == 5.0
        assert clock.wall == 0.0  # remote host: no client wall impact

    def test_shared_host_contention(self):
        """Server work on the client's machine steals wall time -- the
        paper's local-host anomaly."""
        clock = VirtualClock()
        clock.charge_server_cpu(5.0, shared_host=True)
        assert clock.wall == 5.0 and clock.cpu == 0.0

    @pytest.mark.parametrize("method", ["charge_cpu", "wait",
                                        "charge_server_cpu"])
    def test_negative_rejected(self, method):
        with pytest.raises(ValueError):
            getattr(VirtualClock(), method)(-1.0)

    @pytest.mark.parametrize("method", ["charge_cpu", "wait",
                                        "charge_server_cpu",
                                        "begin_async"])
    def test_nan_rejected_and_clock_unpoisoned(self, method):
        """A NaN would make every later reading NaN; it is refused like
        a negative amount and leaves the counters as they were."""
        clock = VirtualClock()
        clock.charge_cpu(1.0)
        clock.charge_server_cpu(2.0)
        with pytest.raises(ValueError):
            getattr(clock, method)(float("nan"))
        assert clock.snapshot() == {"cpu": 1.0, "wall": 1.0,
                                    "server_cpu": 2.0, "pending_async": 0}
        clock.sync()
        assert clock.wall == 1.0


class TestAsync:
    def test_overlapped_completion_is_hidden(self):
        clock = VirtualClock()
        clock.begin_async(1.0)
        clock.charge_cpu(5.0)  # client overtakes the transfer
        clock.sync()
        assert clock.wall == 5.0

    def test_uncovered_completion_extends_wall(self):
        clock = VirtualClock()
        clock.begin_async(10.0)
        clock.charge_cpu(2.0)
        clock.sync()
        assert clock.wall == 10.0

    def test_latest_completion_wins(self):
        clock = VirtualClock()
        clock.begin_async(4.0)
        clock.begin_async(9.0)
        clock.sync()
        assert clock.wall == 9.0
        assert clock.pending_async == 0

    def test_sync_idempotent(self):
        clock = VirtualClock()
        clock.begin_async(1.0)
        clock.sync()
        wall = clock.wall
        clock.sync()
        assert clock.wall == wall

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().begin_async(-1.0)

    def test_snapshot(self):
        clock = VirtualClock()
        clock.charge_cpu(1.0)
        clock.begin_async(2.0)
        snapshot = clock.snapshot()
        assert snapshot["cpu"] == 1.0
        assert snapshot["pending_async"] == 1


class TestThreadSafety:
    def test_concurrent_charges_sum_exactly(self):
        clock = VirtualClock()

        def worker():
            for _ in range(1000):
                clock.charge_cpu(0.001)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert clock.cpu == pytest.approx(8.0)
        assert clock.wall == pytest.approx(8.0)


class TestCostModel:
    def test_defaults_are_positive(self):
        cost = CostModel()
        for name in ("event_dispatch", "gate_eval", "word_op",
                     "estimator_invoke", "marshal_call",
                     "marshal_per_byte", "server_dispatch",
                     "wire_overhead_factor"):
            assert getattr(cost, name) > 0

    def test_marshal_call_dominates_per_byte(self):
        """The fixed set-up must dominate small payloads for pattern
        buffering (Figure 3) to pay off."""
        cost = CostModel()
        assert cost.marshal_call > 100 * cost.marshal_per_byte
