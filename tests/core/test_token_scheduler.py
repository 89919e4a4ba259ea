"""Tokens and the time-ordered scheduler."""

import pytest

from repro.core import (ControlToken, EstimationToken, Logic,
                        ModuleSkeleton, PortDirection, Scheduler,
                        SchedulerInterferenceError, SelfTriggerToken,
                        SignalToken, SimulationError, Token)


@pytest.fixture
def module():
    return ModuleSkeleton("target")


class TestTokens:
    def test_token_ids_are_unique(self, module):
        a, b = Token(module), Token(module)
        assert a.token_id != b.token_id

    def test_kind_tags(self, module):
        port = module.add_port("p", PortDirection.IN)
        assert SignalToken(module, port, Logic.ONE).kind == "SignalToken"
        assert SelfTriggerToken(module).kind == "SelfTriggerToken"
        assert ControlToken(module, "reset").kind == "ControlToken"
        assert EstimationToken(module, None, None).kind == \
            "EstimationToken"

    def test_self_trigger_payload(self, module):
        token = SelfTriggerToken(module, tag="edge", payload=3)
        assert token.tag == "edge" and token.payload == 3


class TestScheduler:
    def test_time_ordering(self, module):
        scheduler = Scheduler()
        late = Token(module)
        early = Token(module)
        scheduler.schedule(late, delay=5.0)
        scheduler.schedule(early, delay=1.0)
        assert scheduler.pop() is early
        assert scheduler.now == 1.0
        assert scheduler.pop() is late
        assert scheduler.now == 5.0

    def test_fifo_at_equal_time(self, module):
        scheduler = Scheduler()
        tokens = [Token(module) for _ in range(5)]
        for token in tokens:
            scheduler.schedule(token, delay=2.0)
        assert [scheduler.pop() for _ in tokens] == tokens

    def test_negative_delay_rejected(self, module):
        with pytest.raises(SimulationError):
            Scheduler().schedule(Token(module), delay=-1.0)

    @pytest.mark.parametrize("delay", [float("nan"), -0.5,
                                       float("-inf")])
    def test_nan_and_negative_delays_rejected(self, module, delay):
        scheduler = Scheduler()
        with pytest.raises(SimulationError, match="must be >= 0"):
            scheduler.schedule(Token(module), delay=delay)
        assert scheduler.empty

    def test_a_rejected_nan_leaves_time_monotonic(self, module):
        """The sequence that used to pop 0.5, 0.1, 1.0, NaN, 2.0: the
        NaN is refused and the rest still pop in time order."""
        scheduler = Scheduler()
        for delay in (1.0, float("nan"), 0.5, 2.0, 0.1):
            try:
                scheduler.schedule(Token(module), delay=delay)
            except SimulationError:
                assert delay != delay  # only the NaN is refused
        times = []
        while not scheduler.empty:
            scheduler.pop()
            times.append(scheduler.now)
        assert times == [0.1, 0.5, 1.0, 2.0]

    def test_infinite_delay_is_still_a_time(self, module):
        scheduler = Scheduler()
        scheduler.schedule(Token(module), delay=float("inf"))
        scheduler.schedule(Token(module), delay=3.0)
        scheduler.pop()
        assert scheduler.now == 3.0

    def test_pop_empty_rejected(self):
        with pytest.raises(SimulationError):
            Scheduler().pop()

    def test_next_time_and_pending(self, module):
        scheduler = Scheduler()
        assert scheduler.next_time() is None
        assert scheduler.empty
        scheduler.schedule(Token(module), delay=3.0)
        assert scheduler.next_time() == 3.0
        assert scheduler.pending == 1

    def test_clear(self, module):
        scheduler = Scheduler()
        scheduler.schedule(Token(module))
        scheduler.clear()
        assert scheduler.empty

    def test_unique_ids(self):
        assert Scheduler().scheduler_id != Scheduler().scheduler_id

    def test_cross_scheduler_interference_rejected(self, module):
        """A token joined to one scheduler cannot move to another --
        the structural guarantee behind interference-free concurrency."""
        first, second = Scheduler(), Scheduler()
        token = Token(module)
        first.schedule(token)
        with pytest.raises(SchedulerInterferenceError):
            second.schedule(token)

    def test_rescheduling_on_same_scheduler_is_fine(self, module):
        scheduler = Scheduler()
        token = Token(module)
        scheduler.schedule(token)
        scheduler.pop()
        scheduler.schedule(token, delay=1.0)  # modules may re-use tokens
        assert scheduler.pending == 1

    def test_events_delivered_counter(self, module):
        scheduler = Scheduler()
        for _ in range(3):
            scheduler.schedule(Token(module))
        while not scheduler.empty:
            scheduler.pop()
        assert scheduler.events_delivered == 3

    def test_now_advances_monotonically(self, module):
        scheduler = Scheduler()
        for delay in (4.0, 1.0, 2.5, 2.5, 9.0):
            scheduler.schedule(Token(module), delay=delay)
        times = []
        while not scheduler.empty:
            scheduler.pop()
            times.append(scheduler.now)
        assert times == sorted(times)
