"""Simulation controllers: drive schedulers over circuits.

A :class:`SimulationController` owns one scheduler and runs the
event-delivery loop over a circuit.  Several controllers can be
instantiated over the same circuit -- each with its own scheduler -- and
run in concurrent threads without interference, because every mutable
value (connector values, module state) is stored per scheduler.

The controller also implements the paper's end-of-instant estimation
sweep: when a simulation time instant completes, every module with bound
estimators receives an :class:`~repro.core.token.EstimationToken`
carrying the active setup.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass
from heapq import heappop
from typing import Any, Dict, List, Optional

from ..net.clock import CostModel, VirtualClock
from ..telemetry.runtime import TELEMETRY
from .design import Circuit
from .errors import SimulationError
from .module import HandlerOverride, ModuleSkeleton, deliver
from .port import Port
from .scheduler import Scheduler
from .signal import SignalValue
from .token import EstimationToken, SignalToken, Token


class SimulationContext:
    """Everything a module may touch while handling a token.

    The context binds the *current* scheduler, the controller's handler
    overrides, virtual clock and cost model; modules must route all
    scheduling and cost charging through it, which is what enforces
    scheduler isolation.  It holds no reference to its controller, so a
    controller and its scheduler are freed by reference counting as
    soon as their run's caller drops them.
    """

    __slots__ = ("scheduler", "scheduler_id", "fallback_id", "overrides",
                 "clock", "cost")

    def __init__(self, scheduler: Scheduler,
                 overrides: Dict[int, HandlerOverride],
                 clock: VirtualClock, cost: CostModel):
        self.scheduler = scheduler
        #: Identity of the active scheduler (keys all state LUTs).
        self.scheduler_id: int = scheduler.scheduler_id
        #: The scheduler's copy-on-write fallback, passed with
        #: ``scheduler_id`` to every ``Connector.get_value`` (None on a
        #: plain run).
        self.fallback_id: Optional[int] = scheduler.fallback_id
        #: The controller's handler overrides by module id (the live
        #: dict: usually empty, so ``receive`` tests it before a lookup).
        self.overrides = overrides
        self.clock = clock
        self.cost = cost

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.scheduler.now

    def schedule(self, token: Token, delay: float = 0.0) -> None:
        """Schedule a token on the active scheduler."""
        self.scheduler.schedule(token, delay)

    def charge(self, seconds: float) -> None:
        """Charge virtual client CPU time."""
        self.clock.charge_cpu(seconds)


@dataclass
class SimulationStats:
    """Summary of one controller run."""

    events: int = 0
    end_time: float = 0.0
    instants: int = 0
    cpu: float = 0.0
    wall: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.events} events over {self.instants} instants, "
                f"t={self.end_time}, cpu={self.cpu:.3f}s, "
                f"wall={self.wall:.3f}s")


class SimulationController:
    """Owns a scheduler and runs the event loop over a circuit.

    Parameters
    ----------
    circuit:
        The flattened design to simulate.
    setup:
        Optional setup controller (see :mod:`repro.estimation.setup`);
        when present, every completed time instant triggers an estimation
        sweep and results accumulate in ``setup.results``.
    clock, cost_model:
        Virtual time accounting.  Several controllers may share one clock
        (e.g. a client controller and the accounting of its remote calls).
    fallback:
        A controller whose stored values this one reads wherever it has
        stored none of its own (copy on write, see
        :class:`~repro.core.scheduler.Scheduler`); :meth:`teardown` then
        clears only what this run stored.  The fallback's values must
        not change while this controller is alive.
    """

    def __init__(self, circuit: Circuit, setup: Any = None,
                 clock: Optional[VirtualClock] = None,
                 cost_model: Optional[CostModel] = None,
                 name: Optional[str] = None,
                 fallback: "Optional[SimulationController]" = None):
        self.circuit = circuit
        self.setup = setup
        self.clock = clock or VirtualClock()
        self.cost = cost_model or CostModel()
        self.scheduler = Scheduler(
            name=f"{name or 'sim'}-queue",
            fallback_id=(None if fallback is None
                         else fallback.scheduler.scheduler_id))
        self.name = name or f"controller-{self.scheduler.scheduler_id}"
        self._overrides: Dict[int, HandlerOverride] = {}
        self._observers: List[Any] = []
        self._initialized = False
        self._context = SimulationContext(self.scheduler, self._overrides,
                                          self.clock, self.cost)

    # ------------------------------------------------------------------
    # Observers (waveform recorders, profilers, ...)
    # ------------------------------------------------------------------

    def add_observer(self, observer: Any) -> None:
        """Attach an observer called as ``observer(token, ctx)`` for
        every token delivered by this controller (before the target
        module handles it)."""
        self._observers.append(observer)

    def remove_observer(self, observer: Any) -> None:
        """Detach a previously attached observer."""
        self._observers.remove(observer)

    # ------------------------------------------------------------------
    # Context and overrides
    # ------------------------------------------------------------------

    @property
    def context(self) -> SimulationContext:
        """The controller's simulation context."""
        return self._context

    def override_handler(self, module: ModuleSkeleton,
                         handler: HandlerOverride) -> None:
        """Replace a module's event handling for this controller only.

        Used by virtual fault simulation: the injection controller
        replaces the faulty module's handler with one that assigns the
        faulty output configuration regardless of input values.
        """
        self._overrides[module.module_id] = handler

    def clear_override(self, module: ModuleSkeleton) -> None:
        """Restore a module's normal event handling."""
        self._overrides.pop(module.module_id, None)

    # ------------------------------------------------------------------
    # Priming and injection (used by fault simulation and tests)
    # ------------------------------------------------------------------

    def prime(self, connector: Any, value: SignalValue) -> None:
        """Preset a connector's value for this controller's scheduler."""
        connector.set_value(self.scheduler.scheduler_id, value)
        touched = self.scheduler.touched
        if touched is not None:
            touched.append(connector._values)

    def inject(self, port: Port, value: SignalValue,
               delay: float = 0.0) -> None:
        """Schedule a signal token as if ``port`` had emitted ``value``."""
        deliver(port.route, value, self.scheduler, delay)

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    def initialize(self) -> None:
        """Run every module's ``initialize`` hook exactly once.

        A module whose class keeps the base class's no-op hook is
        skipped (:attr:`~repro.core.design.Circuit.initializers`): an
        injection run builds a controller per table row.
        """
        if self._initialized:
            return
        self._initialized = True
        touched = self.scheduler.touched
        for module in self.circuit.initializers:
            if touched is not None:
                touched.append(module._state)
            module.initialize(self._context)

    def start(self, max_time: Optional[float] = None,
              max_events: Optional[int] = None) -> SimulationStats:
        """Run to completion (or to the given bounds) and return stats.

        Completion means the scheduler queue is empty; any outstanding
        non-blocking remote operations are then synchronized so the wall
        clock reflects the true end of the run.
        """
        self.initialize()
        stats = SimulationStats()
        cpu0, wall0 = self.clock.cpu, self.clock.wall
        current_instant: Optional[float] = None
        run_span = None
        if TELEMETRY.enabled:
            run_span = TELEMETRY.tracer.span(
                "scheduler.run", category="scheduler", clock=self.clock,
                args={"scheduler": self.scheduler.name,
                      "controller": self.name}).start()
        # Loop invariants: none of these is rebound while a run lasts
        # (the queue is the scheduler's own heap, emptied in place).
        # Untraced, the loop pops that heap itself and sets ``now`` and
        # ``events_delivered`` exactly as Scheduler.pop would.  A
        # copy-on-write scheduler records the tables each event may
        # store in: its connector's values and its target's state.
        scheduler = self.scheduler
        scheduler_id = scheduler.scheduler_id
        touched = scheduler.touched
        queue = scheduler._queue
        pop = scheduler.pop
        context = self._context
        observers = self._observers
        charge_cpu = self.clock.charge_cpu
        cost = self.cost
        event_dispatch = cost.event_dispatch
        try:
            while queue:
                next_time = queue[0][0]
                if max_time is not None and next_time > max_time:
                    break
                if current_instant is not None \
                        and next_time > current_instant:
                    self._end_of_instant(current_instant)
                    stats.instants += 1
                traced = TELEMETRY.enabled
                if traced:
                    token = pop()
                else:
                    token = heappop(queue)[2]
                    scheduler.now = next_time
                    scheduler.events_delivered += 1
                current_instant = next_time
                target = token.target
                charge_cpu(event_dispatch + target.event_cost(cost, token))
                if isinstance(token, SignalToken):
                    connector = token.port.connector
                    if connector is not None:
                        connector.set_value(scheduler_id, token.value)
                if touched is not None:
                    touched.append(target._state)
                    if isinstance(token, SignalToken) \
                            and connector is not None:
                        touched.append(connector._values)
                if observers:
                    for observer in observers:
                        observer(token, context)
                if traced:
                    with TELEMETRY.tracer.span(
                            "scheduler.deliver", category="scheduler",
                            clock=self.clock,
                            args={"scheduler": scheduler.name,
                                  "token": type(token).__name__,
                                  "target": target.name,
                                  "sim_time": token.time}):
                        target.receive(token, context)
                else:
                    target.receive(token, context)
                stats.events += 1
                if max_events is not None and stats.events >= max_events:
                    break

            if current_instant is not None:
                self._end_of_instant(current_instant)
                stats.instants += 1
                stats.end_time = current_instant
            self.clock.sync()
        finally:
            if run_span is not None:
                run_span.set("events", stats.events)
                run_span.finish()
        stats.cpu = self.clock.cpu - cpu0
        stats.wall = self.clock.wall - wall0
        return stats

    def start_async(self, max_time: Optional[float] = None,
                    max_events: Optional[int] = None) -> threading.Thread:
        """Run :meth:`start` in a daemon thread (concurrent simulation).

        The thread runs in a copy of the caller's context, so ids it
        draws come from the caller's :class:`~repro.core.ids.IdScope`.
        """
        thread = threading.Thread(
            target=contextvars.copy_context().run, args=(self.start,),
            kwargs={"max_time": max_time, "max_events": max_events},
            name=self.name, daemon=True)
        thread.start()
        return thread

    def _end_of_instant(self, instant: float) -> None:
        """Send estimation tokens for a completed time instant."""
        if self.setup is None:
            return
        results = getattr(self.setup, "results", None)
        if results is None:
            raise SimulationError(
                f"setup {self.setup!r} has no results sink")
        touched = self.scheduler.touched
        for module in self.circuit.modules:
            if touched is not None:
                touched.append(module._state)
            token = EstimationToken(module, self.setup, results)
            token.time = instant
            token.scheduler_id = self.scheduler.scheduler_id
            module.receive(token, self._context)

    # ------------------------------------------------------------------

    def teardown(self) -> None:
        """Drop all per-scheduler state created by this controller.

        A copy-on-write controller pops its entry from exactly the
        tables its run touched; any other clears the whole circuit.
        """
        scheduler = self.scheduler
        touched = scheduler.touched
        if touched is None:
            self.circuit.clear_scheduler_state(scheduler.scheduler_id)
            return
        scheduler_id = scheduler.scheduler_id
        for table in touched:
            table.pop(scheduler_id, None)
        touched.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulationController({self.name!r}, {self.circuit!r})"
