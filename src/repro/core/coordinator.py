"""Coordinating many cooperating schedulers.

"JavaCAD doesn't allow communication between schedulers, even though
one simulation controller can launch and actively coordinate many
cooperating schedulers."  The :class:`SimulationCoordinator` is that
launching side: it spins up one controller (hence one scheduler) per
configuration over the *same* circuit, runs them on concurrent threads,
joins them, and gathers the per-run statistics -- all without any
cross-scheduler state, because isolation is structural.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..net.clock import CostModel, VirtualClock
from .controller import SimulationController, SimulationStats
from .design import Circuit
from .errors import SimulationError


@dataclass
class RunConfig:
    """One coordinated run: an optional setup plus bounds and a name."""

    name: str
    setup: Any = None
    max_time: Optional[float] = None
    max_events: Optional[int] = None


class SimulationCoordinator:
    """Launches and joins concurrent simulations of one design."""

    def __init__(self, circuit: Circuit,
                 cost_model: Optional[CostModel] = None):
        self.circuit = circuit
        self.cost = cost_model or CostModel()
        self.controllers: Dict[str, SimulationController] = {}
        self._results: Dict[str, SimulationStats] = {}
        self._errors: Dict[str, BaseException] = {}

    def launch(self, configs: Sequence[RunConfig],
               timeout: Optional[float] = 60.0
               ) -> Dict[str, SimulationStats]:
        """Run every configuration concurrently and return the stats.

        Each run gets its own controller, scheduler and virtual clock.
        Raises :class:`SimulationError` if any run failed or did not
        finish within ``timeout`` seconds of host time.
        """
        if not configs:
            raise SimulationError("nothing to launch")
        names = [config.name for config in configs]
        if len(set(names)) != len(names):
            raise SimulationError("coordinated runs need unique names")

        threads: List[Tuple[str, threading.Thread]] = []
        for config in configs:
            controller = SimulationController(
                self.circuit, setup=config.setup,
                clock=VirtualClock(), cost_model=self.cost,
                name=config.name)
            self.controllers[config.name] = controller
            # Each run inherits the launcher's IdScope (one context
            # copy per thread: a Context cannot be entered twice).
            thread = threading.Thread(
                target=contextvars.copy_context().run,
                args=(self._run_one, config, controller),
                name=f"coord-{config.name}", daemon=True)
            threads.append((config.name, thread))
        for _name, thread in threads:
            thread.start()
        for name, thread in threads:
            thread.join(timeout=timeout)
            if thread.is_alive():
                raise SimulationError(
                    f"coordinated run {name!r} did not finish in time")
        if self._errors:
            name, error = next(iter(self._errors.items()))
            raise SimulationError(
                f"coordinated run {name!r} failed: {error}") from error
        return dict(self._results)

    def _run_one(self, config: RunConfig,
                 controller: SimulationController) -> None:
        try:
            stats = controller.start(max_time=config.max_time,
                                     max_events=config.max_events)
            self._results[config.name] = stats
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            self._errors[config.name] = exc

    def controller(self, name: str) -> SimulationController:
        """The controller behind one coordinated run."""
        try:
            return self.controllers[name]
        except KeyError:
            raise SimulationError(f"no coordinated run named {name!r}") \
                from None

    def teardown(self) -> None:
        """Drop every run's per-scheduler state."""
        for controller in self.controllers.values():
            controller.teardown()
