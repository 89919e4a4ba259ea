"""Scenario fan-out: independent estimation setups in worker processes.

Table 2's rows (and any other bench scenario) are independent runs:
each builds its own circuit, controller, virtual clock and provider
connection.  Fanning them out across a
:class:`~repro.parallel.pool.WorkerPool` therefore needs no merging
logic at all -- every worker owns an isolated simulation stack, which
is the paper's multiple-concurrent-schedulers-without-interference
claim demonstrated at process granularity.

Scenarios are described by picklable :class:`ScenarioSpec` values
(network environments travel as preset names, never as live objects);
results come back as ordinary
:class:`~repro.bench.scenarios.ScenarioResult` rows in submission
order, so ``run_table2_parallel`` reproduces ``run_table2``'s row order.

Each worker first replaces the process-default id scope it
inherited from the parent (fork), so every row equals a fresh-process
run of that scenario and repeated parallel runs are byte-identical.  A
sequential in-process ``run_table2`` instead lets call/session ids grow
across rows, which nudges marshalled byte counts (and hence the
modelled transfer times) by a few parts per million -- invisible at the
paper's whole-second resolution, but the reason the parallel rows are
compared to serial ones with a tolerance in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..bench.scenarios import (DEFAULT_BUFFER, DEFAULT_PATTERNS,
                               DEFAULT_WIDTH, TABLE2_ROWS, ScenarioResult,
                               clear_shared_providers, run_scenario)
from ..core.errors import ParallelExecutionError
from ..core.ids import reset_default_scope
from ..net.model import PRESETS
from .pool import WorkerPool


@dataclass(frozen=True)
class ScenarioSpec:
    """A picklable description of one bench scenario run."""

    mode: str
    network: str = "localhost"
    """A :data:`repro.net.model.PRESETS` key (localhost / lan / wan)."""

    width: int = DEFAULT_WIDTH
    patterns: int = DEFAULT_PATTERNS
    buffer_size: int = DEFAULT_BUFFER
    power_enabled: bool = True
    nonblocking: bool = False
    collect_powers: bool = False
    engine: Optional[str] = None


def reset_session_state() -> None:
    """Reset fork-inherited process-wide ids and caches.

    Call/session ids leak into marshalled frame sizes (longer ids,
    more bytes, more modelled transfer time), and the cached shared
    providers carry accumulated billing and every past session's power
    model and results -- which a restarted ``session1`` would append
    to.  Installing a fresh process-default
    :class:`~repro.core.ids.IdScope` and dropping both provider memos
    makes a worker's scenario identical to one run in a fresh process,
    no matter what the parent ran before forking.  Scopes a server has
    entered for its tenants are untouched.  The fault-list build memo
    goes too: it cannot change a byte, but a set-up timed after this
    call should pay its build like a fresh process does.
    """
    from ..compiled import clear_build_cache

    reset_default_scope()
    clear_shared_providers()
    clear_build_cache()


def _run_scenario_task(spec: ScenarioSpec) -> ScenarioResult:
    """Build and run one scenario in the current process state."""
    try:
        network = PRESETS[spec.network]
    except KeyError:
        raise ParallelExecutionError(
            f"unknown network preset {spec.network!r}; "
            f"expected one of {sorted(PRESETS)}") from None
    return run_scenario(spec.mode, network, width=spec.width,
                        patterns=spec.patterns,
                        buffer_size=spec.buffer_size,
                        power_enabled=spec.power_enabled,
                        collect_powers=spec.collect_powers,
                        nonblocking=spec.nonblocking,
                        engine=spec.engine)


def _run_scenario_task_isolated(spec: ScenarioSpec) -> ScenarioResult:
    """Worker task: reset fork-inherited state, then run the scenario.

    Only safe in a worker process -- resetting the scheduler/module id
    counters under live controllers in the parent would let new
    schedulers collide with existing per-scheduler state.
    """
    reset_session_state()
    return _run_scenario_task(spec)


def run_scenarios_parallel(specs: Sequence[ScenarioSpec],
                           workers: Optional[int] = None,
                           pool: Optional[WorkerPool] = None
                           ) -> List[ScenarioResult]:
    """Run independent scenarios concurrently; results in spec order."""
    specs = list(specs)
    pool = pool or WorkerPool(workers)
    # The pool also inlines single-payload maps into this process, so
    # route those through the non-resetting task (see
    # _run_scenario_task_isolated).
    if pool.workers <= 1 or len(specs) <= 1:
        return [_run_scenario_task(spec) for spec in specs]
    return [outcome.value
            for outcome in pool.map(_run_scenario_task_isolated, specs)]


def table2_specs(width: int = DEFAULT_WIDTH,
                 patterns: int = DEFAULT_PATTERNS,
                 buffer_size: int = DEFAULT_BUFFER,
                 engine: Optional[str] = None) -> List[ScenarioSpec]:
    """The seven Table 2 rows as specs, in the paper's order."""
    return [ScenarioSpec(mode, network.name, width, patterns, buffer_size,
                         engine=engine)
            for mode, network in TABLE2_ROWS]


def run_table2_parallel(width: int = DEFAULT_WIDTH,
                        patterns: int = DEFAULT_PATTERNS,
                        buffer_size: int = DEFAULT_BUFFER,
                        workers: Optional[int] = None,
                        engine: Optional[str] = None
                        ) -> List[ScenarioResult]:
    """All Table 2 rows, fanned out across workers, in paper order."""
    return run_scenarios_parallel(
        table2_specs(width, patterns, buffer_size, engine=engine),
        workers=workers)
