"""A process pool with deterministic result ordering and telemetry.

:class:`WorkerPool` runs one picklable function -- for a sharded
campaign, the campaign itself -- over payloads -- for a shard, its
fault names -- on a ``concurrent.futures.ProcessPoolExecutor``.  The
function reaches each worker once, through the executor's initializer
(under ``fork`` it is inherited, not pickled).  Tasks are submitted all
at once into the executor's shared work queue, so an idle worker steals
the next pending shard instead of waiting for a static partition
(:func:`~repro.parallel.sharding.run_sharded` cuts one shard per worker
unless ``shards=`` asks for spares to steal).

Results come back in *submission order* regardless of completion order,
which is what makes parallel campaigns merge deterministically.

Telemetry crosses the process boundary explicitly: when the parent's
:data:`~repro.telemetry.runtime.TELEMETRY` is enabled at ``map()``
time, each worker runs its task under a fresh telemetry session and
ships back, with the result, a snapshot of its local metrics registry
and its finished spans as Chrome trace events (worker pid, timestamps
on the parent tracer's epoch).  The parent keeps the events on its
tracer, so the exported trace shows one pid lane per worker, and
aggregates the metrics under ``parallel.*`` instruments (see
``docs/observability.md``):

* ``parallel.workers`` (gauge) -- pool size of the last run;
* ``parallel.tasks`` / ``parallel.failures`` (counters);
* ``parallel.task_wall_seconds`` (histogram) -- per-task wall time;
* ``parallel.pool_wall_seconds`` (counter) -- end-to-end pool time;
* ``parallel.worker.<metric>`` (counters) -- worker-side counters
  summed across workers; worker histograms contribute
  ``parallel.worker.<metric>.count`` / ``.sum``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..core.errors import ParallelExecutionError
from ..telemetry.export import chrome_trace_events
from ..telemetry.runtime import TELEMETRY

_TASK_WALL_BUCKETS = (1e-3, 1e-2, 1e-1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0)


def resolve_workers(workers: Optional[int]) -> int:
    """Resolve a ``--workers`` value: ``None``/``0`` = one per usable CPU."""
    if workers is None or workers == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if workers < 0:
        raise ParallelExecutionError(
            f"worker count must be >= 0, got {workers}")
    return workers


def merge_worker_metrics(snapshot: Mapping[str, Any], prefix: str) -> None:
    """Fold one worker's metrics snapshot into the parent registry.

    Counters sum under ``<prefix>.<metric>``; histograms contribute
    ``<prefix>.<metric>.count`` / ``.sum``.  Gauges are point-in-time
    worker state; summing them across workers would be meaningless, so
    they are dropped.
    """
    metrics = TELEMETRY.metrics
    for key, snap in snapshot.items():
        kind = snap.get("type")
        if kind == "counter":
            metrics.counter(f"{prefix}.{key}").inc(
                max(0.0, snap.get("value", 0.0)))
        elif kind == "histogram":
            metrics.counter(f"{prefix}.{key}.count").inc(
                max(0, snap.get("count", 0)))
            metrics.counter(f"{prefix}.{key}.sum").inc(
                max(0.0, snap.get("sum", 0.0)))


@dataclass
class TaskOutcome:
    """One task's result plus its worker-side accounting."""

    index: int
    value: Any
    wall_seconds: float
    worker_pid: int
    metrics: Dict[str, Any] = field(default_factory=dict)
    """The worker's metrics snapshot (empty when telemetry was off)."""

    trace_events: List[Dict[str, Any]] = field(default_factory=list)
    """The worker's spans as Chrome trace events (same condition)."""


# Set by the executor initializer in worker processes only.
_worker_fn: Callable[[Any], Any]


def _install_worker_fn(fn: Callable[[Any], Any]) -> None:
    """Executor initializer: tell this worker the function, once."""
    global _worker_fn
    _worker_fn = fn


def _execute_task(payload: Any, trace_epoch: Optional[float]):
    """Worker-process entry point: run one task under local telemetry.

    ``trace_epoch`` is the parent tracer's epoch, or None with
    telemetry off.  Given one, the worker resets its (possibly
    fork-inherited) global telemetry first, so what it returns covers
    exactly this task and nothing double-counts in the parent, and
    adopts the epoch: ``time.perf_counter`` reads one system-wide
    clock, so the worker's span timestamps land on the parent's time
    base.
    """
    begin = time.perf_counter()
    collect = trace_epoch is not None
    if collect:
        TELEMETRY.reset()
        TELEMETRY.tracer.epoch = trace_epoch
        TELEMETRY.enable()
    try:
        value = _worker_fn(payload)
    finally:
        if collect:
            TELEMETRY.disable()
    snapshot = TELEMETRY.metrics.snapshot() if collect else {}
    events = chrome_trace_events(TELEMETRY.tracer) if collect else []
    return (value, time.perf_counter() - begin, os.getpid(), snapshot,
            events)


class WorkerPool:
    """Ordered fan-out of one picklable function over worker processes.

    ``workers`` follows the CLI convention (``None``/``0`` = one per
    usable CPU); a resolved pool of one runs tasks inline in the parent,
    which keeps single-core hosts and ``--workers 1`` on the exact
    serial code path with no pickling round trip.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = resolve_workers(workers)

    def map(self, fn: Callable[[Any], Any],
            payloads: Sequence[Any]) -> List[TaskOutcome]:
        """Run ``fn`` over every payload; outcomes in submission order.

        Each worker process is told ``fn`` once; each task ships only
        its payload.

        The first failing task aborts the run with a
        :class:`ParallelExecutionError` chaining the worker's exception.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        collect = TELEMETRY.enabled
        effective = min(self.workers, len(payloads))
        pool_begin = time.perf_counter()
        if effective <= 1:
            outcomes = self._map_inline(fn, payloads)
        else:
            outcomes = self._map_processes(
                fn, payloads, effective,
                TELEMETRY.tracer.epoch if collect else None)
        if collect:
            self._account(outcomes, effective,
                          time.perf_counter() - pool_begin)
        return outcomes

    # ------------------------------------------------------------------

    def _map_inline(self, fn: Callable[[Any], Any],
                    payloads: Sequence[Any]) -> List[TaskOutcome]:
        # Inline tasks instrument the parent's registry directly, so no
        # snapshot is taken (it would double-count everything).
        outcomes: List[TaskOutcome] = []
        for index, payload in enumerate(payloads):
            begin = time.perf_counter()
            value = fn(payload)
            outcomes.append(TaskOutcome(index, value,
                                        time.perf_counter() - begin,
                                        os.getpid()))
        return outcomes

    def _map_processes(self, fn: Callable[[Any], Any],
                       payloads: Sequence[Any], effective: int,
                       trace_epoch: Optional[float]
                       ) -> List[TaskOutcome]:
        outcomes: List[Optional[TaskOutcome]] = [None] * len(payloads)
        executor = ProcessPoolExecutor(max_workers=effective,
                                       initializer=_install_worker_fn,
                                       initargs=(fn,))
        try:
            futures = {
                executor.submit(_execute_task, payload, trace_epoch): index
                for index, payload in enumerate(payloads)}
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    try:
                        value, wall, pid, snapshot, events = \
                            future.result()
                    except Exception as exc:
                        if trace_epoch is not None:
                            TELEMETRY.metrics.counter(
                                "parallel.failures").inc()
                        failure = ParallelExecutionError(
                            f"worker task {index} failed: {exc}",
                            shard_index=index)
                        failure.__cause__ = exc
                        raise failure
                    outcomes[index] = TaskOutcome(index, value, wall, pid,
                                                  snapshot, events)
        except BaseException:
            # First failure aborts the run: cancel what never started
            # and shut down WITHOUT waiting, so a hung sibling worker
            # cannot block the error from reaching the caller.
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        executor.shutdown(wait=True)
        return [outcome for outcome in outcomes if outcome is not None]

    # ------------------------------------------------------------------

    def _account(self, outcomes: Sequence[TaskOutcome], effective: int,
                 pool_wall: float) -> None:
        metrics = TELEMETRY.metrics
        metrics.gauge("parallel.workers").set(effective)
        metrics.counter("parallel.tasks").inc(len(outcomes))
        metrics.counter("parallel.pool_wall_seconds").inc(pool_wall)
        wall_hist = metrics.histogram("parallel.task_wall_seconds",
                                      buckets=_TASK_WALL_BUCKETS)
        for outcome in outcomes:
            wall_hist.observe(outcome.wall_seconds)
            merge_worker_metrics(outcome.metrics, "parallel.worker")
            TELEMETRY.tracer.add_worker_events(outcome.trace_events)
