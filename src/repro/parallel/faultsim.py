"""Sharded multi-process serial fault simulation and ATPG.

The entry points here partition an embarrassingly parallel campaign --
one independent faulty simulation per (fault, pattern) pair -- across a
:class:`~repro.parallel.pool.WorkerPool` and merge the per-shard
results back deterministically:

* :func:`parallel_fault_simulate` shards a
  :class:`~repro.faults.faultlist.FaultList` and runs a serial-
  semantics simulator per shard -- the pattern-packed
  :class:`~repro.compiled.CompiledFaultSimulator` or, with
  ``engine="event"``, the interpreted
  :class:`~repro.faults.serial.SerialFaultSimulator`; the merged
  :class:`~repro.faults.serial.FaultSimReport` is identical to the
  serial run's (same detected map, same per-pattern history) either
  way.
* :func:`parallel_generate_test_set` shards ATPG the same way; the
  merged :class:`~repro.faults.atpg.TestSet` covers the same faults but
  may carry more patterns than a serial run (each shard generates its
  own), so it is a *valid* test set rather than a byte-identical one.

Workers receive the netlist and their shard's restricted fault list by
value (both pickle cleanly -- cell logic functions are module-level),
plus the full pattern sequence; no state is shared between workers, so
this is the paper's multiple-concurrent-schedulers claim realized at
process granularity.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Sequence

from ..compiled import fault_simulator_for, resolve_engine
from ..core.signal import Logic
from ..faults.atpg import TestSet, generate_test_set
from ..faults.faultlist import FaultList, build_fault_list
from ..faults.serial import FaultSimReport
from ..gates.netlist import Netlist
from ..telemetry.runtime import TELEMETRY
from .merge import merge_reports, merge_test_sets
from .pool import WorkerPool, resolve_workers
from .sharding import default_shard_count, shard_names


def _run_sharded(names: Sequence[str],
                 task: Callable[[Any], Any],
                 payload_of: Callable[[Sequence[str]], Any],
                 merge: Callable[[Sequence[Any]], Any],
                 workers: Optional[int], shards: Optional[int],
                 pool: Optional[WorkerPool],
                 weight_of: Optional[Callable[[str], float]] = None,
                 serial: Optional[Callable[[], Any]] = None) -> Any:
    """Shard ``names``, run ``task(payload_of(shard))`` per shard, merge.

    ``workers`` follows the CLI convention (``None``/``0`` = one per
    CPU core).  A resolved count of one (or a single name) takes the
    serial code path instead: ``serial()``, by default the one
    whole-list payload run inline.  ``shards`` defaults to several
    chunks per worker so the pool's queue keeps every worker busy until
    the end; ``weight_of`` switches round-robin sharding to
    cost-weighted balancing.
    """
    worker_count = pool.workers if pool is not None \
        else resolve_workers(workers)
    if worker_count <= 1 or len(names) <= 1:
        return serial() if serial else task(payload_of(names))
    count = shards or default_shard_count(worker_count, len(names))
    parts = shard_names(names, count, weight_of=weight_of)
    if TELEMETRY.enabled:
        TELEMETRY.metrics.counter("parallel.shards").inc(len(parts))
    pool = pool or WorkerPool(worker_count)
    outcomes = pool.map(task, [payload_of(part.names) for part in parts])
    return merge([outcome.value for outcome in outcomes])


def _simulate_fault_shard(payload) -> FaultSimReport:
    """Worker task: fault-simulate one shard with the chosen engine."""
    netlist, fault_list, patterns, drop_detected, engine = payload
    simulator = fault_simulator_for(engine, netlist, fault_list)
    return simulator.run(patterns, drop_detected=drop_detected)


def parallel_fault_simulate(netlist: Netlist,
                            patterns: Sequence[Mapping[str, Logic]],
                            fault_list: Optional[FaultList] = None,
                            workers: Optional[int] = None,
                            shards: Optional[int] = None,
                            weight_of: Optional[Callable[[str], float]]
                            = None,
                            drop_detected: bool = True,
                            pool: Optional[WorkerPool] = None,
                            engine: Optional[str] = None) -> FaultSimReport:
    """Fault-simulate ``patterns`` with the fault list sharded over workers.

    See :func:`_run_sharded` for ``workers`` / ``shards`` /
    ``weight_of``.  ``engine`` selects the per-shard simulator
    (``None`` = the compiled PPSFP kernel, ``"event"`` = the
    interpreted oracle); both merge to identical reports.
    """
    engine = resolve_engine(engine)
    fault_list = fault_list or build_fault_list(netlist)
    patterns = list(patterns)
    return _run_sharded(
        fault_list.names(), _simulate_fault_shard,
        lambda names: (netlist, fault_list.subset(names), patterns,
                       drop_detected, engine),
        merge_reports, workers, shards, pool, weight_of)


def _generate_shard_tests(payload) -> TestSet:
    """Worker task: random-then-deterministic ATPG over one shard."""
    netlist, fault_list, random_patterns, seed, max_backtracks, engine \
        = payload
    return generate_test_set(netlist, fault_list,
                             random_patterns=random_patterns, seed=seed,
                             max_backtracks=max_backtracks, engine=engine)


def parallel_generate_test_set(netlist: Netlist,
                               fault_list: Optional[FaultList] = None,
                               workers: Optional[int] = None,
                               shards: Optional[int] = None,
                               random_patterns: int = 32, seed: int = 0,
                               max_backtracks: int = 20_000,
                               pool: Optional[WorkerPool] = None,
                               engine: Optional[str] = None) -> TestSet:
    """Generate a stuck-at test set with the fault list sharded over workers.

    Every shard runs the full random-then-PODEM flow against its own
    faults; see :func:`repro.parallel.merge.merge_test_sets` for the
    merge semantics (union coverage, possibly more patterns).
    """
    engine = resolve_engine(engine)
    fault_list = fault_list or build_fault_list(netlist)
    return _run_sharded(
        fault_list.names(), _generate_shard_tests,
        lambda names: (netlist, fault_list.subset(names), random_patterns,
                       seed, max_backtracks, engine),
        merge_test_sets, workers, shards, pool)
