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

Each worker is told the campaign once (see :mod:`repro.parallel.pool`)
and then runs shards of fault names through :func:`simulate_shard`, the
one shard executor -- the remote farm's servant runs it too.  No state
is shared between workers: the paper's multiple-concurrent-schedulers
claim realized at process granularity.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping, Optional, Sequence

from ..compiled import fault_simulator_for, resolve_engine
from ..core.signal import Logic
from ..faults.atpg import TestSet, generate_test_set
from ..faults.faultlist import FaultList, build_fault_list
from ..faults.serial import FaultSimReport
from ..gates.netlist import Netlist
from .merge import merge_reports, merge_test_sets
from .pool import WorkerPool
from .sharding import run_sharded


def simulate_shard(netlist: Netlist, fault_list: FaultList,
                   patterns: Sequence[Mapping[str, Logic]],
                   drop_detected: bool, engine: Optional[str],
                   names: Sequence[str]) -> FaultSimReport:
    """The shard executor: fault-simulate ``names`` of ``fault_list``."""
    simulator = fault_simulator_for(engine, netlist,
                                    fault_list.subset(names))
    return simulator.run(patterns, drop_detected=drop_detected)


def parallel_fault_simulate(netlist: Netlist,
                            patterns: Sequence[Mapping[str, Logic]],
                            fault_list: Optional[FaultList] = None,
                            workers: Optional[int] = None,
                            shards: Optional[int] = None,
                            drop_detected: bool = True,
                            pool: Optional[WorkerPool] = None,
                            engine: Optional[str] = None) -> FaultSimReport:
    """Fault-simulate ``patterns`` with the fault list sharded over workers.

    See :func:`~repro.parallel.sharding.run_sharded` for ``workers`` /
    ``shards``.  ``engine`` selects the per-shard simulator (``None`` =
    the compiled PPSFP kernel, ``"event"`` = the interpreted oracle);
    both merge to identical reports.
    """
    engine = resolve_engine(engine)
    fault_list = fault_list or build_fault_list(netlist)
    campaign = partial(simulate_shard, netlist, fault_list, list(patterns),
                       drop_detected, engine)
    return run_sharded(fault_list.names(), campaign, merge_reports, pool,
                       workers, shards)


def _generate_shard_tests(netlist, fault_list, random_patterns, seed,
                          max_backtracks, engine, names) -> TestSet:
    """Random-then-deterministic ATPG over ``names`` of ``fault_list``."""
    return generate_test_set(netlist, fault_list.subset(names),
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
    campaign = partial(_generate_shard_tests, netlist, fault_list,
                       random_patterns, seed, max_backtracks, engine)
    return run_sharded(fault_list.names(), campaign, merge_test_sets, pool,
                       workers, shards)
