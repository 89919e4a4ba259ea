"""Deterministic partitioning of fault lists into balanced shards.

Sharding is the client-side half of the paper's concurrency story: the
backplane already guarantees that concurrent schedulers over the same
design cannot interfere (per-scheduler state LUTs), so an embarrassingly
parallel campaign -- one fault target per simulation -- can be split
into shards, run by independent workers, and merged back exactly.

Two balancing strategies are provided:

* **round-robin** by fault index, the default: shard ``i`` receives the
  faults at indices ``i, i + count, i + 2*count, ...`` of the list,
  which keeps structurally neighbouring (similarly expensive) faults
  spread across all shards;
* **cost-weighted**, a greedy longest-processing-time assignment used
  when per-fault costs differ -- e.g. faults of different IP blocks,
  where a fault's simulation cost scales with its block's gate count.

Both strategies are pure functions of their inputs, so the same fault
list always shards the same way -- a prerequisite for the determinism
guarantee documented in ``docs/parallel.md``.

:func:`run_sharded` drives every sharded campaign, local or remote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import ParallelExecutionError, check_positive
from ..faults.faultlist import FaultList
from ..telemetry.runtime import TELEMETRY
from .pool import WorkerPool, resolve_workers


@dataclass(frozen=True)
class Shard:
    """One balanced slice of a work list."""

    index: int
    names: Tuple[str, ...]
    weight: float

    def __len__(self) -> int:
        return len(self.names)


def _listed(names: Iterable[str], count: int) -> Tuple[List[str], int]:
    """``names`` as a list and ``count`` checked, capped at its length."""
    ordered = list(names)
    if ordered and count <= 0:
        raise ParallelExecutionError(
            f"shard count must be positive, got {count}")
    return ordered, min(count, len(ordered))


def round_robin_shards(names: Iterable[str], count: int) -> List[Shard]:
    """Split ``names`` into ``count`` shards by round-robin index."""
    ordered, count = _listed(names, count)
    buckets: List[List[str]] = [[] for _ in range(count)]
    for index, name in enumerate(ordered):
        buckets[index % count].append(name)
    return [Shard(index, tuple(bucket), float(len(bucket)))
            for index, bucket in enumerate(buckets)]


def weighted_shards(names: Iterable[str], count: int,
                    weight_of: Callable[[str], float]) -> List[Shard]:
    """Greedy LPT balancing: heaviest item to the lightest shard.

    Deterministic: items are processed by (descending weight, original
    index) and ties between shards break toward the lowest shard index;
    within a shard the original list order is restored so a worker's
    simulation order never depends on the balancing pass.
    """
    ordered, count = _listed(names, count)
    weights = {name: float(weight_of(name)) for name in ordered}
    for name, weight in weights.items():
        check_positive(f"shard weight of {name!r}", weight, zero=True)
    by_weight = sorted(range(len(ordered)),
                       key=lambda i: (-weights[ordered[i]], i))
    loads = [0.0] * count
    members: List[List[int]] = [[] for _ in range(count)]
    for item in by_weight:
        target = min(range(count), key=lambda s: (loads[s], s))
        members[target].append(item)
        loads[target] += weights[ordered[item]]
    return [Shard(index,
                  tuple(ordered[i] for i in sorted(member)),
                  loads[index])
            for index, member in enumerate(members)]


def shard_fault_list(fault_list: FaultList, count: int,
                     weight_of: Optional[Callable[[str], float]] = None
                     ) -> List[Shard]:
    """Shard a :class:`FaultList`'s symbolic names for parallel workers."""
    return shard_names(fault_list.names(), count, weight_of)


def shard_names(names: Sequence[str], count: int,
                weight_of: Optional[Callable[[str], float]] = None
                ) -> List[Shard]:
    """Shard an arbitrary name list (e.g. a composed design fault list)."""
    if weight_of is not None:
        return weighted_shards(names, count, weight_of)
    return round_robin_shards(names, count)


def run_sharded(names: Sequence[str], campaign: Any,
                merge: Callable[[Sequence[Any]], Any],
                pool: Any = None, workers: Optional[int] = None,
                shards: Optional[int] = None,
                weight_of: Optional[Callable[[str], float]] = None,
                inline: Optional[Callable[[Sequence[str]], Any]] = None
                ) -> Any:
    """Shard ``names``, run ``campaign`` on every shard, merge.

    ``pool`` (default: a local ``WorkerPool(workers)``; or a
    ``RemoteWorkerPool``) tells each worker the campaign once, then
    hands it shards: tuples of names.  It cuts one shard per worker,
    counting the larger of the pool's size and ``workers``
    (``None``/``0`` = one per usable CPU), so a ``workers`` above the
    pool's size leaves spare shards for idle workers to steal.
    ``shards`` (positive) overrides the count.  One name, or a local
    pool of one, runs ``inline(names)`` (default ``campaign``) in this
    process instead.  ``weight_of`` switches round-robin sharding to
    cost-weighted balancing.

    ``merge``'s result has a ``detected`` map (a report or a test set)
    listed shard by shard; with ``shards`` unset it is re-listed as a
    cut of four shards per worker lists it, the order default reports
    have always had (each such shard lies inside one worker's
    round-robin shard, so a stable sort by its index is exact).
    """
    pool = pool or WorkerPool(workers)
    if len(names) <= 1 or (isinstance(pool, WorkerPool)
                           and pool.workers <= 1):
        return (inline or campaign)(names)
    worker_count = max(pool.workers,
                       resolve_workers(workers) if workers else 0)
    parts = shard_names(names, worker_count if shards is None else shards,
                        weight_of=weight_of)
    if TELEMETRY.enabled:
        TELEMETRY.metrics.counter("parallel.shards").inc(len(parts))
    outcomes = pool.map(campaign, [part.names for part in parts])
    merged = merge([outcome.value for outcome in outcomes])
    if shards is None:
        listing = shard_names(names, 4 * worker_count, weight_of=weight_of)
        rank = {name: part.index for part in listing for name in part.names}
        merged.detected = dict(sorted(merged.detected.items(),
                                      key=lambda item: rank[item[0]]))
    return merged
