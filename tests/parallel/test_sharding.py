"""Deterministic fault-list partitioning (round-robin and weighted)."""

import pytest

from repro.core.errors import ParallelExecutionError
from repro.faults import build_fault_list
from repro.faults.serial import FaultSimReport
from repro.gates import c17
from repro.parallel import (TaskOutcome, merge_reports, round_robin_shards,
                            shard_fault_list, weighted_shards)
from repro.parallel.sharding import run_sharded

NAMES = [f"f{i}" for i in range(10)]


class RecordingPool:
    """A pool of ``workers`` that runs every shard inline and keeps it."""

    def __init__(self, workers):
        self.workers = workers
        self.shards = []

    def map(self, campaign, shards):
        self.shards = list(shards)
        return [TaskOutcome(index, campaign(shard), 0.0, 0)
                for index, shard in enumerate(self.shards)]


def detect_all(names):
    """A shard report in which pattern 0 detects every fault."""
    report = FaultSimReport(total_faults=len(names))
    report.detected.update((name, 0) for name in names)
    report.per_pattern.append(set(names))
    return report


def cut(names, pool_size, **options):
    """The shards ``run_sharded`` hands a pool of ``pool_size``."""
    pool = RecordingPool(pool_size)
    run_sharded(names, detect_all, merge_reports, pool=pool, **options)
    return pool.shards


class TestDefaultShardCount:
    def test_cuts_one_shard_per_worker(self):
        names = [f"f{i}" for i in range(1000)]
        assert [len(shard) for shard in cut(names, 4)] == [250] * 4

    def test_never_exceeds_item_count(self):
        assert len(cut(["a", "b", "c"], 4)) == 3

    def test_empty_work_means_zero_shards(self):
        assert cut([], 4) == []

    def test_at_least_one_shard_for_any_work(self):
        assert len(cut(NAMES[:5], 1)) == 1

    def test_workers_above_the_pool_size_cut_spares(self):
        assert len(cut(NAMES, 2, workers=5)) == 5

    def test_explicit_shards_override(self):
        assert len(cut(NAMES, 2, shards=3)) == 3

    @pytest.mark.parametrize("shards", [0, -1])
    def test_nonpositive_shards_rejected(self, shards):
        with pytest.raises(ParallelExecutionError,
                           match="shard count must be positive"):
            cut(NAMES, 2, shards=shards)

    def test_detections_listed_as_four_shards_per_worker(self):
        pool = RecordingPool(2)
        merged = run_sharded(NAMES, detect_all, merge_reports, pool=pool)
        assert len(pool.shards) == 2
        assert list(merged.detected) == [
            name for shard in round_robin_shards(NAMES, 8)
            for name in shard.names]


class TestRoundRobinShards:
    def test_partitions_without_loss_or_overlap(self):
        shards = round_robin_shards(NAMES, 3)
        everything = [name for shard in shards for name in shard.names]
        assert sorted(everything) == sorted(NAMES)
        assert len(set(everything)) == len(NAMES)

    def test_balanced_within_one_item(self):
        sizes = [len(shard) for shard in round_robin_shards(NAMES, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_stable_across_calls(self):
        assert round_robin_shards(NAMES, 3) == round_robin_shards(NAMES, 3)

    def test_clamps_count_to_item_count(self):
        shards = round_robin_shards(["a", "b"], 5)
        assert len(shards) == 2

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ParallelExecutionError):
            round_robin_shards(NAMES, 0)


class TestWeightedShards:
    def test_partitions_without_loss_or_overlap(self):
        shards = weighted_shards(NAMES, 3, lambda name: 1.0)
        everything = [name for shard in shards for name in shard.names]
        assert sorted(everything) == sorted(NAMES)

    def test_balances_skewed_weights(self):
        # One heavy item (weight 9) plus nine light ones: LPT puts the
        # heavy item alone-ish and spreads the rest.
        weights = {name: (9.0 if name == "f0" else 1.0) for name in NAMES}
        shards = weighted_shards(NAMES, 3, weights.__getitem__)
        loads = [sum(weights[name] for name in shard.names)
                 for shard in shards]
        assert max(loads) - min(loads) <= 5.0
        assert max(loads) < sum(weights.values())

    def test_preserves_original_order_within_a_shard(self):
        shards = weighted_shards(NAMES, 3, lambda name: 1.0)
        for shard in shards:
            indices = [NAMES.index(name) for name in shard.names]
            assert indices == sorted(indices)

    def test_deterministic(self):
        first = weighted_shards(NAMES, 4, lambda name: float(len(name)))
        second = weighted_shards(NAMES, 4, lambda name: float(len(name)))
        assert first == second

    def test_rejects_negative_weights(self):
        with pytest.raises(ParallelExecutionError):
            weighted_shards(NAMES, 2, lambda name: -1.0)


class TestShardFaultList:
    def test_covers_every_fault_exactly_once(self):
        fault_list = build_fault_list(c17())
        shards = shard_fault_list(fault_list, 4)
        everything = [name for shard in shards for name in shard.names]
        assert sorted(everything) == sorted(fault_list.names())

    def test_subsets_reconstruct_the_fault_list(self):
        fault_list = build_fault_list(c17())
        shards = shard_fault_list(fault_list, 3)
        total = sum(len(fault_list.subset(shard.names))
                    for shard in shards)
        assert total == len(fault_list)
