"""The local pool is told the campaign once per worker; a shard is names.

The netlist, fault list and patterns reach each worker process through
the executor's initializer, so the parent pickles the netlist at most
once per worker (never, under ``fork``), however many shards it cuts;
what it submits per shard is a tuple of fault names.
"""

import random

import pytest

from repro.compiled import fault_simulator_for
from repro.core import Logic
from repro.faults import build_fault_list, generate_test_set
from repro.gates.corpus import load_bench
from repro.gates.io import c17
from repro.gates.netlist import Netlist
from repro.parallel import (diff_reports, parallel_fault_simulate,
                            parallel_generate_test_set, round_robin_shards)
from repro.parallel import pool as pool_module

WORKERS = 2


@pytest.fixture
def netlist_pickles(monkeypatch):
    """Counts ``Netlist.__getstate__`` calls made in this process."""
    calls = []
    original = Netlist.__getstate__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Netlist, "__getstate__", counting)
    return calls


@pytest.fixture
def submitted(monkeypatch):
    """Records the arguments of every task the local pool submits."""
    seen = []

    class Recording(pool_module.ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            seen.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", Recording)
    return seen


def random_patterns(netlist, count, seed=0):
    rng = random.Random(seed)
    return [{net: Logic(rng.getrandbits(1)) for net in netlist.inputs}
            for _ in range(count)]


class TestNetlistCrossesOncePerWorker:
    def test_fault_simulation(self, netlist_pickles, submitted):
        netlist = load_bench("alu8")
        fault_list = build_fault_list(netlist)
        patterns = random_patterns(netlist, 16)
        serial = fault_simulator_for(None, netlist, fault_list).run(
            patterns)
        parallel = parallel_fault_simulate(netlist, patterns, fault_list,
                                           workers=WORKERS, shards=8)
        assert diff_reports(serial, parallel) == []
        assert len(netlist_pickles) <= WORKERS
        assert len(submitted) == 8
        for payload, _trace_epoch in submitted:
            assert isinstance(payload, tuple)
            assert all(isinstance(name, str) for name in payload)
        assert sorted(name for payload, _ in submitted
                      for name in payload) == sorted(fault_list.names())

    def test_atpg(self, netlist_pickles):
        netlist = c17()
        serial = generate_test_set(netlist, random_patterns=8)
        parallel = parallel_generate_test_set(netlist, workers=WORKERS,
                                              random_patterns=8)
        assert parallel.coverage == serial.coverage
        assert len(netlist_pickles) <= WORKERS


class TestOneTaskPerWorker:
    def test_default_cut_submits_one_shard_per_worker(self, submitted):
        netlist = load_bench("alu8")
        fault_list = build_fault_list(netlist)
        patterns = random_patterns(netlist, 16)
        serial = fault_simulator_for(None, netlist, fault_list).run(
            patterns)
        parallel = parallel_fault_simulate(netlist, patterns, fault_list,
                                           workers=WORKERS)
        assert diff_reports(serial, parallel) == []
        assert [payload for payload, _trace_epoch in submitted] == [
            shard.names
            for shard in round_robin_shards(fault_list.names(), WORKERS)]
