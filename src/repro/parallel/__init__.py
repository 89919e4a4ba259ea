"""repro.parallel: sharded multi-worker campaigns and scenario fan-out.

The paper's backplane is designed for multiple concurrent schedulers
over the same design without interference; this package supplies the
scheduling/partitioning layer *above* the simulator that turns that
property into wall-clock speedup on multi-core hosts:

* :mod:`~repro.parallel.sharding` -- deterministic fault-list
  partitioning and ``run_sharded``, the one driver of sharded campaigns;
* :mod:`~repro.parallel.pool` -- a process pool told the campaign once
  per worker, with ordered results and per-worker telemetry serialized
  back to the parent;
* :mod:`~repro.parallel.merge` -- exact recombination of per-shard
  fault-simulation reports (and union-merge of ATPG test sets);
* :mod:`~repro.parallel.faultsim` / :mod:`~repro.parallel.virtualsim`
  -- sharded serial and virtual fault simulation;
* :mod:`~repro.parallel.scenarios` -- concurrent independent
  estimation/bench scenarios (Table 2 fan-out);
* :mod:`~repro.parallel.remote` -- the multi-host fault farm: the same
  protocol (campaign once per endpoint, shards of names) over RMI BATCH.

See ``docs/parallel.md`` for the sharding model and the determinism
guarantees (and their limits).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "faultsim": ("parallel_fault_simulate", "parallel_generate_test_set"),
    "merge": ("diff_reports", "merge_reports", "merge_test_sets"),
    "pool": ("TaskOutcome", "WorkerPool", "resolve_workers"),
    "remote": ("FaultFarmServant", "RemoteCampaign", "RemoteWorkerPool",
               "register_fault_farm", "remote_fault_simulate"),
    "scenarios": ("ScenarioSpec", "reset_session_state",
                  "run_scenarios_parallel", "run_table2_parallel",
                  "table2_specs"),
    "sharding": ("Shard", "round_robin_shards", "shard_fault_list",
                 "shard_names", "weighted_shards"),
    "virtualsim": ("block_gate_weights", "parallel_virtual_fault_simulate"),
})
