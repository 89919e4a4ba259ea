"""Sharded multi-process *virtual* fault simulation.

The virtual protocol's phase 2 is just as embarrassingly parallel as
the serial flow: whether one pattern detects one composed fault depends
only on that fault's detection-table row and its injection run, never
on the rest of the target list.  Each worker is told the factory, its
arguments and the patterns once, and then rebuilds the full
client-side setup from the picklable *factory* (an isolated circuit,
controller and provider servant per process -- concurrent schedulers
over the same design, as the paper's backplane promises), runs the
campaign restricted to its shard of qualified fault names, and the
per-shard reports merge into exactly the serial report.

The factory must be a module-level callable (pickled by reference) and
its keyword arguments must pickle; see
:func:`repro.bench.faultbench.figure4_simulator` and
:func:`repro.bench.faultbench.embedded_simulator` for ready-made ones.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from ..faults.serial import FaultSimReport
from ..faults.virtual import VirtualFaultSimulator
from .merge import merge_reports
from .pool import WorkerPool
from .sharding import run_sharded


def block_gate_weights(simulator: VirtualFaultSimulator
                       ) -> Optional[Dict[str, float]]:
    """Cost weights for a composed fault list: the owning block's gates.

    A virtual fault's simulation cost is dominated by its block's
    detection-table computation, which scales with the block's gate
    count.  Weights are only derivable when every stub is a local
    servant exposing its netlist; for remote stubs this returns ``None``
    and sharding falls back to round-robin.
    """
    weights: Dict[str, float] = {}
    for block in simulator.ip_blocks:
        netlist = getattr(block.stub, "netlist", None)
        if netlist is None:
            return None
        gate_count = float(netlist.gate_count())
        for name in block.stub.fault_list():
            weights[f"{block.name}:{name}"] = gate_count
    return weights


def _simulate_virtual_shard(factory, kwargs, patterns,
                            names) -> FaultSimReport:
    """Fresh client-side setup, campaign over one shard of names."""
    simulator = factory(**kwargs)
    return simulator.run(patterns, only=names)


def parallel_virtual_fault_simulate(
        factory: Callable[..., VirtualFaultSimulator],
        patterns: Sequence[Mapping[str, Any]],
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        factory_kwargs: Optional[Dict[str, Any]] = None,
        pool: Optional[WorkerPool] = None) -> FaultSimReport:
    """Run a virtual fault campaign with the composed list sharded.

    ``factory(**factory_kwargs)`` must build a fresh, self-contained
    :class:`VirtualFaultSimulator`; it is called once in the parent to
    compose the design fault list (phase 1) and once per shard; the
    serial path runs that first one.  Shards are balanced by block gate
    count when the stubs expose their netlists locally, round-robin
    otherwise.
    """
    kwargs = dict(factory_kwargs or {})
    probe = factory(**kwargs)
    patterns = list(patterns)
    weight_map = block_gate_weights(probe)
    return run_sharded(
        tuple(probe.build_fault_list()),
        partial(_simulate_virtual_shard, factory, kwargs, patterns),
        merge_reports, pool, workers, shards,
        weight_of=weight_map.get if weight_map else None,
        inline=partial(probe.run, patterns))
