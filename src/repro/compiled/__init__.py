"""Compiled (pattern-packed) gate simulation: the PPSFP kernel.

The interpreted simulators in :mod:`repro.gates.simulator` evaluate one
gate for one pattern at a time.  This package compiles a levelized
:class:`~repro.gates.netlist.Netlist` once into straight-line Python
bitwise code -- one word operation per gate -- and runs 64 test
patterns per machine word (classic PPSFP), with stuck-at faults
injected through per-site masks, a few hundred of them side by side in
the lanes of one wide word, and dropped at word granularity.

The compiled engine is what ``engine=None`` means everywhere
(``faultsim`` / ``atpg``, the parallel and remote farms, every servant a
provider publishes; see :mod:`.engine`) and produces ``FaultSimReport``
values, detection tables and evaluations byte-identical to the
interpreted path, which stays selectable as ``--engine event`` and is
the oracle of ``tests/differential/test_engine_differential.py``.
"""

from .compiler import (CompiledKernel, built_fault_list, clear_build_cache,
                       clear_kernel_cache, compile_netlist,
                       netlist_fingerprint)
from .engine import (ENGINES, FaultSimulator, fault_simulator_for,
                     resolve_engine, simulator_for)
from .ppsfp import (SUPERWORD_BITS, WORD_BITS, CompiledFaultSimulator,
                    CompiledSimulator, pack_patterns)

__all__ = [
    "ENGINES",
    "SUPERWORD_BITS",
    "WORD_BITS",
    "CompiledFaultSimulator",
    "CompiledKernel",
    "CompiledSimulator",
    "FaultSimulator",
    "built_fault_list",
    "clear_build_cache",
    "clear_kernel_cache",
    "compile_netlist",
    "fault_simulator_for",
    "netlist_fingerprint",
    "pack_patterns",
    "resolve_engine",
    "simulator_for",
]
