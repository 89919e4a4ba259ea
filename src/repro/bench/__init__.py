"""Benchmark harnesses: the paper's experiments as reusable functions."""

from .faultbench import (EmbeddedExperiment, Figure4Setup,
                         PublicFunctionalModel, build_embedded,
                         build_figure4, build_sequential_wrapper,
                         chatty_fault_bench, embedded_simulator,
                         figure4_flat_netlist, figure4_internal_faults,
                         figure4_simulator, functional_model_of)
from .reporting import (ascii_plot, format_series, format_table,
                        telemetry_session, write_bench_report)
from .scenarios import (DEFAULT_BUFFER, DEFAULT_PATTERNS, DEFAULT_WIDTH,
                        SCENARIOS, Figure2Design, ScenarioResult,
                        run_buffer_sweep, run_scenario, run_table2,
                        shared_provider)
from .table1 import (ESTIMATOR_NAMES, Table1Row, heterogeneous_patterns,
                     run_table1)
from .timing import VirtualSpan, measure

__all__ = [
    "EmbeddedExperiment", "Figure4Setup", "PublicFunctionalModel",
    "build_embedded", "build_figure4", "build_sequential_wrapper",
    "chatty_fault_bench", "embedded_simulator", "figure4_flat_netlist",
    "figure4_internal_faults", "figure4_simulator", "functional_model_of",
    "ascii_plot", "format_series", "format_table", "telemetry_session",
    "write_bench_report",
    "DEFAULT_BUFFER", "DEFAULT_PATTERNS", "DEFAULT_WIDTH", "SCENARIOS",
    "Figure2Design", "ScenarioResult", "run_buffer_sweep", "run_scenario",
    "run_table2", "shared_provider",
    "ESTIMATOR_NAMES", "Table1Row", "heterogeneous_patterns", "run_table1",
    "VirtualSpan", "measure",
]
