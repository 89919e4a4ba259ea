"""Benchmark harnesses: the paper's experiments as reusable functions."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "faultbench": ("EmbeddedExperiment", "Figure4Setup",
                   "PublicFunctionalModel", "build_embedded", "build_figure4",
                   "build_sequential_wrapper", "chatty_fault_bench",
                   "embedded_simulator", "figure4_flat_netlist",
                   "figure4_internal_faults", "figure4_simulator",
                   "functional_model_of"),
    "reporting": ("ascii_plot", "format_series", "format_table",
                  "telemetry_session", "write_bench_report"),
    "scenarios": ("DEFAULT_BUFFER", "DEFAULT_PATTERNS", "DEFAULT_WIDTH",
                  "SCENARIOS", "Figure2Design", "ScenarioResult",
                  "run_buffer_sweep", "run_scenario", "run_table2",
                  "shared_provider"),
    "table1": ("ESTIMATOR_NAMES", "Table1Row", "heterogeneous_patterns",
               "run_table1"),
    "timing": ("VirtualSpan", "measure"),
})
