"""The simulation backplane: modules, connectors, tokens, schedulers.

This package is the reproduction of the JavaCAD Foundation Packages
(JFP): a general, multi-level, event-driven simulation engine with full
support for hierarchical designs, mixed abstraction levels, and
concurrent simulations of the same design on independent schedulers.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "connector": ("BitConnector", "Connector", "WordConnector", "connect"),
    "controller": ("SimulationContext", "SimulationController",
                   "SimulationStats"),
    "coordinator": ("RunConfig", "SimulationCoordinator"),
    "design": ("Circuit", "Design"),
    "errors": ("BillingError", "ConnectionError_", "DesignError",
               "EstimationError", "FaultSimulationError", "IPProtectionError",
               "MarshalError", "ParameterError", "RemoteError", "ReproError",
               "SchedulerInterferenceError", "SecurityViolationError",
               "SetupError", "SimulationError", "WidthMismatchError"),
    "fanout": ("Delay", "Fanout"),
    "library": ("ClockGenerator", "PatternPrimaryInput", "PrimaryOutput",
                "RandomPrimaryInput", "Register"),
    "module": ("CompositeModule", "ModuleSkeleton"),
    "port": ("Port", "PortDirection"),
    "scheduler": ("Scheduler",),
    "signal": ("Logic", "SignalValue", "Word", "bits_from_int",
               "bits_from_string", "bits_to_string", "int_from_bits",
               "logic_and", "logic_buf", "logic_mux", "logic_nand",
               "logic_nor", "logic_not", "logic_or", "logic_xnor", "logic_xor",
               "toggles"),
    "token": ("ControlToken", "EstimationToken", "SelfTriggerToken",
              "SignalToken", "Token"),
    "wave": ("ValueChange", "WaveformRecorder"),
})
