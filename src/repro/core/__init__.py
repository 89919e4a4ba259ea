"""The simulation backplane: modules, connectors, tokens, schedulers.

This package is the reproduction of the JavaCAD Foundation Packages
(JFP): a general, multi-level, event-driven simulation engine with full
support for hierarchical designs, mixed abstraction levels, and
concurrent simulations of the same design on independent schedulers.
"""

from .connector import BitConnector, Connector, WordConnector, connect
from .controller import (SimulationContext, SimulationController,
                         SimulationStats)
from .coordinator import RunConfig, SimulationCoordinator
from .design import Circuit, Design
from .errors import (BillingError, ConnectionError_, DesignError,
                     EstimationError, FaultSimulationError,
                     IPProtectionError, MarshalError, ParameterError,
                     RemoteError, ReproError, SchedulerInterferenceError,
                     SecurityViolationError, SetupError, SimulationError,
                     WidthMismatchError)
from .fanout import Delay, Fanout
from .library import (ClockGenerator, PatternPrimaryInput, PrimaryOutput,
                      RandomPrimaryInput, Register)
from .module import CompositeModule, ModuleSkeleton
from .port import Port, PortDirection
from .scheduler import Scheduler
from .signal import (Logic, SignalValue, Word, bits_from_int,
                     bits_from_string, bits_to_string, int_from_bits,
                     logic_and, logic_buf, logic_mux, logic_nand, logic_nor,
                     logic_not, logic_or, logic_xnor, logic_xor, toggles)
from .token import (ControlToken, EstimationToken, SelfTriggerToken,
                    SignalToken, Token)
from .wave import ValueChange, WaveformRecorder

__all__ = [
    "BitConnector", "Connector", "WordConnector", "connect",
    "SimulationContext", "SimulationController", "SimulationStats",
    "RunConfig", "SimulationCoordinator",
    "Circuit", "Design",
    "BillingError", "ConnectionError_", "DesignError", "EstimationError",
    "FaultSimulationError", "IPProtectionError", "MarshalError",
    "ParameterError", "RemoteError", "ReproError",
    "SchedulerInterferenceError", "SecurityViolationError", "SetupError",
    "SimulationError", "WidthMismatchError",
    "Delay", "Fanout",
    "ClockGenerator", "PatternPrimaryInput", "PrimaryOutput",
    "RandomPrimaryInput", "Register",
    "CompositeModule", "ModuleSkeleton",
    "Port", "PortDirection",
    "Scheduler",
    "Logic", "SignalValue", "Word", "bits_from_int", "bits_from_string",
    "bits_to_string", "int_from_bits", "logic_and", "logic_buf",
    "logic_mux", "logic_nand", "logic_nor", "logic_not", "logic_or",
    "logic_xnor", "logic_xor", "toggles",
    "ControlToken", "EstimationToken", "SelfTriggerToken", "SignalToken",
    "Token",
    "ValueChange", "WaveformRecorder",
]
