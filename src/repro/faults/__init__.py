"""Fault simulation: stuck-at models, detection tables, virtual protocol."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "atpg": ("ABORTED", "DETECTED", "UNTESTABLE", "TestGenResult", "TestSet",
             "generate_test", "generate_test_set"),
    "coverage": ("CoverageSummary", "expand_composed_coverage",
                 "expand_coverage", "reports_agree"),
    "detection": ("DetectionTable", "build_detection_table"),
    "faultlist": ("FaultList", "build_fault_list", "compose_design_fault_list",
                  "enumerate_faults"),
    "model": ("StuckAtFault",),
    "sequential": ("SequentialDesign", "SequentialEvaluator",
                   "SequentialSerialFaultSimulator",
                   "SequentialVirtualFaultSimulator", "design_from_bench"),
    "serial": ("FaultSimReport", "SerialFaultSimulator"),
    "transition": ("SerialTransitionSimulator", "TransitionFault",
                   "TransitionFaultList", "TransitionTestabilityServant",
                   "VirtualTransitionSimulator",
                   "enumerate_transition_faults"),
    "virtual": ("IPBlockClient", "TestabilityServant", "VirtualFaultSimulator",
                "drive_connector"),
})
