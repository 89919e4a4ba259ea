"""The linear-regression power macro-model.

The middle estimator of the paper's Table 1: the provider fits a linear
model ``power = a + b * input_activity`` on its accurate gate-level
model, then releases only the two coefficients.  The estimator runs
locally on the user's machine (it needs nothing but the component's own
port values), costs nothing, and tracks activity-dependent power far
better than a constant -- but it cannot see internal glitching, so an
error floor remains.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

import numpy as np

from ..core.module import ModuleSkeleton
from ..core.signal import Word
from ..estimation.estimator import EstimatorSkeleton
from ..estimation.parameter import AVERAGE_POWER
from .activity import pair_activity, word_activity
from .constant import operands_to_inputs
from .toggle import PowerModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.controller import SimulationContext


class LinearRegressionPowerEstimator(EstimatorSkeleton):
    """``power = intercept + slope * activity`` over the module's ports.

    Activity is the Hamming distance between the current and previous
    values of the named input ports, tracked per scheduler in the
    module's state LUT (so concurrent simulations do not interfere).
    """

    def __init__(self, intercept: float, slope: float,
                 ports: Sequence[str] = ("a", "b"),
                 name: str = "linreg-power", expected_error: float = 20.0,
                 cpu_time: float = 0.0):
        super().__init__(AVERAGE_POWER.name, name,
                         expected_error=expected_error, cost=0.0,
                         cpu_time=cpu_time, units="mW")
        self.intercept = intercept
        self.slope = slope
        self.ports = tuple(ports)

    def estimation(self, module: ModuleSkeleton,
                   ctx: "SimulationContext") -> float:
        previous: Dict[str, Word] = module.state(ctx).setdefault(
            "_linreg_prev", {})
        activity = 0
        for port_name in self.ports:
            value = module.read(port_name, ctx)
            if not isinstance(value, Word):
                continue
            last = previous.get(port_name, Word(0, value.width))
            activity += word_activity(last, value)
            previous[port_name] = value
        return self.intercept + self.slope * activity


def fit_regression(model: PowerModel,
                   training: Sequence[Sequence[int]],
                   prefixes: Sequence[str], widths: Sequence[int],
                   name: str = "linreg-power",
                   expected_error: float = 20.0
                   ) -> LinearRegressionPowerEstimator:
    """Provider-side fit of the regression macro-model.

    Runs the accurate model over the training sequence, regresses power
    on input activity with least squares, and releases only the two
    coefficients.
    """
    model.reset()
    activities: List[float] = []
    powers: List[float] = []
    previous = tuple(0 for _ in prefixes)
    for pattern in training:
        activities.append(float(pair_activity(previous, pattern)))
        powers.append(model.power_of_pattern(
            operands_to_inputs(pattern, prefixes, widths)))
        previous = tuple(pattern)
    design_matrix = np.column_stack(
        [np.ones(len(activities)), np.array(activities)])
    coefficients, *_ = np.linalg.lstsq(design_matrix, np.array(powers),
                                       rcond=None)
    intercept, slope = float(coefficients[0]), float(coefficients[1])
    return LinearRegressionPowerEstimator(
        intercept, slope, ports=tuple(prefixes), name=name,
        expected_error=expected_error)
