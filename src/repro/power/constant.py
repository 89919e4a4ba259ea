"""The constant (data-sheet) power estimator.

The cheapest estimator of the paper's Table 1: a single precharacterized
average released with the component's open specification.  It costs
nothing and is instantaneous, but ignores the actual input activity
entirely, which is what gives it the largest error.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.signal import Logic
from ..estimation.estimator import ConstantEstimator
from ..estimation.parameter import AVERAGE_POWER
from .toggle import PowerModel


class ConstantPowerEstimator(ConstantEstimator):
    """A fixed average-power figure from the component data sheet."""

    def __init__(self, value_mw: float, name: str = "constant-power",
                 expected_error: float = 25.0):
        super().__init__(AVERAGE_POWER.name, value_mw, name=name,
                         expected_error=expected_error, cost=0.0,
                         cpu_time=0.0, units="mW")


def operands_to_inputs(operands: Sequence[int], prefixes: Sequence[str],
                       widths: Sequence[int]) -> Dict[str, Logic]:
    """Expand integer operands into a netlist input-value mapping.

    ``operands[k]`` drives nets ``{prefixes[k]}0 .. {prefixes[k]}{w-1}``
    LSB-first.
    """
    if not (len(operands) == len(prefixes) == len(widths)):
        raise ValueError("operands, prefixes and widths must align")
    inputs: Dict[str, Logic] = {}
    for value, prefix, width in zip(operands, prefixes, widths):
        for bit in range(width):
            inputs[f"{prefix}{bit}"] = Logic((value >> bit) & 1)
    return inputs


def characterize_constant(model: PowerModel,
                          training: Sequence[Sequence[int]],
                          prefixes: Sequence[str],
                          widths: Sequence[int],
                          name: str = "constant-power",
                          expected_error: float = 25.0
                          ) -> ConstantPowerEstimator:
    """Provider-side characterization: average power over training data.

    Runs the provider's accurate model over the training sequence and
    releases only the mean -- no structural information leaves the
    provider, so this estimator ships with the public part.
    """
    model.reset()
    powers: List[float] = [
        model.power_of_pattern(
            operands_to_inputs(pattern, prefixes, widths))
        for pattern in training
    ]
    mean = sum(powers) / len(powers) if powers else 0.0
    return ConstantPowerEstimator(mean, name=name,
                                  expected_error=expected_error)
