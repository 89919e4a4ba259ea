"""The constant (data-sheet) power estimator.

The cheapest estimator of the paper's Table 1: a single precharacterized
average released with the component's open specification.  It costs
nothing and is instantaneous, but ignores the actual input activity
entirely, which is what gives it the largest error.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..core.signal import Logic
from ..estimation.estimator import ConstantEstimator
from ..estimation.parameter import AVERAGE_POWER


class ConstantPowerEstimator(ConstantEstimator):
    """A fixed average-power figure from the component data sheet."""

    def __init__(self, value_mw: float, name: str = "constant-power",
                 expected_error: float = 25.0):
        super().__init__(AVERAGE_POWER.name, value_mw, name=name,
                         expected_error=expected_error, cost=0.0,
                         cpu_time=0.0, units="mW")


_DIGITS = {"0": Logic.ZERO, "1": Logic.ONE}.__getitem__

_OPERAND_NETS: Dict[Tuple[str, int], Tuple[Tuple[str, ...], int]] = {}
"""Per (prefix, width): the operand's net names, LSB first, and
``1 << width``.  Every decoded pattern shares these strings."""


def _operand_nets(prefix: str, width: int) -> Tuple[Tuple[str, ...], int]:
    nets = _OPERAND_NETS.get((prefix, width))
    if nets is None:
        nets = _OPERAND_NETS[prefix, width] = (
            tuple(f"{prefix}{bit}" for bit in range(width)), 1 << width)
    return nets


def operands_to_inputs(operands: Sequence[int], prefixes: Sequence[str],
                       widths: Sequence[int]) -> Dict[str, Logic]:
    """Expand integer operands into a netlist input-value mapping.

    ``operands[k]`` drives nets ``{prefixes[k]}0 .. {prefixes[k]}{w-1}``
    LSB-first, from its low ``w`` bits (two's complement for a negative
    operand).
    """
    if not (len(operands) == len(prefixes) == len(widths)):
        raise ValueError("operands, prefixes and widths must align")
    inputs: Dict[str, Logic] = {}
    for value, prefix, width in zip(operands, prefixes, widths):
        names, top = _operand_nets(prefix, width)
        # The top bit pins the digit count; [:2:-1] drops "0b1" and
        # reads the low ``width`` bits LSB first.
        inputs.update(zip(names, map(_DIGITS,
                                     bin(value & (top - 1) | top)[:2:-1])))
    return inputs


def characterize_constant(powers: Sequence[float],
                          name: str = "constant-power",
                          expected_error: float = 25.0
                          ) -> ConstantPowerEstimator:
    """Provider-side characterization: average power over training data.

    ``powers`` is the provider's accurate model over the training
    sequence (mW per pattern); only their mean is released -- no
    structural information leaves the provider, so this estimator ships
    with the public part.
    """
    mean = sum(powers) / len(powers) if powers else 0.0
    return ConstantPowerEstimator(mean, name=name,
                                  expected_error=expected_error)
