"""Monte-Carlo average-power estimation with convergence control.

Providers characterizing a component (or users evaluating one) need to
know *how many* random patterns make the average trustworthy.  This
helper runs a power model over randomly generated operand patterns
until the half-width of the mean's confidence interval falls below a
relative tolerance, and reports the achieved precision -- turning
"simulate 100 patterns" folklore into a measured stopping rule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from ..core.errors import EstimationError, check_positive
from .constant import operands_to_inputs
from .toggle import PowerModel

Z_95 = 1.96
"""Normal z-score for a 95% confidence interval."""


@dataclass(frozen=True)
class MonteCarloResult:
    """Outcome of a convergence-controlled power characterization."""

    mean_mw: float
    half_width_mw: float
    patterns: int
    converged: bool

    @property
    def relative_half_width(self) -> float:
        """CI half-width as a fraction of the mean."""
        if self.mean_mw == 0.0:
            return 0.0
        return self.half_width_mw / self.mean_mw

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.mean_mw:.4g} mW ± {self.half_width_mw:.2g} "
                f"({self.patterns} patterns, "
                f"{'converged' if self.converged else 'NOT converged'})")


def monte_carlo_power(model: PowerModel,
                      prefixes: Sequence[str], widths: Sequence[int],
                      relative_tolerance: float = 0.05,
                      min_patterns: int = 30,
                      max_patterns: int = 5000,
                      seed: int = 0,
                      pattern_source: Optional[Callable[[random.Random],
                                                        Tuple[int, ...]]]
                      = None) -> MonteCarloResult:
    """Estimate mean per-pattern power to a target precision.

    Patterns default to uniform random operands; supply
    ``pattern_source(rng) -> operands`` for workload-shaped stimulus.
    Stops once the 95% CI half-width is below
    ``relative_tolerance x mean`` (after ``min_patterns``), or at
    ``max_patterns`` with ``converged=False``.
    """
    check_positive("relative_tolerance", relative_tolerance)
    if min_patterns < 2:
        raise EstimationError("need at least two patterns for a CI")
    rng = random.Random(seed)
    if pattern_source is None:
        def pattern_source(generator: random.Random) -> Tuple[int, ...]:
            return tuple(generator.getrandbits(width)
                         for width in widths)

    model.reset()
    count = 0
    mean = 0.0
    m2 = 0.0  # Welford's running sum of squared deviations
    while count < max_patterns:
        operands = pattern_source(rng)
        power = model.power_of_pattern(
            operands_to_inputs(operands, prefixes, widths))
        count += 1
        delta = power - mean
        mean += delta / count
        m2 += delta * (power - mean)
        if count >= min_patterns:
            variance = m2 / (count - 1)
            half_width = Z_95 * math.sqrt(variance / count)
            if mean > 0 and half_width <= relative_tolerance * mean:
                return MonteCarloResult(mean, half_width, count, True)
    variance = m2 / (count - 1) if count > 1 else 0.0
    half_width = Z_95 * math.sqrt(variance / count) if count else 0.0
    return MonteCarloResult(mean, half_width, count, False)
