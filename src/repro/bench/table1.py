"""Table 1: three power estimators for the multiplier, scored for real.

The paper's Table 1 compares a constant (data-sheet) estimator, a
linear-regression macro-model and the remote gate-level toggle-count
estimator on average error, RMS error, monetary cost per pattern and CPU
time per pattern.  This harness reproduces the comparison end to end
through the actual framework: each estimator is selected with a setup
controller, evaluated during event-driven simulation of a small
multiplier design, billed through a billing account, and scored against
the provider's silicon reference.

Errors are normalized to the mean true power (the standard macro-model
metric); the stimulus mixes low- and high-activity regimes, which is
what separates the activity-blind constant estimator from the
regression model.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

from ..core.connector import WordConnector
from ..core.controller import SimulationController
from ..core.design import Circuit
from ..core.library import PatternPrimaryInput, PrimaryOutput
from ..estimation.criteria import ByName
from ..estimation.parameter import AVERAGE_POWER
from ..estimation.setup import SetupController
from ..ip.billing import BillingAccount
from ..ip.component import MultFastLowPower, ProviderConnection
from ..ip.provider import IPProvider
from ..net.clock import VirtualClock
from ..net.model import LOCALHOST
from ..power.constant import operands_to_inputs
from ..power.toggle import SiliconReference

ESTIMATOR_NAMES = ("constant-power", "linreg-power", "gate-level-toggle")
"""The three Table 1 estimators, in paper order."""


@dataclass
class Table1Row:
    """One Table 1 row: declared characterization plus measured scores."""

    estimator: str
    avg_error_pct: float
    rms_error_pct: float
    cost_cents_per_pattern: float
    cpu_s_per_pattern: float
    unpredictable_time: bool

    def cells(self) -> Tuple[str, float, float, float, str]:
        """Formatted like the paper's columns."""
        cpu = f"{self.cpu_s_per_pattern:.3f}" + \
            ("*" if self.unpredictable_time else "")
        return (self.estimator, round(self.avg_error_pct, 1),
                round(self.rms_error_pct, 1),
                round(self.cost_cents_per_pattern, 3), cpu)


def heterogeneous_patterns(width: int, count: int,
                           seed: int = 11) -> List[Tuple[int, int]]:
    """Regime-switching operand pairs: idle-ish bursts and full swings.

    Real workloads alternate low-activity stretches (only low-order bits
    change) with high-activity ones; a constant estimator averages over
    the regimes while the regression model tracks them.
    """
    rng = random.Random(seed)
    patterns: List[Tuple[int, int]] = []
    a = b = 0
    low_mask = (1 << max(1, width // 3)) - 1
    while len(patterns) < count:
        low_activity = rng.random() < 0.5
        for _ in range(rng.randint(3, 8)):
            if low_activity:
                a = (a & ~low_mask) | (rng.getrandbits(width) & low_mask)
                b = (b & ~low_mask) | (rng.getrandbits(width) & low_mask)
            else:
                a = rng.getrandbits(width)
                b = rng.getrandbits(width)
            patterns.append((a, b))
            if len(patterns) >= count:
                break
    return patterns


@lru_cache(maxsize=4)
def _table1_provider(width: int) -> IPProvider:
    provider = IPProvider("power.provider.host")
    provider.publish_multiplier(width)
    return provider


def _run_with_estimator(provider: IPProvider, estimator: str, width: int,
                        patterns: Sequence[Tuple[int, int]]
                        ) -> Tuple[List[float], float, float]:
    """Simulate the design with one estimator selected.

    Returns (per-pattern power estimates, billed cents, client cpu s).
    """
    clock = VirtualClock()
    connection = ProviderConnection(provider, LOCALHOST, clock=clock)
    a = WordConnector(width, name="A")
    b = WordConnector(width, name="B")
    o = WordConnector(2 * width, name="O")
    ina = PatternPrimaryInput(width, [p[0] for p in patterns], a,
                              name="INA")
    inb = PatternPrimaryInput(width, [p[1] for p in patterns], b,
                              name="INB")
    mult = MultFastLowPower(width, a, b, o, connection, name="MULT")
    out = PrimaryOutput(2 * width, o, name="OUT")
    circuit = Circuit(ina, inb, mult, out, name="table1")

    billing = BillingAccount(owner="table1")
    setup = SetupController(name=f"table1-{estimator}", billing=billing)
    setup.set(AVERAGE_POWER, ByName(estimator))
    setup.apply(circuit)

    controller = SimulationController(circuit, setup=setup, clock=clock)
    controller.start()
    if estimator == "gate-level-toggle":
        estimates = mult.collect_power(controller.context)
    else:
        estimates = [float(v) for v in
                     setup.results.series("MULT", AVERAGE_POWER.name)]
    clock.sync()
    cpu = clock.cpu
    controller.teardown()
    return estimates, billing.total, cpu


def run_table1(width: int = 8, eval_patterns: int = 150,
               seed: int = 11) -> List[Table1Row]:
    """Regenerate Table 1: declared + measured scores for each estimator."""
    provider = _table1_provider(width)
    patterns = heterogeneous_patterns(width, eval_patterns, seed=seed)

    # The experimenter's oracle: the provider's silicon reference,
    # replayed over the evaluation stimulus.
    netlist = provider.private_netlist("MultFastLowPower")
    silicon = SiliconReference(netlist, seed=provider.seed)
    truths = silicon.power_of_sequence(
        [operands_to_inputs(p, ("a", "b"), (width, width))
         for p in patterns])
    mean_true = sum(truths) / len(truths)

    # Baseline cpu without any estimation, to isolate per-pattern cost.
    baseline_estimates, _fee, baseline_cpu = _run_with_estimator(
        provider, "null-baseline", width, patterns)

    rows: List[Table1Row] = []
    for name in ESTIMATOR_NAMES:
        estimates, fee, cpu = _run_with_estimator(provider, name, width,
                                                  patterns)
        if len(estimates) != len(truths):
            raise RuntimeError(
                f"estimator {name!r} produced {len(estimates)} values for "
                f"{len(truths)} patterns")
        errors = [abs(est - true) / mean_true * 100.0
                  for est, true in zip(estimates, truths)]
        avg_error = sum(errors) / len(errors)
        rms_error = math.sqrt(sum(e * e for e in errors) / len(errors))
        rows.append(Table1Row(
            estimator=name,
            avg_error_pct=avg_error,
            rms_error_pct=rms_error,
            cost_cents_per_pattern=fee / len(patterns),
            cpu_s_per_pattern=max(0.0, cpu - baseline_cpu) / len(patterns),
            unpredictable_time=(name == "gate-level-toggle")))
    return rows
