"""The Table 1 estimators: characterization and accuracy ordering."""

import math
import random

import pytest

from repro.core import (Circuit, PatternPrimaryInput, PrimaryOutput,
                        SimulationController, WordConnector)
from repro.estimation import AVERAGE_POWER
from repro.gates import array_multiplier
from repro.power import (ConstantPowerEstimator,
                         LinearRegressionPowerEstimator, SiliconReference,
                         ToggleCountModel, characterize_constant,
                         fit_regression, operands_to_inputs,
                         pair_activity)
from repro.rtl import WordMultiplier

WIDTH = 6


@pytest.fixture(scope="module")
def netlist():
    return array_multiplier(WIDTH)


def training_patterns(n=200, seed=5):
    rng = random.Random(seed)
    return [(rng.getrandbits(WIDTH), rng.getrandbits(WIDTH))
            for _ in range(n)]


def silicon_powers(netlist, patterns):
    """The silicon reference's power of each pattern, from a reset."""
    return SiliconReference(netlist).power_of_sequence(
        [operands_to_inputs(p, ("a", "b"), (WIDTH, WIDTH))
         for p in patterns])


class TestCharacterization:
    def test_constant_is_the_training_mean(self, netlist):
        reference = SiliconReference(netlist)
        patterns = training_patterns()
        powers = [reference.power_of_pattern(
            operands_to_inputs(p, ("a", "b"), (WIDTH, WIDTH)))
            for p in patterns]
        estimator = characterize_constant(silicon_powers(netlist, patterns))
        assert estimator._value == pytest.approx(
            sum(powers) / len(powers))

    def test_regression_fit_tracks_activity(self, netlist):
        patterns = training_patterns()
        estimator = fit_regression(silicon_powers(netlist, patterns),
                                   patterns, ("a", "b"))
        assert estimator.slope > 0  # more flips, more power

    def test_regression_beats_constant_on_extreme_activity(self, netlist):
        patterns = training_patterns()
        powers = silicon_powers(netlist, patterns)
        constant = characterize_constant(powers)
        regression = fit_regression(powers, patterns, ("a", "b"))
        # An idle transition (zero activity): constant grossly
        # overestimates, regression predicts near its intercept.
        assert regression.intercept < constant._value


class TestEstimatorsInTheFramework:
    def test_linreg_tracks_port_activity_per_scheduler(self, netlist):
        patterns = training_patterns()
        regression = fit_regression(silicon_powers(netlist, patterns),
                                    patterns, ("a", "b"))
        a, b = WordConnector(WIDTH), WordConnector(WIDTH)
        o = WordConnector(2 * WIDTH)
        pattern_pairs = [(0, 0), (63, 63), (63, 63)]
        ina = PatternPrimaryInput(WIDTH, [p[0] for p in pattern_pairs],
                                  a, name="INA")
        inb = PatternPrimaryInput(WIDTH, [p[1] for p in pattern_pairs],
                                  b, name="INB")
        mult = WordMultiplier(WIDTH, a, b, o, name="MULT")
        mult.add_estimator(regression)
        out = PrimaryOutput(2 * WIDTH, o, name="OUT")
        circuit = Circuit(ina, inb, mult, out)

        from repro.estimation import ByName, SetupController
        setup = SetupController()
        setup.set(AVERAGE_POWER, ByName(regression.name))
        setup.apply(circuit)
        controller = SimulationController(circuit, setup=setup)
        controller.start()
        series = setup.results.series("MULT", AVERAGE_POWER.name)
        assert len(series) == 3
        # (0,0) -> intercept; (63,63) -> intercept + 12*slope; repeat ->
        # intercept again (no flips).
        assert series[0] == pytest.approx(regression.intercept)
        assert series[1] == pytest.approx(
            regression.intercept + 12 * regression.slope)
        assert series[2] == pytest.approx(regression.intercept)

    def test_constant_estimator_metadata(self):
        estimator = ConstantPowerEstimator(0.5)
        assert estimator.parameter == AVERAGE_POWER.name
        assert estimator.cost == 0.0 and not estimator.remote


class TestAccuracyOrdering:
    def test_table1_error_ordering_holds(self, netlist):
        """Constant > regression > calibrated gate-level, in normalized
        average error over a regime-switching stimulus."""
        from repro.bench import heterogeneous_patterns
        from repro.power.toggle import calibrate_toggle_model

        train = heterogeneous_patterns(WIDTH, 250, seed=3)
        evaluation = heterogeneous_patterns(WIDTH, 120, seed=4)

        powers = silicon_powers(netlist, train)
        constant = characterize_constant(powers)
        regression = fit_regression(powers, train, ("a", "b"))
        toggle = ToggleCountModel(netlist)
        scale = calibrate_toggle_model(
            toggle, powers,
            [operands_to_inputs(p, ("a", "b"), (WIDTH, WIDTH))
             for p in train])

        reference = SiliconReference(netlist)
        toggle.reset()
        previous = (0, 0)
        truths, const_err, lin_err, gate_err = [], [], [], []
        for pattern in evaluation:
            inputs = operands_to_inputs(pattern, ("a", "b"),
                                        (WIDTH, WIDTH))
            truth = reference.power_of_pattern(inputs)
            truths.append(truth)
            activity = pair_activity(previous, pattern)
            previous = pattern
            const_err.append(abs(constant._value - truth))
            lin_err.append(abs(regression.intercept
                               + regression.slope * activity - truth))
            gate_err.append(abs(toggle.power_of_pattern(inputs) * scale
                                - truth))
        mean_truth = sum(truths) / len(truths)

        def normalized(errors):
            return sum(errors) / len(errors) / mean_truth * 100

        assert normalized(const_err) > normalized(lin_err) \
            > normalized(gate_err)
