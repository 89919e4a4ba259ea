"""Toggle-count power model and the silicon reference."""

import pytest

from repro.core.signal import Logic
from repro.gates import Netlist, array_multiplier
from repro.power import SiliconReference, ToggleCountModel
from repro.power.constant import operands_to_inputs
from repro.power.toggle import calibrate_toggle_model


def buffer_netlist():
    netlist = Netlist("buf")
    netlist.add_input("a")
    netlist.add_output("o")
    netlist.add_gate("BUF", ["a"], "o", name="g")
    netlist.validate()
    return netlist


class TestToggleCountModel:
    def test_energy_of_single_toggle(self):
        netlist = buffer_netlist()
        model = ToggleCountModel(netlist)
        # First pattern establishes 0; flipping to 1 toggles the buffer.
        assert model.energy_of_pattern({"a": Logic.ZERO}) == 0.0
        energy = model.energy_of_pattern({"a": Logic.ONE})
        assert energy == pytest.approx(netlist.gates[0].cell.energy)

    def test_no_toggle_no_energy(self):
        model = ToggleCountModel(buffer_netlist())
        model.energy_of_pattern({"a": Logic.ONE})
        assert model.energy_of_pattern({"a": Logic.ONE}) == 0.0

    def test_power_scales_with_frequency(self):
        slow = ToggleCountModel(buffer_netlist(), frequency=1e6)
        fast = ToggleCountModel(buffer_netlist(), frequency=2e6)
        assert fast.power_of_pattern({"a": Logic.ONE}) == pytest.approx(
            2 * slow.power_of_pattern({"a": Logic.ONE}))

    def test_reset_restarts_sequence(self):
        model = ToggleCountModel(buffer_netlist())
        model.energy_of_pattern({"a": Logic.ONE})
        model.reset()
        # After reset the model re-settles at zero, so a 1 toggles again.
        assert model.energy_of_pattern({"a": Logic.ONE}) > 0

    def test_sequence_helper(self):
        model = ToggleCountModel(buffer_netlist())
        powers = model.power_of_sequence(
            [{"a": Logic.ONE}, {"a": Logic.ONE}, {"a": Logic.ZERO}])
        assert powers[0] > 0 and powers[1] == 0 and powers[2] > 0

    def test_activity_dependence_on_multiplier(self):
        netlist = array_multiplier(4)
        model = ToggleCountModel(netlist)
        idle = model.power_of_sequence(
            [operands_to_inputs((5, 5), ("a", "b"), (4, 4))] * 4)
        model.reset()
        busy = model.power_of_sequence(
            [operands_to_inputs((p % 16, (p * 7) % 16), ("a", "b"),
                                (4, 4)) for p in range(4)])
        assert sum(busy) > sum(idle)


class TestSiliconReference:
    def test_deterministic_for_seed(self):
        netlist = array_multiplier(4)
        pattern = operands_to_inputs((9, 12), ("a", "b"), (4, 4))
        first = SiliconReference(netlist, seed=1).power_of_pattern(pattern)
        second = SiliconReference(netlist,
                                  seed=1).power_of_pattern(pattern)
        assert first == pytest.approx(second)

    def test_different_seeds_differ(self):
        netlist = array_multiplier(4)
        pattern = operands_to_inputs((9, 12), ("a", "b"), (4, 4))
        first = SiliconReference(netlist, seed=1).power_of_pattern(pattern)
        second = SiliconReference(netlist,
                                  seed=2).power_of_pattern(pattern)
        assert first != pytest.approx(second)

    def test_leakage_floor(self):
        netlist = array_multiplier(4)
        reference = SiliconReference(netlist, leakage_fj=40.0)
        zero = operands_to_inputs((0, 0), ("a", "b"), (4, 4))
        reference.power_of_pattern(zero)
        # Idle pattern: dynamic energy zero, leakage remains.
        assert reference.energy_of_pattern(zero) == pytest.approx(40.0)

    def test_exceeds_pure_toggle_count(self):
        """Short-circuit + glitching systematically exceed the bare
        toggle energy (which is why calibration is needed)."""
        netlist = array_multiplier(4)
        reference = SiliconReference(netlist, leakage_fj=0.0)
        toggle = ToggleCountModel(netlist)
        patterns = [operands_to_inputs(((3 * i) % 16, (5 * i + 1) % 16),
                                       ("a", "b"), (4, 4))
                    for i in range(30)]
        assert sum(reference.power_of_sequence(patterns)) > \
            sum(toggle.power_of_sequence(patterns))


class TestCalibration:
    def test_calibration_removes_bias(self):
        netlist = array_multiplier(4)
        patterns = [operands_to_inputs(((7 * i) % 16, (3 * i + 2) % 16),
                                       ("a", "b"), (4, 4))
                    for i in range(60)]
        toggle = ToggleCountModel(netlist)
        reference = SiliconReference(netlist)
        scale = calibrate_toggle_model(
            toggle, reference.power_of_sequence(patterns), patterns)
        assert scale > 1.0  # silicon draws more than the bare count
        toggle.reset()
        reference.reset()
        estimated = sum(toggle.power_of_sequence(patterns)) * scale
        measured = sum(reference.power_of_sequence(patterns))
        assert estimated == pytest.approx(measured, rel=0.02)

    def test_zero_model_power_is_safe(self):
        netlist = buffer_netlist()
        toggle = ToggleCountModel(netlist)
        reference = SiliconReference(netlist)
        # Constant patterns: no toggles at all.
        patterns = [{"a": Logic.ZERO}] * 3
        scale = calibrate_toggle_model(
            toggle, reference.power_of_sequence(patterns), patterns)
        assert scale == 1.0
