"""Concurrent remote estimation: sessions keep users and runs apart."""

import pytest

from repro.core import (Circuit, PatternPrimaryInput, PrimaryOutput,
                        RunConfig, SimulationController,
                        SimulationCoordinator, WordConnector)
from repro.estimation import AVERAGE_POWER, ByName, SetupController
from repro.ip import IPProvider, MultFastLowPower, ProviderConnection
from repro.net import LOCALHOST

WIDTH = 5


@pytest.fixture(scope="module")
def provider():
    vendor = IPProvider("concurrent.remote.provider")
    vendor.publish_multiplier(WIDTH, training_patterns=80)
    return vendor


def make_run(provider, pattern_values, session=None):
    connection = ProviderConnection(provider, LOCALHOST, session=session)
    a, b = WordConnector(WIDTH), WordConnector(WIDTH)
    o = WordConnector(2 * WIDTH)
    ina = PatternPrimaryInput(WIDTH, pattern_values, a, name="INA")
    inb = PatternPrimaryInput(WIDTH, [(v + 3) % 32
                                      for v in pattern_values], b,
                              name="INB")
    mult = MultFastLowPower(WIDTH, a, b, o, connection, buffer_size=2,
                            name="MULT")
    out = PrimaryOutput(2 * WIDTH, o, name="OUT")
    circuit = Circuit(ina, inb, mult, out)
    setup = SetupController()
    setup.set(AVERAGE_POWER, ByName("gate-level-toggle"))
    setup.apply(circuit)
    controller = SimulationController(circuit, setup=setup)
    return controller, mult


class TestSessionIsolation:
    def test_two_clients_interleaved(self, provider):
        """Two clients with different stimuli share one provider; their
        accumulated results never mix."""
        first_ctrl, first_mult = make_run(provider, [1, 2, 3, 4])
        second_ctrl, second_mult = make_run(provider, [31, 30, 29, 28])
        thread_a = first_ctrl.start_async()
        thread_b = second_ctrl.start_async()
        thread_a.join(timeout=30)
        thread_b.join(timeout=30)
        first_powers = first_mult.collect_power(first_ctrl.context)
        second_powers = second_mult.collect_power(second_ctrl.context)
        assert len(first_powers) == 4 and len(second_powers) == 4
        assert first_powers != second_powers

    def test_same_stimulus_same_results(self, provider):
        """Determinism across sessions: identical stimulus, identical
        provider responses."""
        first_ctrl, first_mult = make_run(provider, [7, 8, 9])
        second_ctrl, second_mult = make_run(provider, [7, 8, 9])
        first_ctrl.start()
        second_ctrl.start()
        assert first_mult.collect_power(first_ctrl.context) == \
            pytest.approx(second_mult.collect_power(second_ctrl.context))

    def test_rerun_on_same_connection_uses_new_scheduler_session(
            self, provider):
        """Two sequential controllers over ONE module instance get
        distinct provider sessions (keyed by scheduler id), so the
        second run's results do not append to the first's."""
        connection = ProviderConnection(provider, LOCALHOST)
        a, b = WordConnector(WIDTH), WordConnector(WIDTH)
        o = WordConnector(2 * WIDTH)
        ina = PatternPrimaryInput(WIDTH, [1, 2], a, name="INA")
        inb = PatternPrimaryInput(WIDTH, [3, 4], b, name="INB")
        mult = MultFastLowPower(WIDTH, a, b, o, connection,
                                buffer_size=1, name="MULT")
        out = PrimaryOutput(2 * WIDTH, o, name="OUT")
        circuit = Circuit(ina, inb, mult, out)
        for _round in range(2):
            setup = SetupController()
            setup.set(AVERAGE_POWER, ByName("gate-level-toggle"))
            setup.apply(circuit)
            controller = SimulationController(circuit, setup=setup)
            controller.start()
            powers = mult.collect_power(controller.context)
            assert len(powers) == 2  # not 4 on the second round

    def test_coordinated_runs_over_one_connection_keep_their_powers(
            self, provider):
        """Concurrent schedulers share one connection (one connection
        context) but each keeps its own provider session."""
        reference_ctrl, reference_mult = make_run(provider, [1, 2, 3, 4])
        reference_ctrl.start()
        reference = reference_mult.collect_power(reference_ctrl.context)
        controller, mult = make_run(provider, [1, 2, 3, 4])
        coordinator = SimulationCoordinator(controller.circuit)
        names = ["r1", "r2", "r3"]
        coordinator.launch([RunConfig(name, setup=controller.setup)
                            for name in names])
        powers = [mult.collect_power(coordinator.controller(name).context)
                  for name in names]
        assert powers == [pytest.approx(reference)] * 3
