"""Netlists and single gates as backplane modules."""

from itertools import product

import pytest

from repro.core import (BitConnector, Circuit, DesignError, Logic,
                        PatternPrimaryInput, PrimaryOutput, SignalToken,
                        SimulationController, SimulationError, Word,
                        WordConnector)
from repro.gates import (GateLevelModule, LogicGateModule,
                         NetlistSimulator, ripple_carry_adder)
from repro.gates.cells import CELLS


def adder_module(width=4, **kwargs):
    netlist = ripple_carry_adder(width)
    return netlist, GateLevelModule(
        netlist,
        input_map={"a": [f"a{i}" for i in range(width)],
                   "b": [f"b{i}" for i in range(width)]},
        output_map={"s": [f"s{i}" for i in range(width + 1)]},
        name="GLADD", **kwargs)


class TestGateLevelModule:
    def test_word_level_addition(self):
        width = 4
        a, b = WordConnector(width), WordConnector(width)
        s = WordConnector(width + 1)
        netlist, adder = adder_module(width)
        a.attach(adder.port("a"))
        b.attach(adder.port("b"))
        s.attach(adder.port("s"))
        ina = PatternPrimaryInput(width, [3, 9, 15], a, name="INA")
        inb = PatternPrimaryInput(width, [5, 9, 15], b, name="INB")
        out = PrimaryOutput(width + 1, s, name="OUT")
        controller = SimulationController(Circuit(ina, inb, adder, out))
        controller.start()
        values = [v.value for _t, v in out.trace(controller.context)
                  if v.known]
        assert values[-1] == 30
        assert 8 in values and 18 in values

    def test_input_map_must_cover_inputs(self):
        netlist = ripple_carry_adder(2)
        with pytest.raises(DesignError, match="input map"):
            GateLevelModule(netlist, {"a": ["a0", "a1"]},
                            {"s": ["s0", "s1", "s2"]})

    def test_output_map_must_use_primary_outputs(self):
        netlist = ripple_carry_adder(2)
        with pytest.raises(DesignError):
            GateLevelModule(
                netlist,
                {"a": ["a0", "a1"], "b": ["b0", "b1"]},
                {"s": ["fa0_s"]})  # internal net, not a primary output

    def test_energy_trace_accumulates(self):
        width = 4
        a, b = WordConnector(width), WordConnector(width)
        s = WordConnector(width + 1)
        _netlist, adder = adder_module(width, connectors=None)
        a.attach(adder.port("a"))
        b.attach(adder.port("b"))
        s.attach(adder.port("s"))
        ina = PatternPrimaryInput(width, [0, 15, 0, 15], a, name="INA")
        inb = PatternPrimaryInput(width, [0, 15, 0, 15], b, name="INB")
        out = PrimaryOutput(width + 1, s, name="OUT")
        controller = SimulationController(Circuit(ina, inb, adder, out))
        controller.start()
        assert adder.total_energy(controller.context) > 0
        trace = adder.energy_trace(controller.context)
        assert len(trace) > 0

    def test_per_scheduler_engines_are_isolated(self):
        width = 2
        a, b = WordConnector(width), WordConnector(width)
        s = WordConnector(width + 1)
        _netlist, adder = adder_module(width)
        a.attach(adder.port("a"))
        b.attach(adder.port("b"))
        s.attach(adder.port("s"))
        ina = PatternPrimaryInput(width, [1], a, name="INA")
        inb = PatternPrimaryInput(width, [2], b, name="INB")
        out = PrimaryOutput(width + 1, s, name="OUT")
        circuit = Circuit(ina, inb, adder, out)
        first = SimulationController(circuit)
        second = SimulationController(circuit)
        first.start()
        second.start()
        assert out.last_value(first.context) == \
            out.last_value(second.context) == Word(3, width + 1)
        # Independent engines, independent energy traces.
        assert len(adder.energy_trace(first.context)) == \
            len(adder.energy_trace(second.context))

    def test_provider_side_net_view(self):
        width = 2
        a, b = WordConnector(width), WordConnector(width)
        s = WordConnector(width + 1)
        _netlist, adder = adder_module(width)
        a.attach(adder.port("a"))
        b.attach(adder.port("b"))
        s.attach(adder.port("s"))
        ina = PatternPrimaryInput(width, [3], a, name="INA")
        inb = PatternPrimaryInput(width, [1], b, name="INB")
        out = PrimaryOutput(width + 1, s, name="OUT")
        controller = SimulationController(Circuit(ina, inb, adder, out))
        controller.start()
        values = adder.net_values(controller.context)
        assert values["a0"] is Logic.ONE and values["a1"] is Logic.ONE
        assert values["b0"] is Logic.ONE and values["b1"] is Logic.ZERO


class TestLogicGateModule:
    def test_single_gate(self):
        a, b, o = BitConnector(), BitConnector(), BitConnector()
        ina = PatternPrimaryInput(1, [1], a, name="INA")
        inb = PatternPrimaryInput(1, [1], b, name="INB")
        gate = LogicGateModule("NAND", [a, b], o, name="G")
        out = PrimaryOutput(1, o, name="OUT")
        controller = SimulationController(Circuit(ina, inb, gate, out))
        controller.start()
        assert out.last_value(controller.context) is Logic.ZERO

    def test_arity_validation(self):
        with pytest.raises(DesignError):
            LogicGateModule("NOT", [BitConnector(), BitConnector()])

    def test_chained_gates_settle(self):
        a, n1, n2 = BitConnector(), BitConnector(), BitConnector()
        ina = PatternPrimaryInput(1, [0, 1], a, name="INA")
        inv1 = LogicGateModule("NOT", [a], n1, name="G1")
        inv2 = LogicGateModule("NOT", [n1], n2, name="G2")
        out = PrimaryOutput(1, n2, name="OUT")
        controller = SimulationController(Circuit(ina, inv1, inv2, out))
        controller.start()
        values = [v for _t, v in out.trace(controller.context)]
        assert values == [Logic.ZERO, Logic.ONE]


def pin_counts(cell):
    """Every pin count a gate module accepts, up to four for variadic
    cells (three and four have no truth table)."""
    return [cell.arity] if cell.arity is not None else [2, 3, 4]


def one_event(cell_name, values):
    """Prime the pins with ``values``, hand the gate one event on
    ``in0`` and return the controller and what it scheduled."""
    inputs = [BitConnector() for _ in values]
    out = BitConnector()
    gate = LogicGateModule(cell_name, inputs, out, name="G")
    sink = PrimaryOutput(1, out, name="OUT")
    controller = SimulationController(Circuit(gate, sink))
    for connector, value in zip(inputs, values):
        controller.prime(connector, value)
    gate.receive(SignalToken(gate, gate.port("in0"), values[0]),
                 controller.context)
    scheduled = controller.scheduler.pop()
    assert controller.scheduler.empty
    return sink, scheduled


class TestTruthTableEvents:
    """One event reads the pins and indexes the cell's truth table
    (or calls ``evaluate`` from three pins up): the value and delay
    must be exactly what ``cell.evaluate`` and ``cell.delay`` say."""

    @pytest.mark.parametrize("cell_name,pins", [
        (name, pins) for name, cell in CELLS.items()
        for pins in pin_counts(cell)])
    def test_every_cell_every_pin_count_every_input(self, cell_name, pins):
        cell = CELLS[cell_name]
        for values in product(Logic, repeat=pins):
            sink, token = one_event(cell_name, values)
            assert token.target is sink and token.port is sink.port("in")
            assert token.value is cell.evaluate(*values), values
            assert token.time == cell.delay * 1e-3

    def test_three_pin_and_xor_still_evaluate(self):
        one, zero = Logic.ONE, Logic.ZERO
        assert one_event("AND", (one, one, one))[1].value is one
        assert one_event("AND", (one, zero, one))[1].value is zero
        assert one_event("AND", (one, Logic.X, one))[1].value is Logic.X
        assert one_event("XOR", (one, one, one))[1].value is one
        assert one_event("XOR", (one, one, zero))[1].value is zero
        assert one_event("XOR", (one, Logic.Z, zero))[1].value is Logic.X

    def test_an_unconnected_pin_is_named(self):
        a, b = BitConnector(), BitConnector()
        gate = LogicGateModule("AND", [a, b], BitConnector(), name="G")
        controller = SimulationController(Circuit(gate))
        b.detach(gate.port("in1"))
        with pytest.raises(SimulationError, match="G.in1 is not connected"):
            gate.receive(SignalToken(gate, gate.port("in0"), Logic.ONE),
                         controller.context)

    def test_a_non_logic_pin_value_is_refused(self):
        word = WordConnector(1)
        gate = LogicGateModule("NOT", [word], BitConnector(), name="G")
        controller = SimulationController(Circuit(gate))
        controller.prime(word, Word(1, 1))
        with pytest.raises(DesignError, match="needs Logic inputs"):
            gate.receive(SignalToken(gate, gate.port("in0"), Word(1, 1)),
                         controller.context)

    def test_an_unconnected_output_drops_the_value(self):
        gate = LogicGateModule("BUF", [BitConnector()], name="G")
        controller = SimulationController(Circuit(gate))
        gate.receive(SignalToken(gate, gate.port("in0"), Logic.ONE),
                     controller.context)
        assert controller.scheduler.empty

    def test_rewiring_the_output_reaches_the_next_event(self):
        a, first, second = BitConnector(), BitConnector(), BitConnector()
        gate = LogicGateModule("NOT", [a], first, name="G")
        early = PrimaryOutput(1, first, name="EARLY")
        late = PrimaryOutput(1, second, name="LATE")
        controller = SimulationController(Circuit(gate, early, late))
        controller.prime(a, Logic.ZERO)
        first.detach(gate.port("out"))
        second.attach(gate.port("out"))
        gate.receive(SignalToken(gate, gate.port("in0"), Logic.ZERO),
                     controller.context)
        token = controller.scheduler.pop()
        assert token.target is late and token.value is Logic.ONE
