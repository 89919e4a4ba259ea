"""Circuits and Design subclasses."""

import pytest

from repro.core import (BitConnector, Circuit, Design, DesignError,
                        ModuleSkeleton, PortDirection, Word,
                        WordConnector, connect)


class Sink(ModuleSkeleton):
    """A module that handles the events its input port reads."""

    def process_input_event(self, token, ctx):
        pass


def chain(width=4, sink=ModuleSkeleton):
    a = ModuleSkeleton("a")
    b = sink("b")
    out = a.add_port("o", PortDirection.OUT, width)
    inp = b.add_port("i", PortDirection.IN, width)
    connector = connect(out, inp)
    return a, b, connector


def found(circuit):
    """Each of a circuit's findings as its (code, target)."""
    return [(item.code, item.target) for item in circuit.findings()]


class TestCircuit:
    def test_needs_modules(self):
        with pytest.raises(DesignError):
            Circuit()

    def test_module_lookup(self):
        a, b, _c = chain()
        circuit = Circuit(a, b)
        assert circuit.module("a") is a
        with pytest.raises(DesignError):
            circuit.module("zzz")

    def test_duplicate_instance_rejected(self):
        a, b, _c = chain()
        with pytest.raises(DesignError, match="twice"):
            Circuit(a, b, a)

    def test_duplicate_name_rejected(self):
        a, _b, _c = chain()
        clone = ModuleSkeleton("a")
        with pytest.raises(DesignError, match="duplicate module name"):
            Circuit(a, clone)

    def test_connectors_enumerated_once(self):
        a, b, connector = chain()
        circuit = Circuit(a, b)
        assert circuit.connectors() == (connector,)

    def test_iteration_and_len(self):
        a, b, _c = chain()
        circuit = Circuit(a, b)
        assert list(circuit) == [a, b]
        assert len(circuit) == 2

    def test_check_flags_dangling_inputs(self):
        module = ModuleSkeleton("m")
        module.add_port("i", PortDirection.IN)
        module.add_port("o", PortDirection.OUT)
        # The dangling output is legal; m reads a port it never handles.
        assert found(Circuit(module)) == [("JCD001", "circuit.m.i"),
                                          ("JCD005", "circuit.m")]

    def test_check_flags_half_connected_nets(self):
        module = ModuleSkeleton("m")
        port = module.add_port("o", PortDirection.OUT)
        BitConnector("lonely").attach(port)
        assert found(Circuit(module)) == [("JCD002", "circuit.lonely")]

    def test_clean_circuit_checks_empty(self):
        a, b, _c = chain(sink=Sink)
        assert Circuit(a, b).findings() == ()

    def test_clear_scheduler_state(self):
        a, b, connector = chain()
        circuit = Circuit(a, b)
        connector.set_value(7, Word(3, 4))
        a._state[7] = {"x": 1}
        circuit.clear_scheduler_state(7)
        assert not connector.get_value(7).known
        assert 7 not in a._state


class TestDesign:
    def test_figure2_style_subclass(self):
        class Example(Design):
            def design(self):
                a, b, _c = chain()
                return Circuit(a, b, name="built")

        example = Example()
        circuit = example.build()
        assert circuit.name == "built"
        assert example.circuit is circuit

    def test_design_assigning_attribute(self):
        class Example(Design):
            def design(self):
                a, b, _c = chain()
                self.circuit = Circuit(a, b)

        assert len(Example().build()) == 2

    def test_design_without_circuit_rejected(self):
        class Broken(Design):
            def design(self):
                return None

        with pytest.raises(DesignError):
            Broken().build()

    def test_base_design_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Design("d").design()
