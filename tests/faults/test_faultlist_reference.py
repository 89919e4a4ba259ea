"""``build_fault_list`` exports what the name-keyed builder exported.

The live builder numbers the universe and collapses over integer
indices; ``reference_faultlist.py`` keeps the builder that keyed a
union-find by fault name and looked pin faults up through a site map.
On every netlist whose fault names are distinct the two must agree on
the names in order, each name's representative, each class's members
in order and the universe size, in every collapse mode, plain and
obfuscated.  The faults the live builder makes without the checked
constructor must be indistinguishable from checked ones.
"""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import FaultSimulationError, Logic
from repro.faults import build_fault_list, enumerate_faults
from repro.gates import Netlist, load_bench
from repro.gates.cells import CELLS
from repro.gates.generators import random_netlist

from . import reference_faultlist

MODES = ("none", "equivalence", "dominance")
TWO_INPUT = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR")


def exported(fault_list):
    """Everything a fault list exports, in order."""
    return ([(name, fault_list.fault(name),
              fault_list.class_of(name)) for name in fault_list.names()],
            fault_list.universe_size())


@st.composite
def netlists(draw):
    """A ``random_netlist`` with a tail that holds one gate of every
    cell kind, a NOT/BUF chain and a gate reading one net on two pins,
    each tail net drawn to be a primary output or not."""
    netlist = random_netlist(draw(st.integers(1, 5)),
                             draw(st.integers(1, 24)),
                             draw(st.integers(1, 3)),
                             seed=draw(st.integers(0, 2 ** 16)))
    available = list(netlist.nets())
    pick = st.sampled_from(available)
    tail = [(cell, [draw(pick), draw(pick)]) for cell in TWO_INPUT]
    twin = draw(pick)
    tail.append((draw(st.sampled_from(TWO_INPUT)), [twin, twin]))
    chain = draw(pick)
    for cell in draw(st.lists(st.sampled_from(["NOT", "BUF"]),
                              min_size=2, max_size=5)):
        tail.append((cell, [chain]))
        chain = f"t{len(tail) - 1}"
    for index, (cell, sources) in enumerate(tail):
        netlist.add_gate(cell, sources, f"t{index}", name=f"tg{index}")
        if draw(st.booleans()):
            netlist.add_output(f"t{index}")
    netlist.validate()
    return netlist


@given(netlists(), st.sampled_from(MODES), st.booleans())
def test_live_builder_matches_the_reference(netlist, mode, obfuscate):
    assert exported(build_fault_list(netlist, mode, obfuscate)) \
        == exported(reference_faultlist.build_fault_list(
            netlist, mode, obfuscate))


@given(netlists())
def test_enumeration_matches_the_reference(netlist):
    assert enumerate_faults(netlist) \
        == reference_faultlist.enumerate_faults(netlist)


@pytest.mark.parametrize("bench", ["c17", "alu8", "mult8"])
def test_unchecked_faults_are_checked_faults(bench):
    netlist = load_bench(bench)
    live = enumerate_faults(netlist)
    checked = reference_faultlist.enumerate_faults(netlist)
    assert len(live) == len(checked)
    for fault, twin in zip(live, checked):
        assert fault == twin
        assert hash(fault) == hash(twin)
        assert pickle.dumps(fault) == pickle.dumps(twin)
        assert pickle.loads(pickle.dumps(fault)) == twin
        assert vars(fault) == vars(twin)
        assert type(fault.value) is Logic


def test_every_cell_kind_is_drawn():
    assert set(CELLS) == set(TWO_INPUT) | {"NOT", "BUF"}


def clashing_netlist() -> Netlist:
    """Net ``a->g1.0`` is named like the branch of ``a`` at ``g1`` pin 0."""
    netlist = Netlist("clash")
    netlist.add_input("a")
    netlist.add_gate("BUF", ["a"], "x", name="g1")
    netlist.add_gate("BUF", ["a"], "y", name="g2")
    netlist.add_gate("NOT", ["x"], "a->g1.0", name="g3")
    netlist.add_output("y")
    netlist.add_output("a->g1.0")
    netlist.validate()
    return netlist


class TestRefusals:
    @pytest.mark.parametrize("mode", MODES)
    def test_two_faults_sharing_a_name_are_refused(self, mode):
        netlist = clashing_netlist()
        assert len(enumerate_faults(netlist)) == 12
        with pytest.raises(FaultSimulationError) as caught:
            build_fault_list(netlist, collapse=mode)
        message = str(caught.value)
        assert "'a->g1.0sa0'" in message
        assert "stem of net 'a->g1.0'" in message
        assert "branch of net 'a' at gate 'g1' pin 0" in message

    @pytest.mark.parametrize("build", [build_fault_list, enumerate_faults])
    def test_a_sequential_bench_points_at_its_core(self, build):
        bench = load_bench("s27")
        with pytest.raises(FaultSimulationError, match=r"bench\.core"):
            build(bench)
        assert len(build(bench.core)) > 0
