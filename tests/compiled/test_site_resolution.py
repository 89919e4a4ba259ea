"""Each fault's injection site, as a compiled fault simulator resolves it.

:class:`CompiledFaultSimulator` resolves every fault of its list once,
when it is built, with the kernel's ``site_for`` inlined rather than
called through ``ppsfp._injection`` per fault.  Its table must equal
``_injection``'s answers for a whole list and for every subset (a
shard's list); and a fault list cut by ``subset``, which now adopts the
maps it builds instead of copying them, must pickle to the bytes it
did when the constructor copied them.
"""

import hashlib
import pickle

import pytest

from repro.compiled import CompiledFaultSimulator, compile_netlist
from repro.compiled.ppsfp import _injection
from repro.core.errors import FaultSimulationError
from repro.core.signal import Logic
from repro.faults.faultlist import build_fault_list
from repro.faults.model import StuckAtFault
from repro.gates.corpus import load_bench


def injections(netlist, fault_list):
    """Every fault's injection by ``_injection``, in list order."""
    kernel = compile_netlist(netlist)
    return [(name, _injection(kernel, fault))
            for name, fault in fault_list.items()]


@pytest.mark.parametrize("bench", ["c17", "alu8", "mult16"])
@pytest.mark.parametrize("collapse", ["none", "equivalence"])
def test_a_simulators_sites_are_injection_answers(bench, collapse):
    netlist = load_bench(bench)
    full = build_fault_list(netlist, collapse=collapse)
    for fault_list in (full, full.subset(full.names()[1::3]),
                       full.subset(full.names()[::-5])):
        simulator = CompiledFaultSimulator(netlist, fault_list)
        assert list(simulator._sites.items()) \
            == injections(netlist, fault_list)


def test_an_unresolvable_fault_is_refused_when_built():
    netlist = load_bench("c17")
    full = build_fault_list(netlist)
    name, fault = full.items()[0]
    bogus = StuckAtFault(fault.net + "_missing", Logic.ONE)
    fault_list = type(full)(full.component, {name: bogus})
    with pytest.raises(FaultSimulationError, match="no net"):
        CompiledFaultSimulator(netlist, fault_list)


# sha256 prefixes of ``pickle.dumps(list, protocol)`` for the
# equivalence-collapsed list of each bench and its subset over every
# third name, taken when the constructor copied every list's maps.
PICKLES = {
    ("c17", "full"): {2: "65c4af0b5e9d1db1", 4: "c123370337da7c1b",
                      5: "933fd685e6d60785"},
    ("c17", "subset"): {2: "4088af0b4d0fa6e1", 4: "845edb217dde7274",
                        5: "224de9e31260160f"},
    ("figure4", "full"): {2: "bcd1dfc8e86a5aac", 4: "1e4e6f734f1a4190",
                          5: "98bf5b721872acf4"},
    ("figure4", "subset"): {2: "5d4ba448b17ea159", 4: "f094fb113ada9100",
                            5: "809b008453b1c7e6"},
}


@pytest.mark.parametrize("bench,which", sorted(PICKLES))
def test_a_pickle_is_what_the_copying_constructor_made(bench, which):
    netlist = load_bench(bench)
    full = build_fault_list(netlist)
    fault_list = full if which == "full" else full.subset(full.names()[::3])
    CompiledFaultSimulator(netlist, fault_list)
    for protocol, digest in PICKLES[(bench, which)].items():
        data = pickle.dumps(fault_list, protocol=protocol)
        assert hashlib.sha256(data).hexdigest()[:16] == digest
    copy = pickle.loads(data)
    assert copy.items() == fault_list.items()
    assert list(CompiledFaultSimulator(netlist, copy)._sites.items()) \
        == injections(netlist, fault_list)
