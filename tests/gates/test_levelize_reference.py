"""``Netlist.levelize()`` keeps the order of the pass-by-pass sweep.

The sweep below was the implementation: pass over the gates in
declaration order, taking every gate whose inputs are ready when the
pass reaches it, until a pass takes nothing.  It costs one pass per
level on a netlist declared against its topological order.  The order
it produces is the event wave's gate priority, so the heap-driven
build must reproduce it exactly, on well-formed netlists and on the
partial orders (loops, undriven reads, a net with two drivers) that
``findings()`` reports.
"""

import random
import time
from typing import List, Sequence, Tuple

import pytest

from repro.gates.cells import cell
from repro.gates.generators import random_netlist
from repro.gates.netlist import Gate, Netlist


def reference_levelized(netlist: Netlist) -> Tuple[Gate, ...]:
    """The old sweep, kept as the oracle."""
    order: List[Gate] = []
    ready = set(netlist.inputs)
    remaining = list(netlist.gates)
    while remaining:
        still: List[Gate] = []
        for gate in remaining:
            if all(source in ready for source in gate.inputs):
                ready.add(gate.output)
                order.append(gate)
            else:
                still.append(gate)
        if len(still) == len(remaining):
            break
        remaining = still
    return tuple(order)


def raw_netlist(inputs: Sequence[str], gates: Sequence[Gate]) -> Netlist:
    """A netlist holding ``gates`` as given: ``add_gate`` refuses a
    second driver, so the declarations are written directly."""
    netlist = Netlist("raw")
    for net in inputs:
        netlist.add_input(net)
    netlist._gates.extend(gates)
    netlist._derived.clear()
    return netlist


def shuffled(netlist: Netlist, rng: random.Random) -> List[Gate]:
    gates = list(netlist.gates)
    rng.shuffle(gates)
    return gates


def mangled(seed: int) -> Netlist:
    """A shuffled random netlist with some gates rewired: an input read
    from a later net (often closing a loop), from an undriven net, or a
    gate driving a net another gate drives."""
    rng = random.Random(seed)
    base = random_netlist(rng.randint(1, 5), rng.randint(1, 40),
                          rng.randint(1, 3), seed=seed)
    gates = shuffled(base, rng)
    outputs = [gate.output for gate in gates]
    for _ in range(rng.randint(1, 4)):
        index = rng.randrange(len(gates))
        gate = gates[index]
        kind = rng.choice(("loop", "undriven", "second driver"))
        if kind == "second driver":
            gates[index] = Gate(gate.name, gate.cell, gate.inputs,
                                rng.choice(outputs))
            continue
        source = rng.choice(outputs) if kind == "loop" else "ghost"
        inputs = list(gate.inputs)
        inputs[rng.randrange(len(inputs))] = source
        gates[index] = Gate(gate.name, gate.cell, tuple(inputs),
                            gate.output)
    return raw_netlist(base.inputs, gates)


def names(gates: Sequence[Gate]) -> List[str]:
    return [gate.name for gate in gates]


@pytest.mark.parametrize("seed", range(400))
def test_a_shuffled_random_netlist_levelizes_as_the_sweep_did(seed):
    rng = random.Random(seed)
    base = random_netlist(rng.randint(1, 6), rng.randint(1, 60),
                          rng.randint(1, 4), seed=seed)
    netlist = raw_netlist(base.inputs, shuffled(base, rng))
    order = netlist.levelize()
    assert len(order) == netlist.gate_count()
    assert names(order) == names(reference_levelized(netlist))


@pytest.mark.parametrize("seed", range(200))
def test_a_partial_order_is_the_sweeps_partial_order(seed):
    netlist = mangled(seed)
    assert names(netlist._build_levelized()) == \
        names(reference_levelized(netlist))


def test_gates_behind_a_loop_or_an_undriven_net_stay_unordered():
    buf, and2 = cell("BUF"), cell("AND")
    gates = [
        Gate("behind", buf, ("y",), "z"),     # reads the loop
        Gate("x", and2, ("a", "y"), "x"),     # x and y close a loop
        Gate("y", buf, ("x",), "y"),
        Gate("ghost", buf, ("nowhere",), "g"),
        Gate("late", buf, ("m",), "late"),    # declared before its driver
        Gate("m", buf, ("a",), "m"),
    ]
    netlist = raw_netlist(["a"], gates)
    assert names(netlist._build_levelized()) == ["m", "late"] == \
        names(reference_levelized(netlist))


def test_a_net_with_two_drivers_is_ready_at_its_first_driver():
    buf = cell("BUF")
    gates = [
        Gate("reader", buf, ("n",), "r"),
        Gate("first", buf, ("a",), "n"),
        Gate("chain", buf, ("r",), "c"),
        Gate("second", buf, ("b",), "n"),
        Gate("reader2", buf, ("n",), "r2"),
    ]
    netlist = raw_netlist(["a", "b"], gates)
    order = names(netlist._build_levelized())
    assert order == names(reference_levelized(netlist))
    assert order == ["first", "second", "reader2", "reader", "chain"]


def test_a_chain_declared_output_first_levelizes_in_linear_time():
    """The sweep took one pass per gate here: 7.6 s at 4 000 gates."""
    netlist = Netlist("chain")
    netlist.add_input("n0")
    size = 4000
    for index in range(size, 0, -1):
        netlist.add_gate("BUF", [f"n{index - 1}"], f"n{index}",
                         name=f"b{index}")
    netlist.add_output(f"n{size}")
    begin = time.perf_counter()
    order = netlist.levelize()
    elapsed = time.perf_counter() - begin
    assert names(order) == [f"b{index}" for index in range(1, size + 1)]
    assert elapsed < 0.5
