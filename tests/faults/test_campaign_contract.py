"""One contract, every fault simulator.

Whatever a simulator knows (the flat netlist, a provider stub, register
state, launch pairs) its ``run`` returns a ``FaultSimReport`` with the
same bookkeeping.  These assertions are that bookkeeping, stated once
and run against all seven classes; what each class *detects* is pinned
by its own oracle test (see the table in ``docs/faults.md``).
"""

import random

import pytest

from repro.bench import (build_embedded, build_sequential_wrapper,
                         functional_model_of)
from repro.compiled import CompiledFaultSimulator
from repro.core import Logic
from repro.faults import (SequentialSerialFaultSimulator,
                          SequentialVirtualFaultSimulator,
                          SerialFaultSimulator, TestabilityServant,
                          build_fault_list)
from repro.faults.serial import FaultSimReport, run_campaign
from repro.gates import parity_tree

from .test_transition import transition_experiment

PATTERNS = 12


def logic_patterns(nets, seed=3):
    rng = random.Random(seed)
    return [{net: Logic(rng.getrandbits(1)) for net in nets}
            for _ in range(PATTERNS)]


def flat(cls):
    netlist = parity_tree(4)
    return cls(netlist), logic_patterns(netlist.inputs)


def virtual():
    experiment = build_embedded(parity_tree(4))
    return experiment.virtual, experiment.random_patterns(PATTERNS, seed=3)


def sequential(kind):
    ip_netlist = parity_tree(3)
    design = build_sequential_wrapper(ip_netlist)
    fault_list = build_fault_list(ip_netlist)
    if kind == "serial":
        simulator = SequentialSerialFaultSimulator(design, ip_netlist,
                                                   fault_list)
    else:
        simulator = SequentialVirtualFaultSimulator(
            design, TestabilityServant(ip_netlist, fault_list),
            functional_model_of(ip_netlist))
    return simulator, logic_patterns(design.primary_inputs)


def transition(kind):
    experiment, virtual_sim, serial_sim = transition_experiment(
        parity_tree(4))
    patterns = experiment.random_patterns(PATTERNS, seed=3)
    if kind == "serial":
        return serial_sim, experiment.patterns_as_logic(patterns)
    return virtual_sim, patterns


SIMULATORS = {
    "serial": lambda: flat(SerialFaultSimulator),
    "compiled": lambda: flat(CompiledFaultSimulator),
    "virtual": virtual,
    "sequential-serial": lambda: sequential("serial"),
    "sequential-virtual": lambda: sequential("virtual"),
    "transition-serial": lambda: transition("serial"),
    "transition-virtual": lambda: transition("virtual"),
}


@pytest.fixture(params=sorted(SIMULATORS))
def campaign(request):
    """``(simulator, patterns)`` for one simulator class."""
    return SIMULATORS[request.param]()


def same_report(left, right):
    return (left.total_faults == right.total_faults
            and list(left.detected.items()) == list(right.detected.items())
            and left.per_pattern == right.per_pattern)


class TestEveryFaultSimulator:
    def test_no_patterns_detect_nothing(self, campaign):
        simulator, _patterns = campaign
        report = simulator.run([])
        assert report.per_pattern == []
        assert report.detected == {}
        assert report.total_faults > 0
        assert report.coverage == 0.0
        assert report.coverage_history() == []

    def test_dropping_partitions_the_detected_set(self, campaign):
        simulator, patterns = campaign
        report = simulator.run(patterns)
        assert len(report.per_pattern) == len(patterns)
        assert report.detected_count > 0
        seen = set()
        for index, newly in enumerate(report.per_pattern):
            assert not (newly & seen), "a dropped fault was re-detected"
            seen |= newly
            for name in newly:
                assert report.detected[name] == index
        assert seen == set(report.detected)
        assert report.detected_count <= report.total_faults

    def test_coverage_history_is_monotone_and_ends_at_coverage(
            self, campaign):
        simulator, patterns = campaign
        report = simulator.run(patterns)
        history = report.coverage_history()
        assert history == sorted(history)
        assert history[-1] == report.coverage

    def test_an_instance_can_be_run_again(self, campaign):
        """No state leaks from one run into the next (table caches, the
        transition launch pair, register state)."""
        simulator, patterns = campaign
        first = simulator.run(patterns)
        assert same_report(simulator.run(patterns), first)
        shorter = simulator.run(patterns[:3])
        assert shorter.per_pattern == first.per_pattern[:3]


@pytest.mark.parametrize("cls", [SerialFaultSimulator,
                                 CompiledFaultSimulator])
def test_without_dropping_the_last_detection_wins(cls):
    simulator, patterns = flat(cls)
    patterns = patterns * 2  # every detecting pattern recurs
    dropped = simulator.run(patterns)
    kept = simulator.run(patterns, drop_detected=False)
    # Same faults, in first-detection order, but at their last index.
    assert list(kept.detected) == list(dropped.detected)
    for name, last in kept.detected.items():
        holding = [index for index, newly in enumerate(kept.per_pattern)
                   if name in newly]
        assert holding[0] == dropped.detected[name]
        assert holding[-1] == last > dropped.detected[name]
        assert all(simulator.detects(patterns[index], name)
                   for index in holding)


class TestRunCampaign:
    def test_empty_fault_list_is_fully_covered(self):
        report = run_campaign([], [{}], lambda pattern, remaining: [])
        assert report.coverage == 1.0
        assert report.per_pattern == [set()]
        assert report.coverage_history() == [1.0]
        assert FaultSimReport(total_faults=0).coverage == 1.0

    def test_detect_sees_only_what_remains_once_per_pattern(self):
        calls = []

        def detect(pattern, remaining):
            calls.append((pattern, tuple(remaining)))
            return [name for name in remaining if name in pattern]

        report = run_campaign(["a", "b", "c"], ["b", "ab", "c"], detect)
        assert calls == [("b", ("a", "b", "c")), ("ab", ("a", "c")),
                         ("c", ("c",))]
        assert report.detected == {"b": 0, "a": 1, "c": 2}
        assert list(report.detected) == ["b", "a", "c"]
