"""Virtual fault simulation is a fixed point of the virtual clock.

The client's clock is charged per delivered event and per wire byte, so
making the backplane cheaper on the host must move none of these.  The
totals below were recorded at the parent commit (757e932), before the
per-pattern connector snapshot, the cached port views and the
lane-shared table rows; the harness's ``--selfcheck`` pins the same
quantities at full size, outside tier-1.
"""

import hashlib

import pytest

from repro.bench import build_embedded, build_figure4
from repro.core.controller import SimulationController
from repro.core.ids import id_scope
from repro.faults import IPBlockClient
from repro.gates.corpus import load_bench
from repro.ip.component import ProviderConnection
from repro.net.clock import VirtualClock
from repro.net.model import WAN
from repro.rmi import JavaCADServer

from .test_transition import transition_experiment

PATTERNS = 16


def embedded_alu8():
    experiment = build_embedded(load_bench("alu8"), block_name="IP")
    return experiment.virtual, experiment.random_patterns(PATTERNS, seed=1)


def figure4():
    patterns = [dict(zip("ABCD", ((index >> 3) & 1, (index >> 2) & 1,
                                  (index >> 1) & 1, index & 1)))
                for index in range(PATTERNS)]
    return build_figure4(collapse="none").simulator, patterns


def transition_alu8():
    """The transition protocol inherits the stuck-at injection path."""
    experiment, virtual, _serial = transition_experiment(load_bench("alu8"))
    return virtual, experiment.random_patterns(PATTERNS, seed=1)


def campaign(build):
    """Run one campaign over a WAN connection; every pinned quantity.

    ``build`` returns a simulator wired to a local servant; the same
    circuit is re-run here with that servant behind an RMI stub.
    """
    with id_scope():
        local, patterns = build()
        block = local.ip_blocks[0]
        servant = block.stub
        clock = VirtualClock()
        server = JavaCADServer("provider.host.name")
        server.bind("IP.test", servant, servant.REMOTE_METHODS)
        connection = ProviderConnection(server, WAN, clock=clock)
        client = IPBlockClient(
            block.module,
            connection.stub("IP.test", servant.REMOTE_METHODS),
            name=block.name)
        simulator = type(local)(local.circuit, local.inputs,
                                local.outputs, [client], clock=clock)
        runs = []
        start = SimulationController.start

        def counted_start(controller, *args, **kwargs):
            stats = start(controller, *args, **kwargs)
            runs.append(stats.events)
            return stats

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SimulationController, "start", counted_start)
            report = simulator.run(patterns)
        connection.flush()
        clock.sync()
        wire = connection.base_transport.stats
        return {
            "cpu": clock.cpu,
            "wall": clock.wall,
            "injection_runs": simulator.injection_runs,
            "controllers": len(runs),
            "events": sum(runs),
            "bytes_sent": wire.bytes_sent,
            "bytes_received": wire.bytes_received,
            "detected": (len(report.detected),
                         digest(sorted(report.detected.items()))),
        }


def digest(detected):
    return hashlib.sha256(repr(detected).encode()).hexdigest()[:16]


PINNED = {
    embedded_alu8: {
        "cpu": 15.311467999999152, "wall": 406.54746799999833,
        "injection_runs": 124, "controllers": 140, "events": 3424,
        "bytes_sent": 41509, "bytes_received": 55025,
        "detected": (183, "50a3b0d85ab60767")},
    figure4: {
        "cpu": 1.439450000000004, "wall": 24.239449999999973,
        "injection_runs": 12, "controllers": 28, "events": 256,
        "bytes_sent": 2229, "bytes_received": 3096,
        "detected": (36, "e57e3bf0f798dab3")},
    transition_alu8: {
        "cpu": 14.642301999999203, "wall": 352.84630199999776,
        "injection_runs": 117, "controllers": 133, "events": 3284,
        "bytes_sent": 34395, "bytes_received": 48956,
        "detected": (132, "9f29d1174c0408d8")},
}


@pytest.mark.parametrize("build", list(PINNED),
                         ids=lambda build: build.__name__)
def test_campaign_totals_are_the_parents(build):
    measured = campaign(build)
    assert measured == PINNED[build]
    # One scheduler per pattern plus one per injected table row.
    assert measured["controllers"] \
        == PATTERNS + measured["injection_runs"]
