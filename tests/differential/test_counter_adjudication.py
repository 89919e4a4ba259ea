"""Two module-level counters never shape the wire.

``repro.estimation.setup._setup_ids`` and
``repro.parallel.remote._pool_nonces`` are process-wide sequences
rather than ids drawn from the ``IdScope``: their values are claimed
never to shape marshalled bytes (setup wire paths pass explicit
names; pool nonces are opaque local task keys), so concurrent tenants
may share them.  These tests prove that claim by advancing each
counter far between two otherwise identical runs and asserting the
observable outputs are byte-identical.  If either counter ever starts
leaking into wire traffic, the id must be drawn from the ``IdScope``
instead -- and this test will say so first.
"""

import random

from repro.bench.scenarios import LOCALHOST, run_scenario
from repro.core.signal import Logic
from repro.estimation import setup as estimation_setup
from repro.faults.faultlist import build_fault_list
from repro.parallel import diff_reports, remote
from repro.parallel.remote import remote_fault_simulate, resolve_bench
from repro.parallel.scenarios import reset_session_state
from tests.parallel.test_remote import fault_farm


def _burn(counter, steps):
    for _ in range(steps):
        next(counter)


def _er_scenario():
    # reset_session_state installs a fresh default IdScope (whose ids
    # legitimately shape frame bytes) so the only state differing
    # between the two runs is the counter under test.
    reset_session_state()
    return run_scenario("ER", LOCALHOST, width=4, patterns=5,
                        buffer_size=2)


class TestSetupIdsWaiver:
    def test_setup_ids_never_reach_the_wire(self):
        baseline = _er_scenario()
        _burn(estimation_setup._setup_ids, 500)
        advanced = _er_scenario()
        assert advanced.remote_bytes == baseline.remote_bytes
        assert advanced.remote_calls == baseline.remote_calls
        assert advanced.events == baseline.events

    def test_setup_ids_only_shape_the_default_name(self):
        # The counter exists purely to synthesize default names for
        # anonymous controllers; explicit names bypass it entirely.
        anonymous = estimation_setup.SetupController()
        named = estimation_setup.SetupController(name="er-setup")
        assert anonymous.name == f"setup{anonymous.setup_id}"
        assert named.name == "er-setup"


class TestPoolNoncesWaiver:
    def _campaign(self, patterns=12, seed=3):
        netlist = resolve_bench("figure4")
        fault_list = build_fault_list(netlist)
        rng = random.Random(seed)
        pattern_set = [{net: Logic(rng.getrandbits(1))
                        for net in netlist.inputs}
                       for _ in range(patterns)]
        return netlist, fault_list, pattern_set

    def test_pool_nonces_never_reach_the_report(self):
        _netlist, _faults, patterns = self._campaign()
        with fault_farm(1) as (endpoints, _):
            baseline = remote_fault_simulate("figure4", patterns,
                                             endpoints)
        _burn(remote._pool_nonces, 1000)
        with fault_farm(1) as (endpoints, _):
            advanced = remote_fault_simulate("figure4", patterns,
                                             endpoints)
        assert diff_reports(advanced, baseline) == []
