"""The Figure 2 backplane path is a fixed point of the virtual clock.

The sibling of ``tests/faults/test_virtual_fixed_point.py`` for the
paper's first flow: word connectors, fanouts, registers and end-of-
instant estimation tokens, which the pinned fault campaigns never
touch.  Every delivered event charges the client's clock, so a cheaper
event path on the host must move none of these.  The totals were
recorded at the parent commit (cc9d0bc), before ports carried routes.
"""

import pytest

from repro.bench import run_scenario
from repro.net import LOCALHOST, WAN
from repro.parallel.scenarios import reset_session_state

PINNED = {
    ("AL", LOCALHOST): {
        "events": 160, "cpu": 2.560000000000002,
        "wall": 2.560000000000002, "bytes": 0, "round_trips": 0},
    ("ER", WAN): {
        "events": 160, "cpu": 3.051272000000002,
        "wall": 27.395271999999988, "bytes": 5636, "round_trips": 6},
}


@pytest.mark.parametrize("mode,network", list(PINNED),
                         ids=lambda value: getattr(value, "name", value))
def test_scenario_totals_are_the_parents(mode, network):
    # Session ids reach frame sizes and so the ER clock.
    reset_session_state()
    row = run_scenario(mode, network, width=8, patterns=20)
    assert {"events": row.events, "cpu": row.cpu, "wall": row.real,
            "bytes": row.remote_bytes,
            "round_trips": row.round_trips} == PINNED[mode, network]
