"""The virtual report's ``detected`` order is the fault list's, not a hash's.

``VirtualFaultSimulator.run`` used to fill ``report.detected`` by
iterating per-block sets, so ``list(report.detected.items())`` -- and
the bytes ``report_to_wire`` marshals -- followed ``PYTHONHASHSEED``.
It now runs through ``faults.serial.run_campaign`` like the serial,
transition and sequential simulators, whose hits come back in
remaining-fault-list order.
"""

import json
import os
import subprocess
import sys

import repro

SCRIPT = """
import json
from repro.bench.faultbench import build_embedded
from repro.gates.corpus import load_bench

experiment = build_embedded(load_bench("alu8"))
patterns = experiment.random_patterns(6, seed=0)
virtual = experiment.virtual.run(patterns)
serial = experiment.serial.run(experiment.patterns_as_logic(patterns))
prefix = experiment.block_name + ":"
print(json.dumps({
    "virtual": list(virtual.detected.items()),
    "serial": [[prefix + name, index]
               for name, index in serial.detected.items()]}))
"""


def detected_orders(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_detected_order_is_hash_seed_independent_and_serial():
    first, second = detected_orders("1"), detected_orders("2")
    assert len(first["virtual"]) > 50  # a real campaign, not a stub
    assert first["virtual"] == second["virtual"]
    assert first["virtual"] == first["serial"]
