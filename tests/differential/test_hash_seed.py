"""Marshalled replies and paper statistics do not follow ``PYTHONHASHSEED``.

A reply built by iterating a ``set`` (or a dict filled from one) is
ordered by string hashes, so its marshalled bytes change from one
interpreter to the next while every in-process test stays green: the
two sides of an in-process differential share one hash seed.  One
script therefore runs in two fresh interpreters with different hash
seeds and prints what reaches the wire or a paper table:

* the virtual and serial ``detected`` orders of an ``alu8`` campaign
  (``VirtualFaultSimulator.run`` used to fill ``report.detected`` by
  iterating per-block sets; it now runs through
  ``faults.serial.run_campaign`` like the serial, transition and
  sequential simulators, whose hits come back in remaining-fault-list
  order);
* the sha256 of a fault-farm servant's marshalled ``run_shard`` reply,
  called directly on the servant with no sockets;
* the wire bytes, call and event counts and powers of the ER and MR
  Table 2 scenarios.

Both interpreters must print the same thing.
"""

import functools
import json
import os
import subprocess
import sys

import repro

SCRIPT = """
import hashlib
import json
import random

from repro.bench.faultbench import build_embedded
from repro.bench.scenarios import LOCALHOST, run_scenario
from repro.core.signal import Logic
from repro.faults.faultlist import build_fault_list
from repro.gates.corpus import load_bench
from repro.parallel.remote import FaultFarmServant, pack_rows
from repro.rmi.marshal import marshal

experiment = build_embedded(load_bench("alu8"))
patterns = experiment.random_patterns(6, seed=0)
virtual = experiment.virtual.run(patterns)
serial = experiment.serial.run(experiment.patterns_as_logic(patterns))
prefix = experiment.block_name + ":"

netlist = load_bench("alu8")
rng = random.Random(0)
farm_patterns = [{net: Logic(rng.getrandbits(1)) for net in netlist.inputs}
                 for _ in range(16)]
servant = FaultFarmServant()
servant.begin_campaign("farm1", "alu8", "equivalence", netlist.inputs)
servant.add_patterns("farm1", pack_rows(netlist.inputs, farm_patterns))
reply = servant.run_shard("farm1",
                          list(build_fault_list(netlist).names()))

scenarios = {}
for mode in ("ER", "MR"):
    result = run_scenario(mode, LOCALHOST, width=4, patterns=5,
                          buffer_size=2, collect_powers=True)
    scenarios[mode] = [result.remote_bytes, result.remote_calls,
                       result.events, result.powers]

print(json.dumps({
    "virtual": list(virtual.detected.items()),
    "serial": [[prefix + name, index]
               for name, index in serial.detected.items()],
    "farm_detected": len(reply["report"]["detected"]),
    "farm_sha256": hashlib.sha256(marshal(reply)).hexdigest(),
    "scenarios": scenarios}))
"""


@functools.lru_cache(maxsize=None)
def run_under(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_detected_order_is_hash_seed_independent_and_serial():
    first, second = run_under("1"), run_under("2")
    assert len(first["virtual"]) > 50  # a real campaign, not a stub
    assert first["virtual"] == second["virtual"]
    assert first["virtual"] == first["serial"]


def test_marshalled_replies_are_hash_seed_independent():
    first, second = run_under("1"), run_under("2")
    assert first["farm_detected"] > 50
    assert all(row[3] for row in first["scenarios"].values())
    assert first == second
