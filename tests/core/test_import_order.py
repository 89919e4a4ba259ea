"""Import order cannot change what a process does.

Packages load their names on first use, so a process holds only the
layers it runs.  That is safe only if every module imports with nothing
loaded before it (no cycle hides behind an eager package), if a served
child stays within its import budget, and if every built-in codec tag
decodes in a process that never imported the module registering it.
Each check runs in a fresh interpreter: the test process has imported
everything long before.
"""

import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.behav.stream import Frame
from repro.core.signal import Logic
from repro.estimation.parameter import AREA, NullValue, ParamValue
from repro.faults.detection import DetectionTable
from repro.rmi.marshal import marshal, unmarshal

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
SRC = os.path.join(ROOT, "src")
HARNESS = os.path.join(ROOT, "benchmarks", "harness")


def run_fresh(code, stdin=None):
    """``code``'s stdout bytes, run by a fresh interpreter on ``src``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                            input=stdin, capture_output=True, env=env,
                            cwd=ROOT, timeout=300)
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_every_module_imports_alone():
    out = run_fresh("""
        import importlib, pkgutil, sys
        import repro
        names = ["repro"] + sorted(
            info.name for info in pkgutil.walk_packages(repro.__path__,
                                                        "repro."))
        failures = []
        for name in names:
            for loaded in [m for m in sys.modules
                           if m == "repro" or m.startswith("repro.")]:
                del sys.modules[loaded]
            try:
                importlib.import_module(name)
            except Exception as exc:
                failures.append(f"{name}: {exc!r}")
        print(len(names))
        print("\\n".join(failures))
    """).decode()
    count, *failures = out.splitlines()
    assert int(count) > 100
    assert [line for line in failures if line] == []


BUDGET_PREAMBLE = f"""
    import sys
    sys.path.insert(0, {HARNESS!r})
"""
PROBE_CHILD = """
    import repro.rmi.server, repro.server
    import child_server
    child_server.probe_session()
"""
FARM_CHILD = """
    import repro.rmi.server, repro.server
    from repro.server.farm import fault_farm_session_factory
    fault_farm_session_factory()()
"""
NOT_LOADED = ("numpy", "repro.bench", "repro.ip", "repro.power")
CLI = """
    import repro.cli
"""


@pytest.mark.parametrize("child, not_loaded", [
    (PROBE_CHILD, NOT_LOADED), (FARM_CHILD, NOT_LOADED),
    (CLI, ("numpy", "repro.ip", "repro.power", "repro.bench.scenarios")),
], ids=["probe", "farm", "cli"])
def test_a_served_child_loads_only_the_layers_it_runs(child, not_loaded):
    """Neither the probe server of the harness, a fault-farm session nor
    the command line that `repro faultworker` starts loads numpy or the
    IP and power layers; the command line needs only the bench layer's
    reporting helpers, the two children no bench layer at all."""
    out = run_fresh(BUDGET_PREAMBLE + child + f"""
    print(sorted(set({not_loaded!r}) & set(sys.modules)))
""")
    assert out.decode().strip() == "[]"


def marshalled_values():
    zero, one = Logic.ZERO, Logic.ONE
    table = DetectionTable("ip1", (zero, one), (one,),
                           {(zero,): ["f0", "f2"], (Logic.X,): ["f1"]})
    return [ParamValue(AREA.name, 12.5, "um2", 0.1, "constant"),
            NullValue(AREA.name), table, Frame([3, -1, 4], rate=2.0)]


def test_a_builtin_codec_tag_decodes_with_only_the_marshaller_loaded():
    blobs = [marshal(value) for value in marshalled_values()]
    out = run_fresh("""
        import pickle, sys
        from repro.rmi.marshal import unmarshal
        owners = {"repro.estimation", "repro.faults", "repro.behav"}
        assert not owners & set(sys.modules), owners & set(sys.modules)
        blobs = pickle.load(sys.stdin.buffer)
        sys.stdout.buffer.write(pickle.dumps([unmarshal(b) for b in blobs]))
    """, stdin=pickle.dumps(blobs))
    decoded = pickle.loads(out)
    assert decoded == [unmarshal(blob) for blob in blobs]
    assert [type(value).__name__ for value in decoded] \
        == ["ParamValue", "NullValue", "DetectionTable", "Frame"]


def test_every_builtin_codec_names_the_module_that_registers_it():
    """The marshaller's owner table covers every ``register_value_type``
    under ``src/repro``: a tag missing from it would decode only in a
    process that happened to import its module first."""
    out = run_fresh("""
        import importlib, pkgutil
        import repro
        marshal = importlib.import_module("repro.rmi.marshal")
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        print(sorted((tag, codec[0].__module__)
                     for tag, codec in marshal._VALUE_CODECS.items()))
        print(sorted(marshal._CODEC_OWNERS.items()))
    """).decode()
    registered, owners = out.splitlines()
    assert registered == owners
