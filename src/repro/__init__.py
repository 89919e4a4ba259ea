"""repro: a Python reproduction of JavaCAD.

JavaCAD (Dalpasso, Benini, Bogliolo -- DAC 1999 / IEEE D&T 2002) is an
Internet-based design environment for IP-based designs: functional
simulation, fault simulation and cost estimation of circuits containing
IP components, with IP protection for both vendors and users.

Package map:

* :mod:`repro.core` -- the event-driven simulation backplane (modules,
  connectors, tokens, schedulers, controllers).
* :mod:`repro.gates` / :mod:`repro.rtl` -- gate- and RT-level model
  libraries, netlists and generators.
* :mod:`repro.rmi` -- the RMI-like distributed-object substrate with
  restricted (IP-protecting) marshalling.
* :mod:`repro.net` -- virtual time and deterministic network models.
* :mod:`repro.estimation` -- parameters, estimators, setup controllers.
* :mod:`repro.power` -- the Table 1 power estimators.
* :mod:`repro.faults` -- detection tables and virtual fault simulation.
* :mod:`repro.ip` -- IP component packaging, providers, billing.
* :mod:`repro.parallel` -- sharded multi-worker fault simulation and
  scenario fan-out over a process pool.
* :mod:`repro.bench` -- harnesses regenerating the paper's tables/figures.

Each subpackage loads on first use (``repro.core``, ``from repro import
net``), so a process loads only the layers it runs, and a marshalled
value decodes in any process: its codec tag names the module that
registers it (:mod:`repro.rmi.marshal`).
"""

from importlib import import_module
from typing import Any, List

__version__ = "1.0.0"

__all__ = ["behav", "bench", "core", "estimation", "faults", "gates",
           "ip", "net", "parallel", "power", "rmi", "rtl", "__version__"]


def __getattr__(name: str) -> Any:
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return import_module(f"{__name__}.{name}")


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
