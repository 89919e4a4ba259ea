"""Servant contracts, checked by running the servants.

The paper lets only port-local values cross the RMI channel and has
providers export opaque names.  These tests call every servant class
of ``repro`` (every class that declares ``REMOTE_METHODS``) through a
real provider server, record each reply where the server dispatches
it, and check three contracts:

1. every reply marshals, and no string in it carries a *private
   identifier* -- a gate or net name of a published netlist that is no
   port name -- as a whole ``[A-Za-z0-9_]+`` token;
2. every method of :data:`repro.rmi.caching.PURE_METHODS` a servant
   exposes answers a repeated call with the same bytes and leaves
   ``vars(servant)`` as it was, so a cached reply never goes stale;
3. every ``PURE_METHODS`` name is a remote method of some servant.

The seeded-defect servants at the bottom show that each check catches
the defect it exists for.
"""

import importlib
import inspect
import json
import pkgutil
import re
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List

import pytest

import repro
from repro.bench import build_figure4, scenarios
from repro.bench.faultbench import build_embedded
from repro.core import Logic, MarshalError, RemoteError
from repro.faults import DetectionTable, TestabilityServant
from repro.faults.faultlist import build_fault_list
from repro.faults.transition import (TransitionFaultList,
                                     TransitionTestabilityServant)
from repro.gates import ip1_block
from repro.gates.corpus import load_bench
from repro.gates.netlist import Netlist
from repro.ip import (InteractiveNegotiation, IPProvider, LicenseServant,
                      NegotiationServant, ProviderConnection,
                      TestSequenceVault, buy_test_sequence)
from repro.net import LOCALHOST
from repro.parallel.remote import (FAULT_FARM_OBJECT, pack_rows,
                                   register_fault_farm)
from repro.rmi import JavaCADServer, RemoteStub
from repro.rmi.caching import PURE_METHODS
from repro.rmi.marshal import marshal

TOKEN = re.compile(r"[A-Za-z0-9_]+")
WIDTH = 4
MULT = "MultFastLowPower"
BENCH = "alu8"
FIGURE4_PATTERNS = [{"A": a, "B": b, "C": c, "D": d}
                    for a in (0, 1) for b in (0, 1)
                    for c in (0, 1) for d in (0, 1)]


# ---------------------------------------------------------------------------
# The three checks
# ---------------------------------------------------------------------------

def servant_classes() -> List[type]:
    """Every class of ``repro`` that declares ``REMOTE_METHODS``."""
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        found.extend(cls for cls in vars(module).values()
                     if inspect.isclass(cls)
                     and cls.__module__ == module.__name__
                     and "REMOTE_METHODS" in vars(cls))
    return found


def private_identifiers(netlists) -> FrozenSet[str]:
    """Gate and net names of ``netlists`` that are no port of any."""
    names, ports = set(), set()
    for netlist in netlists:
        names.update(gate.name for gate in netlist.gates)
        names.update(netlist.nets())
        ports.update(netlist.inputs + netlist.outputs)
    return frozenset(names - ports)


def record_replies(server: JavaCADServer) -> list:
    """Wrap ``server.dispatch``; every call it serves appends
    ``(request, reply, servant)`` to the returned list."""
    log: list = []
    dispatch = server.dispatch

    def recording(request, *args, **kwargs):
        reply = dispatch(request, *args, **kwargs)
        servant = (server.registry.lookup(request.object_name).servant
                   if request.object_name in server.registry.names()
                   else None)
        log.append((request, reply, servant))
        return reply

    server.dispatch = recording
    return log


def strings(tree: Any):
    """Every string of a decoded wire tree, keys included."""
    if isinstance(tree, str):
        yield tree
    elif isinstance(tree, dict):
        for key, value in tree.items():
            yield key
            yield from strings(value)
    elif isinstance(tree, list):
        for item in tree:
            yield from strings(item)


def reply_violations(log: list, private: FrozenSet[str]) -> List[str]:
    """``object.method: problem`` for each reply breaking contract 1."""
    found = []
    for request, reply, _servant in log:
        where = f"{request.object_name}.{request.method}"
        try:
            wire = json.loads(reply.encode())
        except MarshalError as exc:
            found.append(f"{where}: does not marshal ({exc})")
            continue
        leaked = private.intersection(
            token for text in strings(wire) for token in TOKEN.findall(text))
        if leaked:
            found.append(f"{where}: carries {len(leaked)} private "
                         f"identifier(s), e.g. {sorted(leaked)[:3]}")
    return found


def fingerprint(value: Any) -> Any:
    """``value`` with builtin containers walked and every other object
    reduced to its identity."""
    if isinstance(value, (str, bytes, int, float, type(None))):
        return value
    if isinstance(value, dict):
        return ("dict", tuple((fingerprint(key), fingerprint(item))
                              for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,
                tuple(fingerprint(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return ("set", frozenset(fingerprint(item) for item in value))
    return ("object", id(value))


def _bits(servant: Any, value: Logic) -> List[Logic]:
    return [value] * len(servant.netlist.inputs)


PURE_ARGS = {
    ("CatalogServant", "list_components"): lambda servant: (),
    ("CatalogServant", "describe"): lambda servant: (MULT,),
    ("TimingServant", "output_timing"): lambda servant: (),
    ("FunctionalServant", "evaluate"): lambda servant: ({"a": 3, "b": 5},),
    ("BenchFunctionalServant", "evaluate"):
        lambda servant: ([1] * len(servant.netlist.inputs),),
    ("TestabilityServant", "fault_list"): lambda servant: (),
    ("TestabilityServant", "detection_table"):
        lambda servant: (_bits(servant, Logic.ONE), servant.fault_list()),
    ("TransitionTestabilityServant", "fault_list"): lambda servant: (),
    ("TransitionTestabilityServant", "detection_table"):
        lambda servant: (_bits(servant, Logic.ZERO),
                         _bits(servant, Logic.ONE), servant.fault_list()),
    ("ImpureCatalogServant", "describe"): lambda servant: ("IP1",),
}
"""The arguments of one call to each pure method a servant exposes."""


def purity_violations(servant: Any) -> List[str]:
    """``Class.method: problem`` for each pure method breaking
    contract 2.  The first call warms lazy kernels; the second must
    repeat its bytes and leave ``vars(servant)`` as it found it."""
    found = []
    name = type(servant).__name__
    for method in sorted(PURE_METHODS.intersection(servant.REMOTE_METHODS)):
        args = PURE_ARGS[name, method](servant)
        call = getattr(servant, method)
        first = marshal(call(*args))
        before = {key: fingerprint(value)
                  for key, value in vars(servant).items()}
        second = marshal(call(*args))
        after = {key: fingerprint(value)
                 for key, value in vars(servant).items()}
        changed = sorted(key for key in before.keys() | after.keys()
                         if before.get(key, before) != after.get(key, before))
        if changed:
            found.append(f"{name}.{method}: changes {', '.join(changed)}")
        if first != second:
            found.append(f"{name}.{method}: answers a repeat differently")
    return found


# ---------------------------------------------------------------------------
# The recorded traffic
# ---------------------------------------------------------------------------

@dataclass
class Audit:
    """One provider's recorded replies and what they were checked for."""

    provider: IPProvider
    log: list
    private: FrozenSet[str]
    reports: Dict[str, Any]


def publish(obfuscate: bool) -> IPProvider:
    """The Figure 2 multiplier and Figure 4's IP1, both published."""
    provider = IPProvider("contracts.provider")
    provider.publish_multiplier(WIDTH, obfuscate_faults=obfuscate)
    provider.publish_netlist_component(ip1_block(), "IP1", ("IIP",), (2,),
                                       obfuscate_faults=obfuscate)
    return provider


def run_campaigns(provider: IPProvider) -> Dict[str, Any]:
    """Figure 4's virtual fault campaign and the multiplier's, each
    through its published ``.test`` stub; the two reports."""
    connection = ProviderConnection(provider, LOCALHOST)
    figure4 = build_figure4(stub=connection.stub(
        "IP1.test", TestabilityServant.REMOTE_METHODS))
    # The user-side design around the multiplier is built from its
    # functional model; only the stub reaches the provider.
    embedded = build_embedded(provider.private_netlist(MULT),
                              block_name="MULT")
    embedded.virtual.ip_blocks[0].stub = connection.stub(
        f"{MULT}.test", TestabilityServant.REMOTE_METHODS)
    return {"IP1": figure4.simulator.run(FIGURE4_PATTERNS),
            MULT: embedded.virtual.run(embedded.random_patterns(12))}


def bind_extras(provider: IPProvider) -> None:
    """Bind the servants a publish does not: sales, negotiation, the
    transition protocol, a corpus bench and the fault farm."""
    server = provider.server
    multiplier = provider.private_netlist(MULT)
    ip1 = provider.private_netlist("IP1")
    for name, servant in (
            (f"{MULT}.license",
             LicenseServant(multiplier, 500.0, "vendor-secret")),
            (f"{MULT}.negotiation", NegotiationServant(list_price=0.10)),
            ("IP1.vault", TestSequenceVault(ip1, random_patterns=4)),
            ("IP1.transition", TransitionTestabilityServant(
                ip1, TransitionFaultList("IP1", netlist=ip1,
                                         obfuscate=True)))):
        server.bind(name, servant, servant.REMOTE_METHODS)
    provider.publish_bench(BENCH)
    register_fault_farm(server)


def drive_servants(provider: IPProvider) -> None:
    """Call every remote method once or more, bad arguments included.

    The ``.test`` servant of the corpus bench is left out: a bench is
    published under its structural fault names (ROADMAP 9(b)).  So is a
    paid licence purchase: it sells the implementation, by contract.
    """
    connection = ProviderConnection(provider, LOCALHOST)
    stub = connection.stub
    for component in connection.list_components():
        connection.describe(component)
    stub(f"{MULT}.timing", ("output_timing",)).output_timing()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "shared_provider",
                      lambda *args, **kwargs: provider)
        for mode in ("ER", "MR"):
            scenarios.run_scenario(mode, width=WIDTH, patterns=6)

    negotiation = stub(f"{MULT}.negotiation",
                       NegotiationServant.REMOTE_METHODS)
    InteractiveNegotiation(negotiation, volume=2000).negotiate(0.07)
    vault = stub("IP1.vault", TestSequenceVault.REMOTE_METHODS)
    buy_test_sequence(vault, "buyer", budget=1000.0)
    vault.revenue()
    license_ = stub(f"{MULT}.license", LicenseServant.REMOTE_METHODS)
    license_.quote()
    license_.verify({"component": MULT, "buyer": "mallory",
                     "key": "0" * 64})

    transition = stub("IP1.transition",
                      TransitionTestabilityServant.REMOTE_METHODS)
    transition.detection_table([Logic.ZERO] * 2, [Logic.ONE] * 2,
                               transition.fault_list())
    width = connection.describe(BENCH)["inputs"]
    zeros, ones = [0] * width, [1] * width
    power = stub(f"{BENCH}.power", ("reset", "power_of_bits",
                                    "power_buffer", "mark_bits",
                                    "fetch_results"))
    power.power_of_bits("s", zeros)
    power.power_buffer("s", [ones, zeros])
    power.mark_bits("s", ones)
    power.fetch_results("s")
    power.reset("s")
    stub(f"{BENCH}.module", ("evaluate",)).evaluate(ones)
    stub(f"{BENCH}.timing", ("output_timing",)).output_timing()

    c17 = load_bench("c17")
    farm = stub(FAULT_FARM_OBJECT, ("ping", "begin_campaign",
                                    "add_patterns", "run_shard",
                                    "end_campaign"))
    farm.ping()
    farm.begin_campaign("audit", "c17", "equivalence", c17.inputs)
    farm.add_patterns("audit", pack_rows(
        c17.inputs, [dict.fromkeys(c17.inputs, Logic.ONE)]))
    farm.run_shard("audit", build_fault_list(c17).names()[:4])
    farm.end_campaign("audit")

    for bad_call in (
            lambda: connection.describe("no-such-component"),
            lambda: RemoteStub(connection.transport, "catalog",
                               ("add",)).add("x", {}),
            lambda: stub(f"{MULT}.power", ("power_of_pair",))
            .power_of_pair("s", 1 << WIDTH, 0),
            lambda: stub(f"{MULT}.module", ("handle_event",))
            .handle_event("s", "c", 1),
            lambda: stub(f"{MULT}.module", ("evaluate",)).evaluate({"c": 1}),
            lambda: stub(f"{MULT}.test", ("detection_table",))
            .detection_table([Logic.ONE], []),
            lambda: stub(f"{MULT}.test", ("detection_table",))
            .detection_table([Logic.ONE] * 2 * WIDTH, ["no-such-fault"]),
            lambda: transition.detection_table([Logic.ONE], [Logic.ONE], []),
            lambda: negotiation.quote("no-such-session"),
            lambda: negotiation.open_session(0),
            lambda: vault.purchase("cheapskate", 0.0),
            lambda: license_.purchase("cheapskate", 1.0),
            lambda: power.power_of_bits("s", [7]),
            lambda: stub(f"{BENCH}.module", ("evaluate",))
            .evaluate([9] * width),
            lambda: farm.run_shard("no-such-campaign", [])):
        with pytest.raises(RemoteError):
            bad_call()


@pytest.fixture(scope="module")
def audit() -> Audit:
    """Every servant, published the protective way, called and recorded."""
    provider = publish(obfuscate=True)
    bind_extras(provider)
    log = record_replies(provider.server)
    reports = run_campaigns(provider)
    drive_servants(provider)
    private = private_identifiers(provider.private_netlist(name)
                                  for name in (MULT, "IP1", BENCH))
    return Audit(provider, log, private, reports)


@pytest.fixture(scope="module")
def structural() -> Audit:
    """The same components published under structural fault names."""
    provider = publish(obfuscate=False)
    log = record_replies(provider.server)
    reports = run_campaigns(provider)
    private = private_identifiers(provider.private_netlist(name)
                                  for name in (MULT, "IP1"))
    return Audit(provider, log, private, reports)


# ---------------------------------------------------------------------------
# The real servants
# ---------------------------------------------------------------------------

class TestRealServants:
    def test_every_servant_class_is_audited(self, audit):
        classes = servant_classes()
        replied = {id(servant): servant for _r, _p, servant in audit.log}
        missing = [cls.__qualname__ for cls in classes
                   if not any(isinstance(servant, cls)
                              for servant in replied.values())]
        assert len(classes) >= 12 and missing == []

    def test_replies_marshal_and_leak_nothing(self, audit):
        assert len(audit.private) > 144
        assert reply_violations(audit.log, audit.private) == []

    def test_error_replies_are_audited(self, audit):
        failed = {f"{request.object_name}.{request.method}"
                  for request, reply, _servant in audit.log if not reply.ok}
        assert {"catalog.describe", "catalog.add",
                f"{MULT}.test.detection_table",
                "IP1.transition.detection_table",
                f"{MULT}.negotiation.quote", "IP1.vault.purchase",
                f"{MULT}.license.purchase", f"{BENCH}.power.power_of_bits",
                f"{FAULT_FARM_OBJECT}.run_shard"} <= failed

    def test_pure_methods_are_pure(self, audit):
        registry = audit.provider.server.registry
        servants = {id(servant): servant for servant in (
            registry.lookup(name).servant for name in registry.names())}
        checked = [servant for servant in servants.values()
                   if PURE_METHODS.intersection(servant.REMOTE_METHODS)]
        assert len(checked) >= 8
        violations = [problem for servant in checked
                      for problem in purity_violations(servant)]
        assert violations == []

    def test_stock_whitelist_is_not_stale(self):
        remote = set().union(*(cls.REMOTE_METHODS
                               for cls in servant_classes()))
        assert sorted(PURE_METHODS - remote) == []


class TestOpaqueFaultNames:
    """``obfuscate_faults=True`` hides the structure and loses nothing."""

    def test_campaign_replies_carry_no_private_identifier(self, audit):
        test_log = [entry for entry in audit.log
                    if entry[0].object_name.endswith(".test")]
        assert {entry[0].method for entry in test_log} == {
            "fault_list", "detection_table"}
        assert reply_violations(test_log, audit.private) == []

    @pytest.mark.parametrize("component", ["IP1", MULT])
    def test_detection_equals_the_structural_run(self, audit, structural,
                                                 component):
        opaque = audit.reports[component]
        named = structural.reports[component]
        assert opaque.detected_count > 0
        assert (opaque.detected_count, opaque.coverage) == \
            (named.detected_count, named.coverage)

    @pytest.mark.xfail(strict=True, reason="ROADMAP 9(b): a default "
                       "publish exports structural fault names")
    def test_default_publish_exports_no_structure(self, structural):
        assert reply_violations(structural.log, structural.private) == []


# ---------------------------------------------------------------------------
# Seeded defects: each one must be caught, each clean method must pass
# ---------------------------------------------------------------------------

class ImpureCatalogServant:
    """``describe`` is pure by the stock whitelist but writes servant
    state, so a cached reply would silently go stale."""

    REMOTE_METHODS = ("describe", "reset_stats")

    def __init__(self):
        self.calls = 0
        self.log = []

    def describe(self, component: str) -> dict:
        self.calls += 1
        self.log.append(component)
        return {"component": component}

    def reset_stats(self) -> None:
        # Not pure: its mutation is fine.
        self.calls = 0


class LeakyNetlistServant:
    """Returns design structure instead of port-local values."""

    REMOTE_METHODS = ("internals", "gate_dump", "summary")

    def __init__(self, netlist: Netlist):
        self.netlist = netlist

    def internals(self):
        return self.netlist

    def gate_dump(self):
        return list(self.netlist.gates)

    def summary(self) -> dict:
        # Data-sheet scalars only: must NOT be flagged.
        return {"name": self.netlist.name,
                "gates": self.netlist.gate_count()}


class LeakyBaseServant:
    """The leaking body lives in a base; the servant actually bound
    (:class:`InheritingLeakServant`) only inherits it -- the shape of
    ``SessionPowerServant`` under ``PowerServant``."""

    REMOTE_METHODS = ("inherited_dump",)

    def __init__(self, netlist: Netlist):
        self.netlist = netlist

    def inherited_dump(self):
        return self.netlist.gates


class InheritingLeakServant(LeakyBaseServant):
    """Binds the inherited leak next to a clean method of its own."""

    REMOTE_METHODS = ("inherited_dump", "own_summary")

    def own_summary(self) -> int:
        # A data-sheet scalar: must NOT be flagged.
        return self.netlist.gate_count()


class UnmarshallableServant:
    """Returns a type the marshaller rejects."""

    REMOTE_METHODS = ("fetch_netlist", "fetch_table")

    def __init__(self, netlist: Netlist):
        self._impl = netlist

    def fetch_netlist(self) -> Netlist:
        return Netlist("copy")

    def fetch_table(self) -> DetectionTable:
        # A registered value type: must NOT be flagged.
        return DetectionTable("x", (), (), {})


class StringLeakServant:
    """Leaks structure as plain strings: the reply marshals, and only
    the private-identifier audit sees the leak."""

    REMOTE_METHODS = ("gate_names",)

    def __init__(self, netlist: Netlist):
        self.netlist = netlist

    def gate_names(self):
        return [gate.name for gate in self.netlist.gates]


@dataclass
class Defects:
    """The seeded servants, what the audit flagged, what clients saw."""

    servants: Dict[str, Any]
    flagged: Dict[str, str]
    client_errors: Dict[str, str]


@pytest.fixture(scope="module")
def defects() -> Defects:
    netlist = ip1_block()
    servants = {"impure": ImpureCatalogServant(),
                "leaky": LeakyNetlistServant(netlist),
                "inheriting": InheritingLeakServant(netlist),
                "unmarshallable": UnmarshallableServant(netlist),
                "strings": StringLeakServant(netlist)}
    server = JavaCADServer("defects.provider")
    for name, servant in servants.items():
        server.bind(name, servant, servant.REMOTE_METHODS)
    log = record_replies(server)
    transport = server.connect(LOCALHOST)
    client_errors = {}
    for name, servant in servants.items():
        stub = RemoteStub(transport, name, servant.REMOTE_METHODS)
        for method in servant.REMOTE_METHODS:
            args = ("IP1",) if method == "describe" else ()
            try:
                getattr(stub, method)(*args)
            except RemoteError as exc:
                client_errors[f"{name}.{method}"] = str(exc)
    flagged = dict(problem.split(": ", 1) for problem in
                   reply_violations(log, private_identifiers([netlist])))
    return Defects(servants, flagged, client_errors)


class TestSeededDefects:
    def test_impure_pure_method_flagged(self, defects):
        assert purity_violations(defects.servants["impure"]) == [
            "ImpureCatalogServant.describe: changes calls, log"]

    def test_privacy_leaks_flagged(self, defects):
        for where in ("leaky.internals", "leaky.gate_dump"):
            assert defects.flagged[where].startswith("does not marshal")
            assert defects.client_errors[where].startswith("MarshalError")

    def test_inherited_leak_flagged(self, defects):
        where = "inheriting.inherited_dump"
        assert defects.flagged[where].startswith("does not marshal")
        assert defects.client_errors[where].startswith("MarshalError")

    def test_unmarshallable_return_flagged(self, defects):
        where = "unmarshallable.fetch_netlist"
        assert defects.flagged[where].startswith("does not marshal")
        assert defects.client_errors[where].startswith("MarshalError")

    def test_string_leak_caught_only_by_the_token_audit(self, defects):
        assert "strings.gate_names" not in defects.client_errors
        assert defects.flagged["strings.gate_names"].startswith(
            "carries 8 private identifier(s)")  # the 8 gates of IP1

    def test_clean_methods_pass(self, defects):
        assert sorted(defects.flagged) == [
            "inheriting.inherited_dump", "leaky.gate_dump",
            "leaky.internals", "strings.gate_names",
            "unmarshallable.fetch_netlist"]
        assert sorted(defects.client_errors) == [
            "inheriting.inherited_dump", "leaky.gate_dump",
            "leaky.internals", "unmarshallable.fetch_netlist"]
        for name, servant in defects.servants.items():
            if name != "impure":
                assert purity_violations(servant) == []
