"""The six benchmark workloads, each driven through public entry points.

A workload generates its inputs from the seed, sets the program up
(timed as ``setup_s``), builds a reference result the program's output
is checked against (untimed), and then runs closed-loop *reps*: every
caller waits for its reply before it issues the next request, as an
RMI stub does.  A rep returns its timings together with the problems
its checks found; a rep with problems counts all of its operations as
failed, never as fast.

Sizes are fixed per workload (``FULL``) with a small ``QUICK`` variant
for smoke runs; the seed only chooses the patterns and payloads.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.bench import (Figure2Design, ScenarioResult, build_embedded,
                         shared_provider)
from repro.compiled import clear_kernel_cache, fault_simulator_for
from repro.core.controller import SimulationController
from repro.core.signal import Logic
from repro.estimation.criteria import ByName
from repro.estimation.parameter import AVERAGE_POWER
from repro.estimation.setup import SetupController
from repro.faults import (IPBlockClient, SerialFaultSimulator,
                          TestabilityServant, VirtualFaultSimulator,
                          build_fault_list, reports_agree)
from repro.gates.corpus import load_bench
from repro.ip.component import ProviderConnection
from repro.net.clock import CostModel, VirtualClock
from repro.net.model import LOCALHOST, WAN
from repro.parallel import (diff_reports, merge_reports,
                            remote_fault_simulate, reset_session_state,
                            shard_fault_list)
from repro.parallel.remote import RemoteWorkerPool
from repro.rmi import JavaCADServer, TcpTransport, marshal

import layers
from children import ChildServer, Host
from hostspeed import Bracket, Speed
from spans import Tracer
from stats import median, percentile

DEFAULT_SEED = 1
TOKEN = "bench-harness"
REP_DEADLINE = 60.0
"""Socket deadline for calls to child servers: a stuck child fails the
rep with a named error instead of hanging the run."""


def content_digest(content: Any) -> str:
    """Short stable digest of JSON-serializable report content."""
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_content(report, ordered: bool = True) -> Dict[str, Any]:
    """What a fault-simulation report says, free of frame bytes.

    ``ordered`` keeps the insertion order of ``detected``, which the
    serial and compiled engines promise; the virtual protocol fills it
    from per-pattern sets, so its order follows string hashing and is
    left out.
    """
    detected = list(report.detected.items())
    return {"total": report.total_faults,
            "detected": detected if ordered else sorted(detected),
            "coverage": report.coverage_history()}


def random_logic_patterns(nets: Sequence[str], count: int,
                          seed: int) -> List[Dict[str, Logic]]:
    rng = random.Random(seed)
    return [{net: Logic(rng.getrandbits(1)) for net in nets}
            for _ in range(count)]


@dataclass
class Rep:
    """The outcome of one timed rep."""

    wall_s: float
    cpu_s: float
    latencies_ms: List[float]
    """One entry per operation (a campaign rep is one operation)."""

    problems: List[str] = field(default_factory=list)
    digest: Optional[str] = None
    exact: Dict[str, float] = field(default_factory=dict)
    """Host-independent layer metrics; equal in every rep of a run."""

    extra: Dict[str, float] = field(default_factory=dict)
    """Host-dependent per-rep observations for the layer metrics."""

    speed: Optional[Speed] = None
    """The host's speed around the rep, filled in by the rep loop."""


def at_reference_speed(reps: Sequence["Rep"], seconds) -> float:
    """Median over ``reps`` of ``seconds(rep)`` at reference speed."""
    return median([seconds(rep) * rep.speed.wall_factor for rep in reps])


class Stopwatch:
    """Wall and CPU (harness plus children) of a ``with`` block."""

    def __init__(self, workload: "Workload"):
        self._workload = workload
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def __enter__(self) -> "Stopwatch":
        self._cpu = self._workload.cpu_seconds()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.wall_s = time.perf_counter() - self._wall
        self.cpu_s = self._workload.cpu_seconds() - self._cpu


class Workload:
    """Common lifecycle; subclasses fill in the five steps."""

    name = ""
    why = ""
    in_process = True
    """Whether a rep runs wholly in this process (no child servers)."""

    FULL: Dict[str, Any] = {}
    QUICK: Dict[str, Any] = {}

    def __init__(self, seed: int, quick: bool, tracer: Tracer,
                 host: Host):
        self.seed = seed
        self.size = self.QUICK if quick else self.FULL
        self.tracer = tracer
        self.host = host
        self.children: List[ChildServer] = []
        self.problems: List[str] = []
        """Problems found outside reps (oracle, child statistics)."""

    def setup(self) -> None:
        """Program set-up a user pays before the first operation."""
        raise NotImplementedError

    def build_oracle(self) -> None:
        """The harness's own reference result (not program set-up)."""

    def rep(self) -> Rep:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Discarded work that fills caches and lazy imports."""
        self.rep()

    def layer_metrics(self, reps: Sequence[Rep]) -> Dict[str, float]:
        """Per-layer metrics of the traced pass (microbenchmarks)."""
        return {}

    def finish(self) -> Dict[str, float]:
        """Release everything; returns the children's layer metrics."""
        return {}

    def cpus(self) -> List[int]:
        """The CPUs a rep's result waits for (the harness's own)."""
        return self.host.cpus[:1]

    def cpu_seconds(self) -> float:
        return time.process_time() + sum(child.cpu_seconds()
                                         for child in self.children)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# table2_wan
# ----------------------------------------------------------------------

def run_figure2(mode: str, network, provider, session: str, seed: int,
                width: int, patterns: int, buffer_size: int):
    """One Table 2 cell with seeded stimulus and a caller-held provider.

    Mirrors :func:`repro.bench.run_scenario` step by step, with the
    differences that function does not offer: the random inputs are
    seeded, and the published provider comes from the caller, so its
    characterization is paid in set-up instead of in every rep.  The
    provider keeps per-session state, so the caller names a ``session``
    it has not used before, eight characters long like the library's
    own ``session1`` -- session names are marshalled, and frame sizes
    feed the virtual clock.  ``run.py --selfcheck`` pins the
    equivalence with ``run_scenario`` for seed 0.
    """
    cost = CostModel()
    clock = VirtualClock()
    connection = (ProviderConnection(provider, network, clock=clock,
                                     cost_model=cost, session=session)
                  if mode != "AL" else None)
    design = Figure2Design(mode, connection, width=width,
                           patterns=patterns, buffer_size=buffer_size,
                           seed=seed)
    circuit = design.build()
    setup = SetupController(name=f"{mode}-setup")
    setup.set(AVERAGE_POWER, ByName("local-power" if mode == "AL"
                                    else "gate-level-toggle"))
    setup.apply(circuit)
    controller = SimulationController(circuit, setup=setup, clock=clock,
                                      cost_model=cost, name=mode)
    stats = controller.start()
    powers = None
    if connection is not None:
        powers = design.mult.collect_power(controller.context)
        connection.flush()
    clock.sync()
    base = connection.base_transport.stats if connection else None
    result = ScenarioResult(
        scenario=mode, host=network.name if connection else "NA",
        cpu=clock.cpu, real=clock.wall, events=stats.events,
        remote_calls=connection.transport.stats.calls if connection else 0,
        remote_bytes=(base.bytes_sent + base.bytes_received) if base else 0,
        powers=powers,
        round_trips=connection.round_trips if connection else 0)
    controller.teardown()
    return result


class Table2Wan(Workload):
    name = "table2_wan"
    why = ("Paper Table 2 (AL, ER/WAN, MR/WAN): event-engine power model "
           "and backplane do the work; sockets, server, parallel and "
           "compiled stay idle")
    FULL = {"width": 16, "patterns": 100, "buffer": 5}
    QUICK = {"width": 8, "patterns": 20, "buffer": 5}
    SCENARIOS = (("AL", LOCALHOST), ("ER", WAN), ("MR", WAN))

    def setup(self) -> None:
        # Clears the provider memo too, so every set-up characterizes.
        reset_session_state()
        self.provider = shared_provider(self.size["width"])
        self.sessions = itertools.count(1)

    def run(self, mode: str, network, seed: int):
        size = self.size
        return run_figure2(mode, network, self.provider,
                           f"s{next(self.sessions):07d}", seed,
                           size["width"], size["patterns"], size["buffer"])

    def rep(self) -> Rep:
        reset_session_state()
        rows = {}
        walls = {}
        with Stopwatch(self) as watch:
            for mode, network in self.SCENARIOS:
                begin = time.perf_counter()
                with self.tracer.span(f"bench.scenario.{mode}", "bench"):
                    rows[mode] = self.run(mode, network, self.seed)
                walls[mode] = time.perf_counter() - begin
        with self.tracer.span("harness.check", "harness"):
            problems = self._check(rows)
        al, er, mr = rows["AL"], rows["ER"], rows["MR"]
        exact = {
            "net.virtual_real_s": al.real + er.real + mr.real,
            "net.virtual_cpu_s": al.cpu + er.cpu + mr.cpu,
            "net.wire_bytes": er.remote_bytes + mr.remote_bytes,
            "net.round_trips": er.round_trips + mr.round_trips,
            "net.al.virtual_real_s": al.real,
            "net.er_wan.virtual_real_s": er.real,
            "net.mr_wan.virtual_real_s": mr.real,
            "net.er_wan.wire_bytes": er.remote_bytes,
            "net.mr_wan.wire_bytes": mr.remote_bytes,
        }
        return Rep(
            watch.wall_s, watch.cpu_s, [watch.wall_s * 1e3], problems,
            digest=content_digest({"powers": er.powers,
                                   "events": [al.events, er.events,
                                              mr.events]}),
            exact=exact,
            extra={"al_events": al.events, "al_wall_s": walls["AL"]})

    def _check(self, rows) -> List[str]:
        """Paper-shape assertions of ``test_table2_scenarios.py``."""
        al, er, mr = rows["AL"], rows["ER"], rows["MR"]
        checks = {
            "ER CPU within 25% of AL": er.cpu <= al.cpu * 1.25,
            "MR CPU at least 2x AL": mr.cpu >= al.cpu * 2.0,
            "real time grows AL < ER/WAN < MR/WAN":
                al.real < er.real < mr.real,
            "real time never undercuts CPU time": all(
                row.real >= row.cpu - 1e-9 for row in rows.values()),
            "one power per pattern":
                len(er.powers or ()) == self.size["patterns"],
            "ER powers equal MR powers": er.powers == mr.powers,
        }
        return [f"table2 shape violated: {name}"
                for name, holds in checks.items() if not holds]

    def layer_metrics(self, reps: Sequence[Rep]) -> Dict[str, float]:
        netlist = load_bench("mult16")
        patterns = random_logic_patterns(netlist.inputs, 12, self.seed)
        with self.tracer.span("layer.power.toggle", "power"):
            first_ms, pattern_ms = layers.toggle_model_times(netlist,
                                                             patterns)
        with self.tracer.span("layer.gates.event", "gates"):
            evaluate_us = layers.event_evaluate_us(netlist, patterns[:5])
        with self.tracer.span("layer.rmi.inproc", "rmi"):
            inproc_us = layers.inproc_call_us(200)
        return {
            "power.toggle.first_pattern_ms": first_ms,
            "power.toggle.pattern_ms": pattern_ms,
            "gates.event.evaluate_us": evaluate_us,
            "rmi.inproc.call_us": inproc_us,
            "core.al_events_per_s": reps[0].extra["al_events"]
            / at_reference_speed(reps, lambda rep: rep.extra["al_wall_s"]),
        }


# ----------------------------------------------------------------------
# virtual_faultsim_wan
# ----------------------------------------------------------------------

class SpannedCalls:
    """Forwards the named methods of ``target``, one span per call.

    Stands between two layers the harness itself wires together (the
    client's stub, the provider's servant), so the traced pass sees the
    boundary without touching the program.
    """

    def __init__(self, target: Any, methods: Sequence[str],
                 tracer: Tracer, prefix: str, layer: str):
        for method in methods:
            setattr(self, method, self._spanned(
                getattr(target, method), tracer, f"{prefix}.{method}",
                layer))

    @staticmethod
    def _spanned(call, tracer: Tracer, name: str, layer: str):
        def spanned(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name, layer):
                return call(*args, **kwargs)
        return spanned


class VirtualFaultsimWan(Workload):
    name = "virtual_faultsim_wan"
    why = ("Paper two-phase virtual fault simulation over a WAN model: "
           "large detection-table replies make marshal and table building "
           "dominant; sockets, server and parallel stay idle")
    FULL = {"bench": "alu32", "patterns": 32}
    QUICK = {"bench": "alu8", "patterns": 16}
    OBJECT = "IP.test"

    def setup(self) -> None:
        clear_kernel_cache()
        self.experiment = build_embedded(load_bench(self.size["bench"]),
                                         block_name="IP")
        self.block = self.experiment.virtual.ip_blocks[0]
        local = self.block.stub
        self.servant = TestabilityServant(local.netlist, local.faults,
                                          engine="compiled")
        self.patterns = self.experiment.random_patterns(
            self.size["patterns"], seed=self.seed)

    def build_oracle(self) -> None:
        flat = self.experiment.serial
        self.flat_report = fault_simulator_for(
            "compiled", flat.netlist, flat.fault_list).run(
                self.experiment.patterns_as_logic(self.patterns))

    def rep(self) -> Rep:
        reset_session_state()
        methods = TestabilityServant.REMOTE_METHODS
        servant: Any = self.servant
        if self.tracer.enabled:
            servant = SpannedCalls(servant, methods, self.tracer,
                                   "faults.servant", "faults")
        virtual = self.experiment.virtual
        with Stopwatch(self) as watch, \
                self.tracer.span("faults.virtual.run", "core"):
            clock = VirtualClock()
            server = JavaCADServer("provider.host.name")
            server.bind(self.OBJECT, servant, methods)
            connection = ProviderConnection(server, WAN, clock=clock)
            stub: Any = connection.stub(self.OBJECT, methods)
            if self.tracer.enabled:
                stub = SpannedCalls(stub, methods, self.tracer,
                                    "rmi.stub", "rmi")
            client = IPBlockClient(self.block.module, stub,
                                   name=self.block.name)
            simulator = VirtualFaultSimulator(
                virtual.circuit, virtual.inputs, virtual.outputs,
                [client], clock=clock)
            report = simulator.run(self.patterns)
            connection.flush()
            clock.sync()
        problems = []
        with self.tracer.span("harness.check", "harness"):
            if report.total_faults != self.flat_report.total_faults \
                    or not reports_agree(
                        report, self.flat_report,
                        rename=lambda name: name.split(":", 1)[1]):
                problems.append("virtual report disagrees with the flat "
                                "full-knowledge fault simulation")
            if not report.detected:
                problems.append("virtual campaign detected nothing")
        wire = connection.base_transport.stats
        exact = {
            "net.virtual_real_s": clock.wall,
            "net.virtual_cpu_s": clock.cpu,
            "net.wire_bytes": wire.bytes_sent + wire.bytes_received,
            "net.round_trips": connection.round_trips,
            "core.injection_runs": simulator.injection_runs,
            "faults.virtual.table_fetches": client.remote_table_fetches,
            "faults.detected": report.detected_count,
            "faults.coverage": report.coverage,
        }
        return Rep(watch.wall_s, watch.cpu_s, [watch.wall_s * 1e3],
                   problems, exact=exact, digest=content_digest(
                       report_content(report, ordered=False)))

    def layer_metrics(self, reps: Sequence[Rep]) -> Dict[str, float]:
        servant = self.servant
        netlist = servant.netlist
        values = dict(zip(netlist.inputs, (
            Logic(self.patterns[0][net]) for net in netlist.inputs)))
        # The first pattern's reply: the full undetected list, the
        # largest table of the campaign.
        table = servant.detection_table(list(values.values()),
                                        list(servant.faults.names()))
        with self.tracer.span("layer.rmi.marshal", "rmi"):
            encode, decode = layers.marshal_rates(table, 5)
        with self.tracer.span("layer.compiled.detection_table",
                              "compiled"):
            table_ms = layers.detection_table_ms(
                netlist, servant.faults, servant.simulator, values, 3)
        per_rep = median([rep.speed.wall_factor for rep in reps]) \
            / len(reps)
        return {
            "rmi.marshal.encode_us_per_kb": encode,
            "rmi.marshal.decode_us_per_kb": decode,
            "compiled.detection_table_ms": table_ms,
            "core.virtual.self_ms": per_rep * self.tracer.self_ms(
                "faults.virtual.run"),
            "rmi.virtual.self_ms": per_rep * self.tracer.self_ms(
                "rmi.stub.detection_table"),
            "faults.servant.self_ms": per_rep * self.tracer.self_ms(
                "faults.servant.detection_table"),
        }


# ----------------------------------------------------------------------
# compiled_campaign / farm_tcp: one campaign, local and distributed
# ----------------------------------------------------------------------

class Campaign(Workload):
    """A stuck-at campaign over every ``stride``-th collapsed fault."""

    ENGINE = "compiled"
    COLLAPSE = "equivalence"
    SPOT_FAULTS = 16
    SPOT_PATTERNS = 16

    def build_campaign(self) -> None:
        size = self.size
        self.netlist = load_bench(size["bench"])
        full = build_fault_list(self.netlist, collapse=self.COLLAPSE)
        self.fault_list = full.subset(full.names()[::size["stride"]])
        self.patterns = random_logic_patterns(
            self.netlist.inputs, size["patterns"], self.seed)

    def simulate(self, fault_list):
        return fault_simulator_for(self.ENGINE, self.netlist,
                                   fault_list).run(self.patterns,
                                                   drop_detected=True)

    def build_oracle(self) -> None:
        # Shards first: they compile the kernel, so that the timed
        # single-process run below is a warm one like a farm child's.
        self.shard_reports = [
            self.simulate(self.fault_list.subset(part.names))
            for part in shard_fault_list(self.fault_list, 2)]
        with Bracket() as bracket:
            begin = time.perf_counter()
            self.oracle = self.simulate(self.fault_list)
            elapsed = time.perf_counter() - begin
        self.oracle_wall_s = elapsed * bracket.speed.wall_factor
        for problem in diff_reports(merge_reports(self.shard_reports),
                                    self.oracle):
            self.problems.append(f"merged per-shard oracle differs from "
                                 f"the single-process oracle: {problem}")
        self._spot_check()

    def _spot_check(self) -> None:
        """A seeded sample of faults re-simulated by the event engine.

        The campaign oracle comes from the compiled kernel itself, so a
        few faults are cross-checked against the interpreted simulator,
        which shares no code with it.
        """
        rng = random.Random(self.seed)
        sample = rng.sample(list(self.fault_list.names()),
                            min(self.SPOT_FAULTS, len(self.fault_list)))
        head = self.patterns[:self.SPOT_PATTERNS]
        event = SerialFaultSimulator(
            self.netlist, self.fault_list.subset(sample)).run(head)
        for name in sample:
            index = self.oracle.detected.get(name)
            expected = index if index is not None and index < len(head) \
                else None
            if event.detected.get(name) != expected:
                self.problems.append(
                    f"event engine first detects {name} at "
                    f"{event.detected.get(name)}, oracle at {expected}")

    def check(self, report) -> List[str]:
        with self.tracer.span("harness.check", "harness"):
            return [f"report differs from the oracle: {problem}"
                    for problem in diff_reports(report, self.oracle)]

    def campaign_exact(self, report) -> Dict[str, float]:
        return {"faults.detected": report.detected_count,
                "faults.coverage": report.coverage}


class CompiledCampaign(Campaign):
    name = "compiled_campaign"
    why = ("Compiled PPSFP kernel plus fault bookkeeping in one process: "
           "no wire, no backplane, so rmi, server and core changes must "
           "leave it unmoved")
    FULL = {"bench": "mult16", "stride": 12, "patterns": 256}
    QUICK = {"bench": "mult8", "stride": 4, "patterns": 64}

    def setup(self) -> None:
        clear_kernel_cache()
        self.build_campaign()
        # Cold compile belongs to set-up; reps run on the warm cache.
        fault_simulator_for(self.ENGINE, self.netlist, self.fault_list)

    def rep(self) -> Rep:
        with Stopwatch(self) as watch, \
                self.tracer.span("compiled.fault_run", "compiled"):
            report = self.simulate(self.fault_list)
        return Rep(watch.wall_s, watch.cpu_s, [watch.wall_s * 1e3],
                   self.check(report),
                   digest=content_digest(report_content(report)),
                   exact=self.campaign_exact(report))

    def layer_metrics(self, reps: Sequence[Rep]) -> Dict[str, float]:
        with self.tracer.span("layer.compiled.compile", "compiled"):
            cold_s, cached_us = layers.compile_times(self.netlist, 50)
        with self.tracer.span("layer.compiled.good", "compiled"):
            good = layers.good_patterns_per_s(self.netlist, self.patterns,
                                              20)
        with self.tracer.span("layer.faults.build_fault_list", "faults"):
            build_s = layers.build_fault_list_s(self.netlist,
                                                self.COLLAPSE)
        return {
            "compiled.compile_s": cold_s,
            "compiled.compile_cached_us": cached_us,
            "compiled.good_patterns_per_s": good,
            "compiled.fault_run_s": at_reference_speed(
                reps, lambda rep: rep.wall_s),
            "faults.build_fault_list_s": build_s,
        }


def stop_children(workload: Workload) -> List[Dict[str, Any]]:
    """Stop every child; returns their final reports."""
    reports = []
    try:
        for child in workload.children:
            reports.append(child.stop())
    finally:
        for child in workload.children:
            child.kill()
        workload.children = []
    return reports


def server_metrics(workload: Workload,
                   reports: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Fold the children's final reports into ``server.*`` metrics."""
    if not reports:
        return {}
    totals = {key: sum(report["stats"][key] for report in reports)
              for key in ("calls_served", "batches_served",
                          "protocol_errors", "connections_refused",
                          "auth_failures")}
    for key in ("protocol_errors", "auth_failures"):
        if totals[key]:
            workload.problems.append(f"children report {key}="
                                     f"{totals[key]}, expected 0")
    workload.child_peak_rss_mb = max(report["peak_rss_mb"]
                                     for report in reports)
    return {
        "server.child_cpu_s": sum(report["cpu_s"] for report in reports),
        "server.calls_served": totals["calls_served"],
        "server.batches_served": totals["batches_served"],
        "server.protocol_errors": totals["protocol_errors"],
        "server.connections_refused": totals["connections_refused"],
    }


class FarmTcp(Campaign):
    name = "farm_tcp"
    why = ("The compiled_campaign kernel reached through parallel sharding "
           "and merge, rmi BATCH over TCP and two child servers: the gap "
           "to compiled_campaign is the distribution overhead")
    in_process = False
    FULL = {"bench": "mult16", "stride": 12, "patterns": 128}
    QUICK = {"bench": "mult8", "stride": 4, "patterns": 64}
    child_peak_rss_mb = 0.0

    def setup(self) -> None:
        self.children = [self.host.spawn("farm", slot)
                         for slot in (1, 2)]
        self.build_campaign()

    def cpus(self) -> List[int]:
        return sorted({child.cpu for child in self.children})

    def rep(self) -> Rep:
        reset_session_state()
        endpoints = [child.endpoint for child in self.children]
        try:
            with Stopwatch(self) as watch, self.tracer.span(
                    "parallel.remote_fault_simulate", "parallel"):
                report = remote_fault_simulate(
                    self.size["bench"], self.patterns, endpoints,
                    collapse=self.COLLAPSE, netlist=self.netlist,
                    fault_list=self.fault_list, engine=self.ENGINE,
                    pool=RemoteWorkerPool(endpoints, token=TOKEN,
                                          timeout=REP_DEADLINE))
        except Exception:
            for child in self.children:
                child.check_alive()
            raise
        return Rep(watch.wall_s, watch.cpu_s, [watch.wall_s * 1e3],
                   self.check(report),
                   digest=content_digest(report_content(report)),
                   exact=self.campaign_exact(report))

    def layer_metrics(self, reps: Sequence[Rep]) -> Dict[str, float]:
        child = self.children[0]
        with self.tracer.span("layer.rmi.tcp.connect", "rmi"):
            connect_ms = layers.connect_auth_ms(child.host, child.port,
                                                TOKEN, 5)
        with self.tracer.span("layer.parallel", "parallel"), \
                self.host.unpinned():
            # The two local workers get the CPUs the two children have.
            metrics = layers.parallel_costs(
                self.netlist, self.fault_list, self.patterns,
                self.shard_reports, self.ENGINE)
        wall = at_reference_speed(reps, lambda rep: rep.wall_s)
        metrics.update({
            "rmi.tcp.connect_auth_ms": connect_ms,
            "parallel.farm.efficiency": self.oracle_wall_s / (wall * 2),
            "parallel.farm.overhead_s":
                wall - metrics["parallel.local2_wall_s"],
        })
        return metrics

    def finish(self) -> Dict[str, float]:
        metrics = server_metrics(self, stop_children(self))
        if metrics:
            metrics["rmi.batch.calls_per_frame"] = (
                metrics["server.calls_served"]
                / max(1, metrics["server.batches_served"]))
        return metrics

    def peak_rss_mb(self) -> float:
        return max(super().peak_rss_mb(), self.child_peak_rss_mb)


# ----------------------------------------------------------------------
# serve_small_calls / serve_bulk_calls
# ----------------------------------------------------------------------

class Serve(Workload):
    """Two authenticated TCP sessions, each a closed loop of one call."""

    in_process = False
    SESSIONS = 2
    FULL = {"window_s": 0.25, "warm_calls": 200}
    QUICK = {"window_s": 0.1, "warm_calls": 20}
    child_peak_rss_mb = 0.0

    def __init__(self, *args: Any):
        super().__init__(*args)
        self.transports: List[TcpTransport] = []
        self.sent = 0

    def setup(self) -> None:
        child = self.host.spawn("probe", 0)
        self.children = [child]
        self.transports = [
            TcpTransport(child.host, child.port, token=TOKEN,
                         timeout=REP_DEADLINE)
            for _ in range(self.SESSIONS)]
        for transport in self.transports:
            transport.connect()
        self.payload = self.make_payload()

    def make_payload(self) -> Any:
        return None

    def call(self, transport: TcpTransport, serial: int) -> bool:
        """Issue one call; whether the reply carried the right value."""
        raise NotImplementedError

    def warm_up(self) -> None:
        for transport in self.transports:
            for serial in range(self.size["warm_calls"]):
                self.call(transport, serial)
        self.sent += self.SESSIONS * self.size["warm_calls"]

    def _client(self, transport: TcpTransport, deadline: float,
                latencies: List[float], problems: List[str],
                rep_span: Any) -> None:
        wrong = 0
        serial = 0
        try:
            while time.perf_counter() < deadline:
                begin = time.perf_counter()
                with self.tracer.span("rmi.tcp.invoke", "load",
                                      parent=rep_span):
                    right = self.call(transport, serial)
                latencies.append((time.perf_counter() - begin) * 1e3)
                wrong += not right
                serial += 1
        except Exception as exc:  # reported as the rep's failure
            problems.append(f"client stopped by {type(exc).__name__}: "
                            f"{exc}")
        if wrong:
            problems.append(f"{wrong} replies carried a wrong value")

    def rep(self) -> Rep:
        latencies: List[List[float]] = [[] for _ in self.transports]
        problems: List[str] = []
        with Stopwatch(self) as watch:
            client_cpu = time.process_time()
            deadline = time.perf_counter() + self.size["window_s"]
            threads = [threading.Thread(
                target=self._client,
                args=(transport, deadline, mine, problems,
                      self.tracer.current()))
                for transport, mine in zip(self.transports, latencies)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(self.size["window_s"] + REP_DEADLINE)
            client_cpu = time.process_time() - client_cpu
        if any(thread.is_alive() for thread in threads):
            problems.append("a client thread outlived the rep deadline")
        self.children[0].check_alive()
        pooled = [value for mine in latencies for value in mine]
        self.sent += len(pooled)
        return Rep(watch.wall_s, watch.cpu_s, pooled, problems,
                   extra={"client_cpu_s": client_cpu})

    def layer_metrics(self, reps: Sequence[Rep]) -> Dict[str, float]:
        child = self.children[0]
        pooled = [value * rep.speed.wall_factor
                  for rep in reps for value in rep.latencies_ms]
        with self.tracer.span("layer.rmi.tcp.call", "rmi"):
            tcp_us, calls = layers.tcp_call_us(child.host, child.port,
                                               TOKEN, 100)
        self.sent += calls
        with self.tracer.span("layer.rmi.tcp.connect", "rmi"):
            connect_ms = layers.connect_auth_ms(child.host, child.port,
                                                TOKEN, 5)
        with self.tracer.span("layer.rmi.inproc", "rmi"):
            inproc_us = layers.inproc_call_us(200)
        with self.tracer.span("layer.rmi.protocol", "rmi"):
            frame_us = layers.small_frame_us(200)
        return {
            "rmi.tcp.call_us": tcp_us,
            "rmi.tcp.connect_auth_ms": connect_ms,
            "rmi.inproc.call_us": inproc_us,
            "rmi.protocol.small_frame_us": frame_us,
            "server.call_overhead_us": tcp_us - inproc_us,
            "load.call_p99_ms": percentile(pooled, 0.99),
            "load.call_max_ms": max(pooled),
            "load.client_cpu_s": median(
                [rep.extra["client_cpu_s"] * rep.speed.cpu_factor
                 for rep in reps]),
        }

    def finish(self) -> Dict[str, float]:
        for transport in self.transports:
            transport.close()
        self.transports = []
        metrics = server_metrics(self, stop_children(self))
        if metrics and metrics["server.calls_served"] != self.sent:
            self.problems.append(
                f"child served {metrics['server.calls_served']:.0f} "
                f"calls, harness sent {self.sent}")
        return metrics

    def peak_rss_mb(self) -> float:
        return max(super().peak_rss_mb(), self.child_peak_rss_mb)


class ServeSmallCalls(Serve):
    name = "serve_small_calls"
    why = ("Per-call cost of the serving stack (framing, socket, queue, "
           "dispatch hand-off, session gate) with servant and marshal "
           "work near zero")

    def call(self, transport: TcpTransport, serial: int) -> bool:
        return transport.invoke("probe", "ping", (serial,), {}) \
            == serial + 1


class ServeBulkCalls(Serve):
    name = "serve_bulk_calls"
    why = ("Per-byte cost of the same stack (tagged-JSON encode/decode, "
           "large frames, backpressure): a small-call speedup bought with "
           "copies or buffering shows its cost here")
    FULL = {"window_s": 0.25, "warm_calls": 20, "patterns": 64, "nets": 32}
    QUICK = {"window_s": 0.1, "warm_calls": 5, "patterns": 8, "nets": 32}

    def make_payload(self) -> Any:
        rng = random.Random(self.seed)
        return [[Logic(rng.getrandbits(1))
                 for _ in range(self.size["nets"])]
                for _ in range(self.size["patterns"])]

    def call(self, transport: TcpTransport, serial: int) -> bool:
        reply = transport.invoke("probe", "echo", (self.payload,), {})
        return [list(row) for row in reply] == self.payload

    def layer_metrics(self, reps: Sequence[Rep]) -> Dict[str, float]:
        metrics = super().layer_metrics(reps)
        with self.tracer.span("layer.rmi.marshal", "rmi"):
            encode, decode = layers.marshal_rates(self.payload, 5)
        metrics.update({
            "rmi.marshal.encode_us_per_kb": encode,
            "rmi.marshal.decode_us_per_kb": decode,
            "load.payload_bytes": len(marshal(self.payload)),
        })
        return metrics


WORKLOADS = (Table2Wan, VirtualFaultsimWan, CompiledCampaign, FarmTcp,
             ServeSmallCalls, ServeBulkCalls)
