"""Command-line interface: regenerate the paper's experiments.

Usage (also available as the ``repro-bench`` console script)::

    python -m repro.cli table1              # Table 1 estimator comparison
    python -m repro.cli table2              # Table 2 AL/ER/MR timings
    python -m repro.cli figure3             # Figure 3 buffer-size sweep
    python -m repro.cli figure4             # Figure 4/5 worked example
    python -m repro.cli faultsim FILE.bench # fault-simulate a netlist
    python -m repro.cli lint                # static design/servant lint
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import List, Optional

from .bench.reporting import ascii_plot, format_table

from .gates.corpus import corpus_names
from .rmi.transport import DEFAULT_CONNECT_TIMEOUT, DEFAULT_TCP_TIMEOUT

BUILTIN_BENCHES = corpus_names()
"""Bench names the fault-simulation commands accept besides files
(the builtin corpus; see ``docs/corpus.md``)."""

SEQUENTIAL_BENCHES = corpus_names(kind="sequential")
"""The s-series subset of the corpus."""


def _load_bench(spec: str, validate: bool = True):
    """Load a ``.bench`` file or builtin corpus bench (either kind).

    Returns a :class:`~repro.gates.netlist.Netlist`, a
    :class:`~repro.gates.io.SequentialBench`, or ``None`` after
    printing an error.
    """
    from .core.errors import DesignError
    from .gates.corpus import load_bench

    try:
        return load_bench(spec, validate=validate)
    except DesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _load_netlist(spec: str, validate: bool = True,
                  context: str = "this command"):
    """Load a bench spec where only combinational input is legal."""
    from .gates.io import SequentialBench

    bench = _load_bench(spec, validate=validate)
    if isinstance(bench, SequentialBench):
        print(f"error: {spec!r} is a sequential bench "
              f"({bench.ff_count()} flip-flops); {context} takes "
              f"combinational netlists only -- load sequential designs "
              f"with repro.gates.io.read_sequential_bench and run them "
              f"through repro.faults.sequential", file=sys.stderr)
        return None
    return bench


def _cmd_table1(args: argparse.Namespace) -> int:
    from .bench.table1 import run_table1

    rows = run_table1(width=args.width, eval_patterns=args.patterns)
    print("Table 1 -- power estimators for MULT "
          f"({args.width}-bit, {args.patterns} patterns):")
    print(format_table(
        ["Estimator", "Avg err %", "RMS err %", "cents/pattern",
         "CPU s/pattern"],
        [row.cells() for row in rows]))
    print("* remote estimator: network time is additionally "
          "unpredictable")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .parallel import resolve_workers, run_table2_parallel

    workers = resolve_workers(getattr(args, "workers", 0) or None)
    engine = getattr(args, "engine", None)
    bench = getattr(args, "bench", None)
    title = "Table 2"
    if bench is not None:
        from .bench.scenarios import run_corpus_table2
        from .core.errors import DesignError

        try:
            rows = run_corpus_table2(bench, patterns=args.patterns,
                                     buffer_size=args.buffer,
                                     engine=engine)
        except DesignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        title = f"Table 2 over bench {bench!r}"
    elif workers > 1:
        rows = run_table2_parallel(width=args.width,
                                   patterns=args.patterns,
                                   buffer_size=args.buffer,
                                   workers=workers, engine=engine)
    else:
        from .bench.scenarios import run_table2

        rows = run_table2(width=args.width, patterns=args.patterns,
                          buffer_size=args.buffer, engine=engine)
    print(f"{title} -- {args.patterns} patterns, buffer of "
          f"{args.buffer}:")
    print(format_table(
        ["Design", "Host", "CPU time (s)", "Real time (s)"],
        [[row.scenario, row.host, f"{row.cpu:.0f}", f"{row.real:.0f}"]
         for row in rows]))
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from .bench.scenarios import run_buffer_sweep

    percents = [1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    series = run_buffer_sweep(percents, width=args.width,
                              patterns=args.patterns)
    print("Figure 3 -- real and CPU time vs pattern buffer size "
          "(ER over WAN, accurate-simulator call disabled):")
    print(format_table(["Buffer %", "Real (s)", "CPU (s)"],
                       [[pct, f"{real:.1f}", f"{cpu:.1f}"]
                        for pct, real, cpu in series]))
    print()
    print(ascii_plot([(pct, real) for pct, real, _ in series],
                     label="wall clock time"))
    return 0


def _cmd_figure4(_args: argparse.Namespace) -> int:
    from .bench.faultbench import build_figure4
    from .core.signal import Logic

    setup = build_figure4(collapse="none")
    table = setup.servant.detection_table([Logic.ONE, Logic.ZERO],
                                          setup.fault_list.names())
    print("Figure 4 -- IP1 detection table for (IIP1, IIP2) = (1, 0):")
    print(format_table(
        ["Faulty output (OIP1, OIP2)", "Fault list"],
        [["".join(str(int(b)) for b in pattern),
          ", ".join(sorted(n for n in names if "->" not in n))]
         for pattern, names in sorted(
             table.rows.items(),
             key=lambda item: tuple(int(b) for b in item[0]))]))
    report = setup.simulator.run([{"A": 1, "B": 1, "C": 0, "D": 0}])
    print(f"\npattern ABCD=1100 detects I3sa0: "
          f"{'IP1:I3sa0' in report.detected}")
    fresh = build_figure4(collapse="none")
    report = fresh.simulator.run([{"A": 1, "B": 1, "C": 0, "D": 1}])
    print(f"pattern ABCD=1101 detects I3sa0: "
          f"{'IP1:I3sa0' in report.detected} "
          f"(and I4sa1: {'IP1:I4sa1' in report.detected})")
    return 0


def _reject_sequential_flags(args: argparse.Namespace, bench) -> bool:
    """Print the error for combinational-only flags on a sequential bench.

    The compiled PPSFP kernel, worker sharding and the remote farm are
    combinational-only; ``--workers 1`` and an unset ``--engine`` *are*
    the serial sequential path, so only explicit requests for the
    others are refused.
    """
    rejected = []
    if args.engine not in (None, "event"):
        rejected.append(f"--engine {args.engine}")
    if args.remote:
        rejected.append("--remote")
    if args.workers > 1:
        rejected.append("--workers")
    if rejected:
        verb = "requires" if len(rejected) == 1 else "require"
        print(f"error: {args.netlist!r} is a sequential bench "
              f"({bench.ff_count()} flip-flops): {', '.join(rejected)} "
              f"{verb} a combinational netlist; sequential campaigns "
              f"run serially through repro.faults.sequential "
              f"(read_sequential_bench -> design_from_bench -> "
              f"SequentialSerialFaultSimulator)", file=sys.stderr)
    return bool(rejected)


def _cmd_faultsim(args: argparse.Namespace) -> int:
    """Fault-simulate a bench with random patterns.

    A sequential bench applies one pattern per clock cycle through the
    event-driven sequential serial simulator over its combinational
    core; everything else (patterns, summary, history, report) is the
    combinational flow.
    """
    from .compiled import resolve_engine
    from .core.signal import Logic
    from .faults.faultlist import build_fault_list
    from .gates.io import SequentialBench
    from .parallel import parallel_fault_simulate, resolve_workers

    bench = _load_bench(args.netlist)
    if bench is None:
        return 2
    sequential = isinstance(bench, SequentialBench)
    if sequential and _reject_sequential_flags(args, bench):
        return 2
    netlist = bench.core if sequential else bench
    fault_list = build_fault_list(netlist, collapse=args.collapse)
    if sequential:
        from .faults.sequential import (SequentialSerialFaultSimulator,
                                        design_from_bench)

        design = design_from_bench(bench)
        input_nets, outputs = design.primary_inputs, bench.primary_outputs
        engine, stimulus = "sequential-event", "clock cycles"
        flip_flops = f"{bench.ff_count()} flip-flops, "
    else:
        input_nets, outputs = netlist.inputs, netlist.outputs
        engine, stimulus = resolve_engine(args.engine), "random patterns"
        flip_flops = ""
    rng = random.Random(args.seed)
    patterns = [{net: Logic(rng.getrandbits(1)) for net in input_nets}
                for _ in range(args.patterns)]
    remotes = args.remote or []
    workers = resolve_workers(args.workers or None)
    if sequential or len(fault_list) <= 1:
        workers, remotes = 1, []  # serial by design, or nothing to shard
    if sequential:
        report = SequentialSerialFaultSimulator(
            design, netlist, fault_list).run(patterns)
    elif remotes:
        from .parallel.remote import (RemoteWorkerPool,
                                      remote_fault_simulate)

        report = remote_fault_simulate(
            args.netlist, patterns, remotes, collapse=args.collapse,
            netlist=netlist, fault_list=fault_list,
            workers=args.workers or None, engine=engine,
            pool=RemoteWorkerPool(
                remotes, timeout=args.rmi_timeout,
                connect_timeout=args.rmi_connect_timeout,
                token=args.remote_token, tls_ca=args.remote_ca))
        workers = len(remotes)
    else:
        report = parallel_fault_simulate(netlist, patterns,
                                         fault_list=fault_list,
                                         workers=workers, engine=engine)
    print(f"{args.netlist}: {netlist.gate_count()} gates, {flip_flops}"
          f"{len(input_nets)} inputs, {len(outputs)} outputs")
    print(f"fault list ({args.collapse}): {len(fault_list)} faults, "
          f"{engine} engine")
    if remotes:
        print(f"farmed across {len(remotes)} remote endpoint(s): "
              f"{', '.join(remotes)}")
    elif workers > 1:
        print(f"sharded across {workers} workers")
    print(f"{args.patterns} {stimulus} -> "
          f"{report.detected_count}/{report.total_faults} detected "
          f"({report.coverage:.1%} coverage)")
    if args.history:
        history = report.coverage_history()
        print(ascii_plot(list(enumerate(history)),
                         label="coverage vs pattern"))
    if args.report_out:
        payload = {
            "netlist": args.netlist,
            "gates": netlist.gate_count(),
            "collapse": args.collapse,
            "patterns": args.patterns,
            "seed": args.seed,
            "engine": engine,
            "workers": workers,
            "total_faults": report.total_faults,
            "detected": report.detected,
            "coverage": report.coverage,
            "undetected": sorted(report.undetected(fault_list.names())),
            "coverage_history": report.coverage_history(),
        }
        if sequential:
            payload["flip_flops"] = bench.ff_count()
        with open(args.report_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.report_out}")
    return 0


def _serve_until_interrupted(serve_seconds: Optional[float]) -> None:
    import threading
    import time as _time

    if serve_seconds is not None:
        threading.Event().wait(serve_seconds)
    else:
        while True:
            _time.sleep(3600)


def _build_server_ssl(args: argparse.Namespace):
    """Build the server SSLContext from --tls-cert/--tls-key (or None).

    Returns ``(ok, context)``: flag misuse prints an error and reports
    ``ok=False``.
    """
    cert = getattr(args, "tls_cert", None)
    key = getattr(args, "tls_key", None)
    if cert is None and key is None:
        return True, None
    if not (cert and key):
        print("error: --tls-cert and --tls-key must be given together",
              file=sys.stderr)
        return False, None
    from .rmi.tlsconfig import server_ssl_context

    return True, server_ssl_context(cert, key)


def _serve_sessions(args: argparse.Namespace, session_factory,
                    name: str, label: str, serving: str = "") -> int:
    """Start the one front end, print readiness, wait, stop, report.

    The first line printed, ``<label> serving<serving> on HOST:PORT``,
    is the exact line CI and scripts wait for before connecting.
    """
    from .server import AsyncRMIServer

    ok, ssl_context = _build_server_ssl(args)
    if not ok:
        return 2
    server = AsyncRMIServer(
        session_factory=session_factory,
        host=args.host, port=args.port,
        max_connections=args.max_connections,
        auth_token=args.auth_token,
        ssl_context=ssl_context,
        idle_timeout=args.idle_timeout,
        dispatch=args.dispatch,
        name=f"{name}@{args.host}:{args.port}")
    host, port = server.start()
    security = []
    if ssl_context is not None:
        security.append("tls")
    if args.auth_token is not None:
        security.append("token-auth")
    suffix = f" ({', '.join(security)})" if security else ""
    print(f"{label} serving{serving} on {host}:{port}{suffix}", flush=True)
    try:
        _serve_until_interrupted(args.serve_seconds)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        print(server.stats.summary_line(), flush=True)
        print(f"{label} stopped", flush=True)
    return 0


def _add_server_options(parser: argparse.ArgumentParser) -> None:
    """The front-end options `faultworker` and `serve` share."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port to listen on (0 = pick a free "
                             "port and print it)")
    parser.add_argument("--serve-seconds", type=float, default=None,
                        metavar="S",
                        help="exit after S seconds (default: serve "
                             "until interrupted)")
    parser.add_argument("--tls-cert", metavar="PEM", default=None,
                        help="serve TLS with this certificate chain "
                             "(requires --tls-key)")
    parser.add_argument("--tls-key", metavar="PEM", default=None,
                        help="private key for --tls-cert")
    parser.add_argument("--auth-token", metavar="TOKEN", default=None,
                        help="require this bearer token as every "
                             "connection's first frame")
    parser.add_argument("--max-connections", type=_positive_int, default=64,
                        metavar="N",
                        help="refuse connections beyond N concurrent "
                             "tenants (default 64)")
    parser.add_argument("--idle-timeout", type=_positive_seconds,
                        default=None, metavar="S",
                        help="drop connections idle for S seconds "
                             "(default: never)")
    parser.add_argument("--dispatch", default="thread",
                        choices=["thread", "process"],
                        help="session dispatch tier: thread (shared "
                             "thread pool), process (forked workers, "
                             "multi-core)")


def _positive_seconds(text: str) -> float:
    """argparse type: a timeout in seconds, which must be positive."""
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: a count, which must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: a count where 0 has a meaning of its own."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _add_campaign_options(parser: argparse.ArgumentParser,
                          engine_help: Optional[str] = None,
                          workers_help: Optional[str] = None) -> None:
    """``--engine`` / ``--workers``, each declared where its help is given.

    An unset ``--engine`` stays ``None``; the callee resolves it to
    ``repro.compiled.DEFAULT_ENGINE``.
    """
    if engine_help is not None:
        parser.add_argument("--engine", default=None,
                            choices=["event", "compiled"],
                            help=engine_help)
    if workers_help is not None:
        parser.add_argument("--workers", type=_non_negative_int, default=0,
                            metavar="N",
                            help=f"{workers_help} (0 = one per usable CPU)")


def _cmd_faultworker(args: argparse.Namespace) -> int:
    """Serve fault-simulation shards to remote `faultsim --remote` runs.

    Every connection gets its own farm servant and id scope, so
    concurrent ``faultsim --remote`` clients cannot mix task state.
    """
    from .server.farm import fault_farm_session_factory

    return _serve_sessions(args, fault_farm_session_factory(),
                           "faultfarm", "fault farm worker")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Host a full IP provider on the multi-tenant server.

    Publishes the Figure 2 multiplier's estimator/timing/test servants
    once (they are read-only and shared across tenants) and gives every
    connection a private fault-farm servant plus its own id scope --
    the paper's multi-client JavaCAD server.
    """
    from .ip.provider import IPProvider
    from .server.farm import fault_farm_session_factory

    provider = IPProvider(f"serve@{args.host}:{args.port}")
    component = provider.publish_multiplier(args.width,
                                            engine=args.engine)
    return _serve_sessions(
        args, fault_farm_session_factory(shared=provider.server),
        "serve", "repro server", f" {component!r} + fault farm")


def _cmd_atpg(args: argparse.Namespace) -> int:
    from .faults.faultlist import build_fault_list
    from .gates.io import SequentialBench
    from .gates.scoap import ScoapAnalysis
    from .parallel import parallel_generate_test_set

    netlist = _load_bench(args.netlist)
    if netlist is None:
        return 2
    if isinstance(netlist, SequentialBench):
        # Full-scan assumption: with every flip-flop on a scan chain
        # the ATPG problem is combinational over the core (register
        # state is directly controllable and observable).
        print(f"{args.netlist}: sequential bench "
              f"({netlist.ff_count()} flip-flops) -- generating "
              f"full-scan tests over the combinational core")
        netlist = netlist.core
    fault_list = build_fault_list(netlist, collapse=args.collapse)
    # One worker (or one fault) is the serial generate_test_set path.
    test_set = parallel_generate_test_set(
        netlist, fault_list, workers=args.workers or None,
        random_patterns=args.random_patterns, seed=args.seed,
        max_backtracks=args.max_backtracks, engine=args.engine)
    print(f"{args.netlist}: {netlist.gate_count()} gates, "
          f"{len(fault_list)} target faults ({args.collapse})")
    print(f"test set: {len(test_set.patterns)} patterns, "
          f"coverage {test_set.coverage:.1%} "
          f"(testable coverage {test_set.testable_coverage:.1%})")
    if test_set.untestable:
        print(f"untestable (redundant) faults: "
              f"{', '.join(test_set.untestable)}")
    if test_set.aborted:
        print(f"aborted (backtrack limit): {len(test_set.aborted)}")
    analysis = ScoapAnalysis(netlist)
    hardest_net, effort = analysis.hardest_fault()
    print(f"SCOAP hardest site: {hardest_net} (effort {effort})")
    if args.show_patterns:
        inputs = netlist.inputs
        print("patterns (" + " ".join(inputs) + "):")
        for pattern in test_set.patterns:
            print("  " + " ".join(str(int(pattern[net]))
                                  for net in inputs))
    return 0


def _cmd_scoap(args: argparse.Namespace) -> int:
    from .gates.analysis import critical_path, netlist_stats
    from .gates.scoap import ScoapAnalysis

    netlist = _load_netlist(args.netlist, context="scoap")
    if netlist is None:
        return 2
    print(netlist_stats(netlist))
    print("critical path:", " -> ".join(critical_path(netlist)))
    analysis = ScoapAnalysis(netlist)
    rows = []
    for net in netlist.nets():
        numbers = analysis.numbers(net)
        rows.append([net, numbers.cc0, numbers.cc1,
                     numbers.co if numbers.co < 10 ** 9 else "inf",
                     max(numbers.testability_0, numbers.testability_1)])
    rows.sort(key=lambda row: (row[4] if isinstance(row[4], int)
                               else 10 ** 9), reverse=True)
    print()
    print(format_table(["Net", "CC0", "CC1", "CO", "worst effort"],
                       rows[:args.top]))
    return 0


def _resolve_servant_spec(spec: str) -> Optional[str]:
    """A --servants spec: a path, or an importable module/package name."""
    if os.path.exists(spec):
        return spec
    import importlib.util

    try:
        found = importlib.util.find_spec(spec)
    except (ImportError, ValueError):
        found = None
    if found is not None and found.origin is not None:
        if found.submodule_search_locations:
            return os.path.dirname(found.origin)
        return found.origin
    print(f"error: {spec!r} is neither a path nor an importable "
          f"module", file=sys.stderr)
    return None


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static design lint + servant code analysis (no execution)."""
    from .core.errors import DesignError
    from .lint import Severity, format_findings, lint_netlist, lint_sources
    from .lint.registry import check_codes, filter_suppressed
    from .lint.runner import record_lint_run

    suppress = args.suppress or []
    try:
        check_codes(suppress)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    design_specs = args.design or []
    servant_specs = args.servants or []
    if not design_specs and not servant_specs:
        # Default sweep: every builtin bench plus the installed
        # package's own servant sources.
        design_specs = list(BUILTIN_BENCHES)
        servant_specs = [os.path.dirname(os.path.abspath(__file__))]

    findings = []
    from .gates.io import SequentialBench

    for spec in design_specs:
        try:
            netlist = _load_bench(spec, validate=False)
        except DesignError as exc:
            print(f"error: cannot load {spec!r}: {exc}", file=sys.stderr)
            return 2
        if netlist is None:
            return 2
        if isinstance(netlist, SequentialBench):
            # Sequential benches lint their combinational core; the
            # flip-flop boundary carries no lintable structure.
            netlist = netlist.core
        findings.extend(lint_netlist(netlist))
    sources = []
    for spec in servant_specs:
        resolved = _resolve_servant_spec(spec)
        if resolved is None:
            return 2
        sources.append(resolved)
    if sources:
        try:
            findings.extend(lint_sources(sources))
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    kept, dropped = filter_suppressed(findings, suppress)
    record_lint_run(kept, dropped)
    print(format_findings(kept, fmt=args.format))
    threshold = Severity.parse(args.fail_on)
    failing = any(item.severity >= threshold for item in kept)
    return 1 if failing else 0


def _cmd_all(args: argparse.Namespace) -> int:
    """A reduced-scale pass over every experiment, one screen each."""
    quick = args.quick
    print("=" * 66)
    print("Table 1 -- power estimators")
    print("=" * 66)
    _cmd_table1(argparse.Namespace(width=6 if quick else 8,
                                   patterns=80 if quick else 150))
    print()
    print("=" * 66)
    print("Table 2 -- AL / ER / MR scenarios")
    print("=" * 66)
    _cmd_table2(argparse.Namespace(width=8 if quick else 16,
                                   patterns=40 if quick else 100,
                                   buffer=5,
                                   workers=getattr(args, "workers", 0)))
    print()
    print("=" * 66)
    print("Figure 3 -- buffer-size sweep")
    print("=" * 66)
    from .bench.scenarios import run_buffer_sweep
    percents = [1, 5, 10, 25, 50, 100] if quick else \
        [1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    series = run_buffer_sweep(percents, width=8 if quick else 16,
                              patterns=40 if quick else 100)
    print(format_table(["Buffer %", "Real (s)", "CPU (s)"],
                       [[pct, f"{real:.1f}", f"{cpu:.1f}"]
                        for pct, real, cpu in series]))
    print()
    print("=" * 66)
    print("Figures 4-5 -- virtual fault simulation")
    print("=" * 66)
    _cmd_figure4(argparse.Namespace())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the JavaCAD paper's experiments.")
    # Telemetry options shared by every subcommand (after the command):
    # repro-bench table2 --trace-out trace.json --metrics-out metrics.json
    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write a Chrome about:tracing trace of the run to FILE")
    telemetry.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write a JSON metrics snapshot of the run to FILE")
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       parser_class=lambda **kw:
                                       argparse.ArgumentParser(
                                           parents=[telemetry], **kw))

    table1 = subparsers.add_parser(
        "table1", help="power-estimator comparison (Table 1)")
    table1.add_argument("--width", type=int, default=8)
    table1.add_argument("--patterns", type=int, default=150)
    table1.set_defaults(fn=_cmd_table1)

    table2 = subparsers.add_parser(
        "table2", help="AL/ER/MR timing scenarios (Table 2)")
    table2.add_argument("--width", type=int, default=16)
    table2.add_argument("--bench", default=None, metavar="BENCH",
                        help="run the scenarios over a corpus bench or "
                             ".bench file instead of the Figure 2 "
                             "multiplier (sequential benches thread "
                             "their register state client-side)")
    table2.add_argument("--patterns", type=int, default=100)
    table2.add_argument("--buffer", type=int, default=5)
    _add_campaign_options(
        table2,
        engine_help="logic-simulation engine under the provider's "
                    "servants and the bench evaluations (default: "
                    "compiled; event is the interpreted oracle; rows are "
                    "identical either way)",
        workers_help="run scenarios concurrently on N worker processes")
    table2.set_defaults(fn=_cmd_table2)

    figure3 = subparsers.add_parser(
        "figure3", help="buffer-size sweep (Figure 3)")
    figure3.add_argument("--width", type=int, default=16)
    figure3.add_argument("--patterns", type=int, default=100)
    figure3.set_defaults(fn=_cmd_figure3)

    figure4 = subparsers.add_parser(
        "figure4", help="half-adder fault-simulation example "
                        "(Figures 4-5)")
    figure4.set_defaults(fn=_cmd_figure4)

    faultsim = subparsers.add_parser(
        "faultsim", help="fault simulation of a .bench netlist "
                         "(serial or sharded across workers)")
    faultsim.add_argument("netlist",
                          help="ISCAS .bench file or builtin bench "
                               f"({', '.join(BUILTIN_BENCHES)})")
    faultsim.add_argument("--patterns", type=int, default=64)
    faultsim.add_argument("--seed", type=int, default=0)
    faultsim.add_argument("--collapse", default="equivalence",
                          choices=["none", "equivalence", "dominance"])
    faultsim.add_argument("--history", action="store_true",
                          help="plot incremental coverage")
    faultsim.add_argument("--remote", metavar="HOST:PORT",
                          action="append", default=None,
                          help="farm shards out to a remote fault-farm "
                               "worker (repeatable; start workers with "
                               "the faultworker subcommand)")
    faultsim.add_argument("--remote-token", metavar="TOKEN", default=None,
                          help="bearer token sent to --remote endpoints "
                               "as the connection's first frame (match "
                               "the worker's --auth-token)")
    faultsim.add_argument("--remote-ca", metavar="PEM", default=None,
                          help="CA bundle for TLS to --remote endpoints "
                               "(enables TLS; match the worker's "
                               "--tls-cert)")
    faultsim.add_argument("--rmi-timeout", type=_positive_seconds,
                          metavar="SECONDS", default=DEFAULT_TCP_TIMEOUT,
                          help="socket timeout for calls to --remote "
                               "endpoints (default %(default)s)")
    faultsim.add_argument("--rmi-connect-timeout", type=_positive_seconds,
                          metavar="SECONDS",
                          default=DEFAULT_CONNECT_TIMEOUT,
                          help="timeout for the TCP connect and TLS/AUTH "
                               "handshake to --remote endpoints (default "
                               "%(default)s; dead hosts fail this fast)")
    _add_campaign_options(
        faultsim,
        engine_help="gate-simulation engine: the compiled pattern-packed "
                    "(PPSFP) kernel (the default) or the interpreted "
                    "event-driven oracle; reports are identical either "
                    "way",
        workers_help="shard the fault list across N worker processes; "
                     "with --remote, scales the shard count instead")
    faultsim.add_argument("--report-out", metavar="FILE", default=None,
                          help="write the full report (detected map, "
                               "coverage, undetected) as JSON to FILE")
    faultsim.set_defaults(fn=_cmd_faultsim)

    faultworker = subparsers.add_parser(
        "faultworker", help="serve fault-simulation shards to remote "
                            "faultsim --remote clients")
    _add_server_options(faultworker)
    faultworker.set_defaults(fn=_cmd_faultworker)

    serve = subparsers.add_parser(
        "serve", help="host the multiplier IP provider + fault farm on "
                      "the multi-tenant server")
    serve.add_argument("--width", type=int, default=8,
                       help="bit width of the published multiplier IP")
    _add_campaign_options(
        serve,
        engine_help="logic-simulation engine under the served detection "
                    "tables (default: compiled; event is the interpreted "
                    "oracle; replies are identical either way)")
    _add_server_options(serve)
    serve.set_defaults(fn=_cmd_serve)

    atpg = subparsers.add_parser(
        "atpg", help="generate a stuck-at test set for a .bench netlist")
    atpg.add_argument("netlist",
                      help="ISCAS .bench file or builtin bench "
                           f"({', '.join(BUILTIN_BENCHES)})")
    atpg.add_argument("--random-patterns", type=int, default=32)
    atpg.add_argument("--seed", type=int, default=0)
    atpg.add_argument("--max-backtracks", type=int, default=20_000,
                      metavar="N",
                      help="PODEM backtrack budget per fault; faults "
                           "over budget are reported as aborted "
                           "(default 20000)")
    atpg.add_argument("--collapse", default="equivalence",
                      choices=["none", "equivalence", "dominance"])
    atpg.add_argument("--show-patterns", action="store_true")
    _add_campaign_options(
        atpg,
        engine_help="fault-simulation engine for the random phase and "
                    "per-pattern dropping (default: compiled)",
        workers_help="shard target faults across N worker processes")
    atpg.set_defaults(fn=_cmd_atpg)

    scoap = subparsers.add_parser(
        "scoap", help="SCOAP testability report for a .bench netlist")
    scoap.add_argument("netlist",
                       help="ISCAS .bench file or builtin combinational "
                            "bench")
    scoap.add_argument("--top", type=int, default=20,
                       help="show the N hardest nets")
    scoap.set_defaults(fn=_cmd_scoap)

    lint = subparsers.add_parser(
        "lint", help="static design lint + RMI servant code analysis "
                     "(runs nothing, reports JCD0xx findings)")
    lint.add_argument("--design", metavar="BENCH", action="append",
                      default=None,
                      help="ISCAS .bench file or builtin bench to lint "
                           f"({', '.join(BUILTIN_BENCHES)}; repeatable; "
                           "defective files are loaded unvalidated so "
                           "every finding is reported)")
    lint.add_argument("--servants", metavar="PATH", action="append",
                      default=None,
                      help="source file, directory or importable module "
                           "of servant classes to analyze (repeatable)")
    lint.add_argument("--format", choices=["text", "json"],
                      default="text", help="output format")
    lint.add_argument("--fail-on", choices=["warning", "error"],
                      default="error", dest="fail_on",
                      help="exit nonzero when a finding of this "
                           "severity (or worse) survives suppression")
    lint.add_argument("--suppress", metavar="CODE", action="append",
                      default=None,
                      help="drop findings of a rule code for this run "
                           "(repeatable, e.g. --suppress JCD002)")
    lint.set_defaults(fn=_cmd_lint)

    everything = subparsers.add_parser(
        "all", help="run every paper experiment (use --quick for a "
                    "reduced-scale pass)")
    everything.add_argument("--quick", action="store_true")
    _add_campaign_options(
        everything,
        workers_help="run independent scenarios on N worker processes")
    everything.set_defaults(fn=_cmd_all)
    return parser


def _check_output_paths(parser: argparse.ArgumentParser,
                        args: argparse.Namespace) -> None:
    """Reject unwritable output destinations before any work runs.

    A --report-out (or trace/metrics) path whose directory does not
    exist used to surface only *after* a potentially long run, throwing
    the completed results away; every output flag is validated up
    front instead.
    """
    for attribute in ("trace_out", "metrics_out", "report_out"):
        path = getattr(args, attribute, None)
        if not path:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            option = "--" + attribute.replace("_", "-")
            parser.error(f"{option}: directory {parent!r} does not exist")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_output_paths(parser, args)
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace_out is None and metrics_out is None:
        return args.fn(args)

    from contextlib import ExitStack

    from .telemetry import telemetry_session

    with ExitStack() as stack:
        # Open the output files before running so a bad path fails
        # fast instead of discarding a completed run.
        try:
            trace_file = stack.enter_context(open(trace_out, "w")) \
                if trace_out else None
            metrics_file = stack.enter_context(open(metrics_out, "w")) \
                if metrics_out else None
        except OSError as exc:
            parser.error(f"cannot write telemetry output: {exc}")
        with telemetry_session(trace_out=trace_file,
                               metrics_out=metrics_file):
            code = args.fn(args)
    if trace_out:
        print(f"trace written to {trace_out} "
              f"(load it in chrome://tracing or ui.perfetto.dev)")
    if metrics_out:
        print(f"metrics written to {metrics_out}")
    return code


if __name__ == "__main__":  # pragma: no cover - direct invocation
    sys.exit(main())
