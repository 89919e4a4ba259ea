"""CI lint: deleted mechanisms must stay deleted.

Usage: must_stay_deleted.py   (from the repository root)

Every simplification PR removed a duplicate mechanism and left one
place that still does the job.  Each row of ``RULES`` names what must
not come back: a regular expression, where it is searched (``*.py``
under those paths), the one file allowed to match it (``None``: no
file may) and what a match means.  ``exactly`` additionally fixes how
many lines of the allowed file match.  Prints every offending line and
exits 1 if any rule is broken.
"""

import os
import re
import sys
from typing import NamedTuple, Optional, Sequence


class Rule(NamedTuple):
    pattern: str
    scope: Sequence[str]
    allowed: Optional[str]
    message: str
    exactly: Optional[int] = None


SRC = ("src/repro",)
RMI = ("src/repro/rmi",)
WIRE = ("src/repro/rmi", "src/repro/server")
TRANSPORT = "src/repro/rmi/transport.py"
CLI = "src/repro/cli.py"

RULES = (
    # PR 13: one TCP server, framing in one module.
    Rule(r"_tcp_serve_connection|max_pending", WIRE, None,
         "the second TCP server or its queue options are back"),
    Rule(re.escape('struct.pack(">I"'), WIRE, "src/repro/rmi/protocol.py",
         "length-prefix framing spelled outside rmi/protocol.py"),
    # PR 15: one RMI round trip, one dispatch entry.
    Rule(r"def (_invoke|_invoke_batch|_account_batch)\b", RMI, None,
         "a hand-matched invoke body is back"),
    Rule(r"_encode_reply|_encode_batch_reply|_dispatch_encoded", SRC, None,
         "a second reply-encode helper is back"),
    Rule(r"from \.\.rmi\.server import .*\b_", ("src/repro/server",), None,
         "the front end reaches into rmi.server's private names"),
    Rule(r"def _round_trip", RMI, TRANSPORT,
         "there is one _round_trip, in rmi/transport.py", exactly=1),
    Rule(re.escape("tracer.span("), (TRANSPORT,), TRANSPORT,
         "rmi/transport.py opens its span in one place", exactly=1),
    # PR 14: one fault-simulation surface, one engine-selection point.
    Rule(r"_cmd_faultsim_sequential|AnyFaultSimulator", SRC, None,
         "a second faultsim command or simulator union is back"),
    Rule(re.escape("isinstance(fast, SerialFaultSimulator)") + "|"
         + re.escape('hasattr(simulator, "outputs_for_faults")'), SRC, None,
         "an engine branch point is back"),
    Rule(re.escape('== "compiled"'), SRC, "src/repro/compiled/engine.py",
         "an engine is being chosen outside compiled/engine.py"),
    # PR 20: `engine` picks the logic simulator and nothing else.
    Rule(r"CompiledToggleModel|toggle_cls|model_factory", SRC, None,
         "the engine flag is picking a power estimator again"),
    Rule(r'engine_default|engine: str = "event"|"engine", "event"', SRC,
         None, "a provider-path default names an engine (None means "
               "DEFAULT_ENGINE, written in compiled/engine.py only)"),
    # PR 21: one event wave, over the netlist's integer event table.
    Rule(r"def reader_gates|def gate_levels|heappush\(wave, \(",
         ("src/repro/gates",), None,
         "the name-keyed event wave or its two lookup tables are back "
         "(the oracle lives in tests/gates/reference_event.py)"),
    # PR 22: the event path follows Port.route / can_read / can_write.
    Rule(r"peer_of\(|\.direction\.can_",
         ("src/repro/core/module.py", "src/repro/core/controller.py"),
         None, "the event path scans a connector for its peer or "
               "evaluates a PortDirection property per token again"),
    # PR 23: an endpoint is told the campaign, not each shard.
    Rule(r"begin_shard|collect_report|RemoteShard", SRC, None,
         "the per-shard farm protocol (patterns re-shipped and bench "
         "re-resolved with every shard) is back"),
    # PR 24: a connection's wire is what its constructor was given.
    Rule(r"WIRE_OPTIONS|wire_session|class WireOptions|_cmd_wirebench"
         r"|rmi_batch|rmi_cache|rmi_max_batch", SRC, None,
         "wire options are ambient again, or the showcase command is back"),
    # PR 25: concurrency defects are caught by tests that run the code.
    Rule(r"lint\.callgraph|lint\.concurrency|lint_concurrency|CallGraph"
         r"|allow\(JCD01[4-8]\)", SRC, None,
         "the concurrency lint was retired for behavioural tests; add a "
         "test, not a rule"),
    # One fan-out protocol, local and remote.
    Rule(r"_simulate_fault_shard|payload_of|weighted: bool"
         r"|chunks_per_worker|patterns_per_call", ("src/repro/parallel",),
         None, "the local pool is told the campaign once; a shard is its "
               "fault names"),
    # Exact packed power: a buffer is one run of the compiled kernel.
    Rule(r"EventDrivenState|def _power\b", ("src/repro/ip",), None,
         "the power servant steps the event wave per pattern again"),
    # One connection context: a tenant's state lives in its connection.
    Rule(r"call_session_factory|fallback_ids|inspect\.signature"
         r"|self\._sessions\b|self\._campaigns\b",
         ("src/repro/ip", "src/repro/server", "src/repro/parallel"), None,
         "a servant or the server keys tenant state outside the "
         "connection context again"),
    # Blocks sized to the live faults: no fixed-width campaign loop.
    Rule(re.escape("range(0, len(patterns), WORD_BITS)"),
         ("src/repro/compiled",), None,
         "the compiled campaign steps fixed 64-pattern blocks again "
         "(a block is SUPERWORD_BITS // live patterns)"),
    # A lane run picks its flavour from the run's lanes word: no scan of
    # every site's mask, and one hooked entry point.
    Rule(r"max\(fm\b|def run_lanes", ("src/repro/compiled",), None,
         "a hooked kernel run scans every site's mask again, or lane "
         "runs have a second entry point beside run_fault (it compares "
         "the care words with the run's lanes word)"),
    # One shard per worker: no fixed split of each worker's share.
    Rule(r"DEFAULT_CHUNKS_PER_WORKER|default_shard_count", SRC, None,
         "the default cut splits each worker's share into several shards "
         "again (run_sharded cuts one per worker; stealing is asked for "
         "with --workers or shards=)"),
    # One hop per served call: a Protocol splits frames, one queue
    # feeds the dispatch threads.
    Rule(r"run_in_executor|ThreadPoolExecutor|StreamReader|readexactly"
         r"|wait_for\(", ("src/repro/server",), None,
         "the front end reads frames through streams or hands calls to "
         "an executor again (frames are split in _Connection and reach "
         "the dispatch threads through one SimpleQueue)"),
    # A campaign costs its kernel: patterns cross the farm as rows.
    Rule(r"dict\(pattern\) for pattern", ("src/repro/parallel",), None,
         "the farm ships or copies Logic-dict patterns again (a pattern "
         "crosses as one row of text, packed once per campaign)"),
    Rule(re.escape('"01XZ"') + "|" + re.escape("'01XZ'"), SRC,
         "src/repro/compiled/ppsfp.py",
         "a second table between pattern-row characters and Logic "
         "values (PATTERN_ALPHABET is the one)", exactly=1),
    # A shard runs from its rows and its campaign ends with its
    # connection.
    Rule(r"_unpack_rows|_LOGIC_OF_CHAR", SRC, "src/repro/compiled/ppsfp.py",
         "a farm shard decodes its rows into Logic dicts again (a compiled "
         "shard packs its words from the row text; a row becomes a dict "
         "only when an event-engine shard reads PatternRows)", exactly=2),
    Rule(r"end_campaign", SRC, None,
         "the pool sends end_campaign again (a campaign lives in its "
         "connection's context; closing the connection ends it)"),
    # Figure 5 pays for its events: the public model picks no engine.
    Rule(re.escape("NetlistSimulator("), ("src/repro/bench",), None,
         "a bench builder picks a simulator class again (the public "
         "functional model runs simulator_for(None, netlist), like "
         "everything else that means the default engine)"),
    # The CLI refuses in one place and runs each experiment one way.
    Rule(r'"error: |return 2$', SRC, CLI,
         "a command prints its own error or returns 2 again (it raises "
         "DesignError; main() alone prints the error: line)", exactly=2),
    Rule(r"def _load_bench\b|def _load_netlist\b", SRC, None,
         "a print-and-return-None bench loader is back (commands call "
         "gates.corpus.load_bench and let its DesignError reach main())"),
    Rule(r"ok, ssl_context|return (True|False), ", (CLI,), None,
         "a CLI helper reports (ok, value) pairs again"),
    Rule(r"def _serve_until_interrupted\b|sleep\(3600", SRC, None,
         "the serve sleep loop is back (one wait ends on --serve-seconds, "
         "SIGINT or SIGTERM, then the server stops)"),
    Rule(r"ExitStack|def _check_output_paths\b", (CLI,), None,
         "telemetry outputs are opened apart from the one output check "
         "again"),
    Rule(re.escape("run_buffer_sweep("), (CLI,), CLI,
         "`all` sweeps Figure 3 with its own copy again (it calls "
         "_cmd_figure3)", exactly=1),
    # Delete what nothing reaches (ROADMAP 8(a)).
    Rule(r"def (dump_trace|dump_metrics|dump_summary|run_source_lint"
         r"|max_severity|get_telemetry|branch_count|read_port"
         r"|inner_modules)\b", SRC, None,
         "an API nothing executed is back (give it a caller or a test "
         "the system needs first)"),
    Rule(r"def (keys|row|describe|__contains__|__enter__|__exit__)\b",
         ("src/repro/bench/scenarios.py", "src/repro/rmi/caching.py",
          "src/repro/faults/transition.py",
          "src/repro/server/async_server.py"), None,
         "a method nothing executed is back (ScenarioResult.row, "
         "CachePolicy.describe, TransitionFaultList.__contains__, the "
         "AsyncRMIServer context manager)"),
    Rule(r"def keys\b", ("src/repro/cache/response.py",), None,
         "ResponseCache.keys is back, and nothing executes it"),
    # One multi-core serving shape: the process tier pre-forks whole
    # thread-tier servers and hands each one its sockets.
    Rule(r"ProcessPoolExecutor|BrokenProcessPool", ("src/repro/server",),
         None, "the process tier ships frames to an executor again (its "
               "children are whole servers that own their connections)"),
    Rule(r"ProcessDispatcher|_FACTORIES", ("src/repro/server",), None,
         "sticky session-to-worker routing is back (a connection stays "
         "on the child it was handed to)"),
    # A process-tier child counts into its slot of a shared map.
    Rule(r"_merge_sent_reports|_REPORT_BYTES|json\.dumps\(report",
         ("src/repro/server",), None,
         "process-tier children report their counts over the socket "
         "pairs again (each child writes its slot of the parent's shared "
         "map as a count changes; the parent only reads)"),
    # Servant contracts are checked by running the servants.
    Rule(r"lint\.servants|lint_sources|lint_servant_source|lint: allow"
         r"|cacheable_methods|tables_served|registered_value_types", SRC,
         None, "the servant source lint, its waivers or a hook only it "
               "read is back (tests/ip/test_servant_contracts.py calls "
               "the servants and reads their replies)"),
    # A publish exports opaque fault names, always.
    Rule(r"publish_netlist_component|obfuscate_faults", SRC, None,
         "a publish path that can export structural fault names is back "
         "(IPProvider._publish builds every .test fault list opaque)"),
    # An injection run is copy on write over the fault-free run.
    Rule(r"\bprime_all\b|\bfault_free = \{connector", (*SRC, "tests",
                                                    "examples"), None,
         "full-snapshot priming is back (an injection reads the "
         "fault-free run's values through SimulationController's "
         "fallback= and clears only the tables it touched)"),
    Rule(r"\bfallback=", SRC, "src/repro/faults/virtual.py",
         "a copy-on-write controller is built outside Figure 5's "
         "injection run", exactly=1),
    # A context holds no reference to its controller (no cycle: both
    # are freed by reference counting), and an injection compares only
    # the primary-output tables its run touched.
    Rule(r"self\.controller = controller|\b(ctx|context)\.controller\b",
         (*SRC, "tests", "examples"), None,
         "SimulationContext.controller is back (a controller <-> "
         "context cycle leaves every run to the cyclic collector)"),
    Rule(r"\b_observe\(", (*SRC, "tests", "examples"), None,
         "a per-injection _observe of every primary output is back "
         "(copy on write: only the output tables the run touched can "
         "differ from the fault-free run)"),
    # The silicon reads kernel lanes; a publish characterizes once.
    Rule(r"EventDrivenState|NetlistSimulator", ("src/repro/power",), None,
         "a power model steps the interpreted event wave again (every "
         "model reads toggles off the compiled kernel's lanes; the wave "
         "is the oracle in tests/)"),
    Rule(r"SiliconReference\(", ("src/repro/ip",),
         "src/repro/ip/provider.py",
         "a publish runs the silicon more than once (one power sequence "
         "feeds the constant, the regression and the calibration)",
         exactly=1),
    # A single-pattern power call is one kernel run and a few whole-array
    # operations.
    Rule(r"reduceat", ("src/repro/power",), None,
         "a gate's changed inputs are OR-ed per gate over a flat pin list "
         "again (every gate reads the padded pin matrix, _Plan.pins)"),
    # A process loads only the layers it runs.
    Rule(r"^\s*(import numpy|from numpy)",
         tuple(f"src/repro/{name}" for name in (
             "cache", "core", "net", "rmi", "server", "telemetry",
             "parallel", "compiled", "faults", "gates")), None,
         "numpy is imported below the power layer (it stays in "
         "repro.power, which no served child loads)"),
    Rule(r"^from \. import|^import repro\.", ("src/repro/__init__.py",),
         None, "the package root imports a subpackage eagerly again "
               "(each loads on first use through its __getattr__)"),
    # Validation is the linter: each structure owns one findings().
    Rule(r"def check\(self\)", ("src/repro/core/design.py",), None,
         "Circuit.check is back (Circuit.findings is the one structural "
         "check; repro lint prints it)"),
    Rule(r"def lint_circuit|def lint_netlist", SRC, None,
         "a second walk over a circuit or netlist is back in the lint "
         "(run_lint calls the structure's own findings())"),
    Rule(r'"JCD004"', SRC, None,
         "the retired width-mismatch rule is back (Connector.attach "
         "refuses a width mismatch as the wiring is built)"),
    # A publish binds .test without building its fault list.
    Rule(r"= (fault_list or )?build_fault_list\(",
         ("src/repro/ip/provider.py", "src/repro/faults/virtual.py"), None,
         "the eager build is gone: a publish or a TestabilityServant "
         "builds its fault list only on the first read of .faults"),
    # A remote call pays for its bytes and its servant.
    Rule(re.escape("marshal(self.to_wire())"), ("src/repro/rmi/protocol.py",),
         None, "a frame is marshalled through its to_wire() dict again "
               "(each frame writes its own text, field by field)"),
    Rule(r"def entered\(", ("src/repro/core/ids.py",), None,
         "entered is a generator context manager again (it is a class: "
         "every served call enters one)"),
    Rule(r'what = \(?f"(calling|sending)', (TRANSPORT,), None,
         "_round_trip names its exchange on every call again (the text "
         "is built by _what, only for an error)"),
    Rule(r"\[0::2\] \| .*\[1::2\]", ("src/repro/power",), None,
         "a power model undoes interleaved kernel words again (the "
         "kernel returns a value plane and a care plane)"),
    # A fault list is built over the numbered universe.
    Rule(r"_UnionFind", SRC, None,
         "the name-keyed union-find is back (collapsing unions universe "
         "indices; tests/faults/reference_faultlist.py keeps the old "
         "builder)"),
    Rule(r"\bname_at\b|def _pin_site\b|def _site\b", SRC, None,
         "the (net, gate, pin, value) site map to fault names is back "
         "(a pin's fault is its universe index)"),
)


def python_files(scope):
    for spec in scope:
        if os.path.isfile(spec):
            yield spec
        elif os.path.isdir(spec):
            for root, _dirs, files in os.walk(spec):
                for name in files:
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            sys.exit(f"no such path {spec!r}: run from the repository root")


def broken(rule):
    """The lines that break ``rule``, as printable strings."""
    pattern = re.compile(rule.pattern)
    outside, inside = [], 0
    for path in sorted(python_files(rule.scope)):
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if not pattern.search(line):
                    continue
                if path == rule.allowed:
                    inside += 1
                else:
                    outside.append(f"{path}:{number}: {line.rstrip()}")
    if rule.exactly not in (None, inside):
        outside.append(f"{rule.allowed}: {inside} matching line(s), "
                       f"expected {rule.exactly}")
    return outside


def main():
    failures = 0
    for rule in RULES:
        lines = broken(rule)
        if lines:
            failures += 1
            print(f"FAIL: {rule.message}  [{rule.pattern}]")
            print("\n".join(f"  {line}" for line in lines))
    print(f"must stay deleted: {len(RULES) - failures} of {len(RULES)} "
          f"rules hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
