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
