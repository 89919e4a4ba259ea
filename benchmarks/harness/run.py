"""One command for every benchmark number this repository reports.

    python3 benchmarks/harness/run.py [--workload W] [--seed N]
        [--seconds S | --reps K] [--trace {0,1} | --traced] [--quick]
        [--out FILE] [--trace-out FILE] [--selfcheck]

Runs the workloads named in ``BENCHMARK.json`` (all six, or one),
prints every metric by name with its unit, checks every rep against an
oracle and exits non-zero on any mismatch.  End-to-end numbers always
come from an untraced pass; ``--trace 1`` adds a second pass with
harness-side spans switched on plus the per-layer microbenchmarks, and
writes a Chrome trace.  With ``--workload`` the last line of standard
output is the result object the acceptance driver reads.  See
``README.md`` beside this file for the metric and workload glossary.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
SOURCE_ROOT = ROOT / "src"
if not (SOURCE_ROOT / "repro").is_dir():
    sys.exit(f"benchmark harness: no program to measure at "
             f"{SOURCE_ROOT / 'repro'}")
sys.path.insert(0, str(SOURCE_ROOT))

from repro.bench import format_table, run_scenario  # noqa: E402
from repro.parallel import reset_session_state  # noqa: E402
from repro.telemetry import telemetry_session  # noqa: E402

from hostspeed import Bracket, Speed, between, read_speed  # noqa: E402
from spans import Tracer  # noqa: E402
from stats import median  # noqa: E402
from children import Host  # noqa: E402
from workloads import (DEFAULT_SEED, TOKEN, WORKLOADS, Rep,  # noqa: E402
                       Table2Wan, VirtualFaultsimWan, Workload)

SCHEMA_VERSION = 1
HERE = Path(__file__).resolve().parent
MAX_SETUPS = 3
SETUP_BUDGET_S = 3.0
"""Set-up is repeated (and the median reported) until it has been run
``MAX_SETUPS`` times or has used this many seconds in total."""

TRACED_PASS_SHARE = 0.4
"""Share of ``--seconds`` each of the two passes of a traced run gets;
the rest pays for the per-layer microbenchmarks, so that a traced run
takes about as long as an untraced one."""


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def load_golden() -> Dict[str, Any]:
    with open(HERE / "golden.json") as handle:
        return json.load(handle)


def environment(host: Host) -> Dict[str, Any]:
    """The stamp every result file carries."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(host.cpus),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "utc_date": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
    }


# ----------------------------------------------------------------------
# Running one workload
# ----------------------------------------------------------------------

@dataclass
class Timed:
    """One timed interval and the host's speed around it."""

    seconds: float
    speed: Speed


def set_up(workload: Workload) -> List[Timed]:
    """Set the program up, repeatedly while cheap; one entry per set-up."""
    samples: List[Timed] = []
    while True:
        with Bracket() as bracket:
            begin = time.perf_counter()
            with workload.tracer.span("harness.setup", "harness"):
                workload.setup()
            seconds = time.perf_counter() - begin
        samples.append(Timed(seconds, bracket.speed))
        if len(samples) >= MAX_SETUPS or sum(
                sample.seconds for sample in samples) >= SETUP_BUDGET_S:
            return samples
        workload.finish()


def measure(workload: Workload, seconds: float, reps: Optional[int],
            min_reps: int) -> List[Rep]:
    """Run reps for ``seconds`` (at least ``min_reps``) or ``reps`` times."""
    done: List[Rep] = []
    cpus = workload.cpus()
    before = read_speed(cpus)
    begin = time.perf_counter()
    while (len(done) < reps if reps
           else len(done) < min_reps
           or time.perf_counter() - begin < seconds):
        with workload.tracer.span("harness.rep", "harness"):
            done.append(workload.rep())
        after = read_speed(cpus)
        done[-1].speed = between(before, after)
        before = after
    return done


def op_ms(rep: Rep) -> float:
    """The rep's median operation, at reference speed."""
    return median(rep.latencies_ms) * rep.speed.wall_factor


def median_op_ms(reps: Sequence[Rep]) -> float:
    """The median rep's median operation."""
    return median([op_ms(rep) for rep in reps])


def sample(values: Sequence[float], unit: str,
           raw: Optional[Sequence[float]] = None) -> Dict[str, Any]:
    """One reported number: the median of the per-rep ``values``.

    ``raw`` are the same samples as measured, before the host-speed
    correction; the result file keeps them beside the corrected ones.
    """
    cell = {"value": median(values), "unit": unit, "samples": len(values),
            "values": list(values)}
    if raw is not None:
        cell["raw"] = median(raw)
        cell["raw_values"] = list(raw)
    return cell


def end_to_end(setups: Sequence[Timed], reps: Sequence[Rep],
               peak_rss_mb: float) -> Dict[str, Dict[str, Any]]:
    """Every timing at reference speed (see ``hostspeed.py``)."""
    ops = [len(rep.latencies_ms) for rep in reps]
    return {
        "setup_s": sample(
            [setup.seconds * setup.speed.wall_factor for setup in setups],
            "s", raw=[setup.seconds for setup in setups]),
        "op_p50_ms": sample(
            [op_ms(rep) for rep in reps], "ms",
            raw=[median(rep.latencies_ms) for rep in reps]),
        "ops_per_s": sample(
            [count / (rep.wall_s * rep.speed.wall_factor)
             for count, rep in zip(ops, reps)], "1/s",
            raw=[count / rep.wall_s for count, rep in zip(ops, reps)]),
        "host_cpu_ms_per_op": sample(
            [rep.cpu_s * rep.speed.cpu_factor * 1e3 / count
             for count, rep in zip(ops, reps)], "ms",
            raw=[rep.cpu_s * 1e3 / count for count, rep in zip(ops, reps)]),
        "peak_rss_mb": sample([peak_rss_mb], "MB"),
    }


def telemetry_overhead(workload: Workload, baseline_ms: float) -> float:
    """One rep inside ``telemetry_session`` relative to the plain reps."""
    with telemetry_session():
        rep, = measure(workload, 0.0, 1, 1)
    workload.problems.extend(f"with telemetry on: {problem}"
                             for problem in rep.problems)
    return op_ms(rep) / baseline_ms


def judge(reps: Sequence[Rep], golden: Optional[str]) -> List[str]:
    """Cross-rep checks: pinned digest, simulated metrics standing still."""
    problems: List[str] = []
    for index, rep in enumerate(reps):
        if rep.exact != reps[0].exact:
            problems.append(f"rep {index}: simulated metrics differ from "
                            f"rep 0 ({rep.exact} != {reps[0].exact})")
        if golden is not None and rep.digest != golden:
            problems.append(f"rep {index}: report digest {rep.digest} "
                            f"differs from the pinned {golden}")
    return problems


def run_workload(cls, args: argparse.Namespace, golden: Dict[str, Any],
                 host: Host) -> Dict[str, Any]:
    tracer = Tracer()
    workload: Workload = cls(args.seed, args.quick, tracer, host)
    traced = bool(args.trace)
    seconds = args.seconds * (TRACED_PASS_SHARE if traced else 1.0)
    min_reps = 2 if traced else 3
    layer: Dict[str, float] = {}
    traced_reps: List[Rep] = []
    try:
        setups = set_up(workload)
        workload.build_oracle()
        workload.warm_up()
        reps = measure(workload, seconds, args.reps, min_reps)
        if traced:
            tracer.enabled = True
            traced_reps = measure(workload, seconds, args.reps, min_reps)
            layer.update(traced_reps[-1].exact)
            layer.update(workload.layer_metrics(traced_reps))
            tracer.enabled = False
            layer["trace.overhead_ratio"] = (median_op_ms(traced_reps)
                                             / median_op_ms(reps))
            if workload.in_process:
                layer["telemetry.on_overhead_ratio"] = telemetry_overhead(
                    workload, median_op_ms(reps))
    finally:
        layer.update(workload.finish())

    pinned = None
    if args.seed == golden["seed"]:
        pinned = golden["quick" if args.quick else "full"].get(cls.name)
    all_reps = list(reps) + traced_reps
    problems = workload.problems + judge(all_reps, pinned)
    attempted = sum(len(rep.latencies_ms) for rep in all_reps)
    failed = sum(len(rep.latencies_ms) for rep in all_reps
                 if rep.problems)
    if problems and not failed:
        # A broken oracle or child report condemns every operation.
        failed = attempted
    for rep in all_reps:
        problems.extend(rep.problems)
    entry: Dict[str, Any] = {
        "why": cls.why,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "digest": reps[0].digest,
        "reps": len(reps),
        "end_to_end": end_to_end(setups, reps, workload.peak_rss_mb()),
    }
    if traced:
        entry["per_layer"] = layer
        entry["span_table"] = tracer.layer_table()
        trace_out = Path(args.trace_out
                         or f"bench_out/trace-{cls.name}.json")
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_out, "w") as handle:
            json.dump(tracer.chrome_trace(), handle)
        entry["trace_file"] = str(trace_out)
    return entry


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def print_entry(name: str, entry: Dict[str, Any],
                benchmark: Dict[str, Any]) -> None:
    status = "ok" if entry["correct"] else "FAILED"
    print(f"\n== {name}: {status}, {entry['attempted']} operations "
          f"attempted, {entry['failed']} failed, {entry['reps']} reps")
    for problem in entry["problems"]:
        print(f"   problem: {problem}")
    print(format_table(
        ["end-to-end metric", "value", "unit", "samples", "as measured"],
        [[metric, f"{cell['value']:.6g}", cell["unit"], cell["samples"],
          f"{cell['raw']:.6g}" if "raw" in cell else ""]
         for metric, cell in entry["end_to_end"].items()]))
    if "per_layer" not in entry:
        return
    units = {metric["name"]: metric["unit"]
             for metric in benchmark["per_layer"]}
    print(format_table(
        ["per-layer metric", "value", "unit"],
        [[metric, f"{value:.6g}", units[metric]]
         for metric, value in sorted(entry["per_layer"].items())]))
    print(format_table(
        ["span", "layer", "count", "total ms", "self ms"],
        [[row["span"], row["layer"], row["count"],
          f"{row['total_ms']:.3f}", f"{row['self_ms']:.3f}"]
         for row in entry["span_table"]]))
    print(f"Chrome trace written to {entry['trace_file']}")


def driver_line(entry: Dict[str, Any], benchmark: Dict[str, Any],
                traced: bool) -> str:
    """The result object the acceptance driver reads (last stdout line)."""
    if traced:
        metrics = {metric["name"]: {
            # 0 marks a layer this workload does not exercise.
            "value": entry["per_layer"].get(metric["name"], 0.0),
            "unit": metric["unit"]} for metric in benchmark["per_layer"]}
    else:
        metrics = {metric["name"]: {
            "value": entry["end_to_end"][metric["name"]]["value"],
            "unit": metric["unit"]} for metric in benchmark["end_to_end"]}
    return json.dumps({"correct": entry["correct"],
                       "attempted": entry["attempted"],
                       "failed": entry["failed"], "metrics": metrics})


# ----------------------------------------------------------------------
# Determinism guard
# ----------------------------------------------------------------------

def selfcheck(args: argparse.Namespace, host: Host) -> int:
    """Simulated-clock workloads twice in one process, then a new seed."""
    failures: List[str] = []

    def prepared(cls, seed: int) -> Workload:
        workload = cls(seed, args.quick, Tracer(), host)
        workload.setup()
        workload.build_oracle()
        return workload

    for cls in (Table2Wan, VirtualFaultsimWan):
        workload = prepared(cls, args.seed)
        first, second = workload.rep(), workload.rep()
        if first.exact != second.exact or first.digest != second.digest:
            failures.append(f"{cls.name}: two reps in one process differ: "
                            f"{first.exact} / {second.exact}")
        other = prepared(cls, args.seed + 1).rep()
        if other.digest == first.digest:
            failures.append(f"{cls.name}: seed {args.seed + 1} repeats "
                            f"seed {args.seed}'s report")
        failures.extend(f"{cls.name}: {problem}" for problem in
                        first.problems + second.problems + other.problems)
        print(f"{cls.name}: exact metrics {first.exact}")
        print(f"{cls.name}: digest {first.digest} (seed {args.seed}), "
              f"{other.digest} (seed {args.seed + 1}, oracle-checked)")

    # The seeded Table 2 cell must be run_scenario's cell at its seed 0.
    size = Table2Wan.QUICK if args.quick else Table2Wan.FULL
    table2 = prepared(Table2Wan, 0)
    for mode, network in Table2Wan.SCENARIOS:
        reset_session_state()
        library = run_scenario(mode, network, width=size["width"],
                               patterns=size["patterns"],
                               buffer_size=size["buffer"],
                               collect_powers=True)
        reset_session_state()
        ours = table2.run(mode, network, 0)
        if ours != library:
            failures.append(f"run_figure2({mode}) != run_scenario: "
                            f"{ours} / {library}")
        else:
            print(f"run_figure2({mode}) matches repro.bench.run_scenario "
                  f"at seed 0")
    for failure in failures:
        print(f"SELFCHECK FAILED: {failure}")
    return 1 if failures else 0


# ----------------------------------------------------------------------

def parse_args(benchmark: Dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[
        workload["name"] for workload in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--reps", type=int,
                        help="fixed rep count instead of --seconds (>= 3)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, three short reps: smoke use")
    parser.add_argument("--out", help="write the full result file here")
    parser.add_argument("--trace-out",
                        help="Chrome trace path (single workload)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="determinism guard instead of a benchmark")
    args = parser.parse_args()
    if args.reps is not None and args.reps < 3:
        parser.error("--reps must be at least 3")
    if args.trace_out and not args.workload:
        parser.error("--trace-out needs --workload")
    if args.quick and args.reps is None:
        args.reps = 3
    return args


def main() -> int:
    benchmark = load_benchmark()
    args = parse_args(benchmark)
    host = Host(SOURCE_ROOT, TOKEN)
    host.pin_harness()
    if args.selfcheck:
        return selfcheck(args, host)
    golden = load_golden()
    entries: Dict[str, Dict[str, Any]] = {}
    for cls in WORKLOADS:
        if args.workload in (None, cls.name):
            entries[cls.name] = run_workload(cls, args, golden, host)
            print_entry(cls.name, entries[cls.name], benchmark)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"schema_version": SCHEMA_VERSION,
                       "env": environment(host), "seed": args.seed,
                       "quick": args.quick, "traced": bool(args.trace),
                       "workloads": entries}, handle, indent=1)
    if args.workload:
        print(driver_line(entries[args.workload], benchmark,
                          bool(args.trace)))
    return 0 if all(entry["correct"] for entry in entries.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
