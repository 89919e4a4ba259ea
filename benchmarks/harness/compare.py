"""Compare two sets of ``run.py --out`` results: A the base, B the change.

    python3 benchmarks/harness/compare.py A.json B.json
    python3 benchmarks/harness/compare.py A1.json,A2.json,... B1.json,...

Each side is one result file or a comma-separated set of them (say ten
runs, one per seed, as the acceptance driver makes).  A cell's value is
the median over the side's runs; its spread is the interquartile
distance of the runs over that median.  Every (workload, end-to-end
metric) cell gets one verdict against the bound ``BENCHMARK.json``
fixes for the metric:

``improved``    B is better than A by more than the bound
``unchanged``   B is within the bound of A
``regressed``   B is worse than A by more than the bound
``unresolved``  the run-to-run spread of A or B is wider than the
                bound, and B's runs are not all on one side of A's

Simulated per-layer metrics are host-independent, so they are held to
the tight bounds below; the other per-layer metrics are listed with
their ratio for information only.  Every ratio is printed with its
base.  Exits non-zero on any ``regressed`` cell or failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from stats import median, spread_share

ROOT = Path(__file__).resolve().parents[2]

EXACT_LAYER_BOUNDS = {
    "net.virtual_real_s": 0.005, "net.virtual_cpu_s": 0.005,
    "net.wire_bytes": 0.005, "net.al.virtual_real_s": 0.005,
    "net.er_wan.virtual_real_s": 0.005, "net.mr_wan.virtual_real_s": 0.005,
    "net.er_wan.wire_bytes": 0.005, "net.mr_wan.wire_bytes": 0.005,
    "net.round_trips": 0.0, "core.injection_runs": 0.0,
    "faults.virtual.table_fetches": 0.0, "faults.detected": 0.0,
    "faults.coverage": 0.0,
}
"""Bounds for the simulated (host-independent) per-layer metrics."""


def worsening(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` is worse (negative: better)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def all_beyond(base: Sequence[float], new: Sequence[float],
               better: str, improved: bool) -> bool:
    """Whether every sample of ``new`` is on one side of all of ``base``."""
    if not base or not new:
        return False
    if (better == "lower") == improved:
        return max(new) < min(base)
    return min(new) > max(base)


def verdict(base_values: Sequence[float], new_values: Sequence[float],
            better: str, bound: float) -> Tuple[str, float]:
    """The cell's verdict and the wider of the two sides' spreads."""
    worse = worsening(median(base_values), median(new_values), better)
    spread = max(spread_share(base_values), spread_share(new_values))
    if spread > bound:
        if all_beyond(base_values, new_values, better, improved=True):
            return "improved", spread
        if worse > bound and all_beyond(base_values, new_values, better,
                                        improved=False):
            return "regressed", spread
        return "unresolved", spread
    if worse > bound:
        return "regressed", spread
    if worse < -bound:
        return "improved", spread
    return "unchanged", spread


def ratio_text(base: float, new: float, unit: str) -> str:
    ratio = f"{new / base:.4f}" if base else "n/a"
    return f"{ratio} (base {base:.6g} {unit})"


def runs_of(docs: Sequence[Dict[str, Any]],
            workload: str) -> List[Dict[str, Any]]:
    return [doc["workloads"][workload] for doc in docs
            if workload in doc["workloads"]]


def compare(base_docs: Sequence[Dict[str, Any]],
            new_docs: Sequence[Dict[str, Any]],
            benchmark: Dict[str, Any]) -> Tuple[List[List[Any]], bool]:
    """Rows of the comparison table and whether anything is bad."""
    rows: List[List[Any]] = []
    bad = False
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        base = runs_of(base_docs, workload)
        new = runs_of(new_docs, workload)
        if not base or not new:
            continue
        for side, runs in (("A", base), ("B", new)):
            failed = sum(run["failed"] for run in runs)
            if failed or not all(run["correct"] for run in runs):
                bad = True
                attempted = sum(run["attempted"] for run in runs)
                rows.append([workload, "failed operations", side,
                             f"{failed} of {attempted}", "", "", "FAILED"])
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [run["end_to_end"][name]["value"] for run in base]
            b = [run["end_to_end"][name]["value"] for run in new]
            outcome, spread = verdict(a, b, metric["better"],
                                      metric["bound"])
            bad = bad or outcome == "regressed"
            rows.append([workload, name, f"{median(b):.6g}",
                         ratio_text(median(a), median(b), metric["unit"]),
                         f"{spread:.3f}", f"{metric['bound']:.3f}",
                         outcome])
        for metric in benchmark["per_layer"]:
            name = metric["name"]
            a = [run["per_layer"][name] for run in base
                 if name in run.get("per_layer", {})]
            b = [run["per_layer"][name] for run in new
                 if name in run.get("per_layer", {})]
            if not a or not b:
                continue
            bound = EXACT_LAYER_BOUNDS.get(name)
            outcome = "info"
            if bound is not None:
                outcome, _ = verdict(a, b, metric["better"], bound)
                bad = bad or outcome == "regressed"
            rows.append([workload, name, f"{median(b):.6g}",
                         ratio_text(median(a), median(b), metric["unit"]),
                         "", "" if bound is None else f"{bound:.3f}",
                         outcome])
    return rows, bad


def load_set(argument: str) -> List[Dict[str, Any]]:
    docs = []
    for path in argument.split(","):
        with open(path) as handle:
            docs.append(json.load(handle))
    return docs


def main(argv: Sequence[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    base_docs = load_set(argv[1])
    new_docs = load_set(argv[2])
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    for key in ("schema_version", "quick"):
        a, b = ({doc[key] for doc in docs}
                for docs in (base_docs, new_docs))
        if a != b:
            print(f"note: {key} differs: A={sorted(a)} B={sorted(b)}")
    for key in ("cpu_count", "python", "platform"):
        a, b = ({doc["env"][key] for doc in docs}
                for docs in (base_docs, new_docs))
        if a != b:
            print(f"note: environment {key} differs: A={sorted(a)} "
                  f"B={sorted(b)}")
    rows, bad = compare(base_docs, new_docs, benchmark)
    headers = ["workload", "metric", "B", "B/A", "spread", "bound",
               "verdict"]
    widths = [max(len(str(row[i])) for row in rows + [headers])
              for i in range(len(headers))]
    for row in [headers] + rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
