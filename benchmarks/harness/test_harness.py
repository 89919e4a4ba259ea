"""Self-tests of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/harness/test_harness.py -q
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from children import ChildServer, ChildServerError  # noqa: E402
from hostspeed import REFERENCE_S, Speed, between, read_speed  # noqa: E402
from spans import Tracer, covered  # noqa: E402
from stats import median, percentile, spread_share  # noqa: E402
from workloads import WORKLOADS, Rep  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class TestStats:
    def test_median_and_empty_sample(self):
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 2, 3]) == 2.5
        assert median([]) == 0.0

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.0) == 1
        assert percentile(values, 0.5) == 51
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.0) == 100
        assert percentile([], 0.5) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 1.5)

    def test_spread_is_interquartile_share_of_median(self):
        assert spread_share([10.0]) == 0.0
        assert spread_share([10.0] * 8) == 0.0
        values = [90, 95, 98, 100, 100, 102, 105, 110]
        import statistics
        first, middle, third = statistics.quantiles(values, n=4)
        assert spread_share(values) == (third - first) / middle


class TestHostSpeed:
    def test_factors_scale_to_reference_speed(self):
        slow = Speed(wall_s=2 * REFERENCE_S, cpu_s=4 * REFERENCE_S)
        assert slow.wall_factor == 0.5
        assert slow.cpu_factor == 0.25
        assert between(slow, Speed(4 * REFERENCE_S, 4 * REFERENCE_S)) \
            == Speed(3 * REFERENCE_S, 4 * REFERENCE_S)

    def test_reading_puts_the_affinity_back(self):
        import os
        mine = os.sched_getaffinity(0)
        speed = read_speed(sorted(mine))
        assert speed.wall_s > 0 and speed.cpu_s > 0
        assert os.sched_getaffinity(0) == mine

    def test_metrics_are_corrected_and_keep_the_time_as_measured(self):
        half_speed = Speed(2 * REFERENCE_S, 2 * REFERENCE_S)
        rep = Rep(wall_s=2.0, cpu_s=1.0, latencies_ms=[2000.0],
                  speed=half_speed)
        cells = run.end_to_end([run.Timed(3.0, half_speed)], [rep], 10.0)
        assert cells["setup_s"]["value"] == 1.5
        assert cells["setup_s"]["raw"] == 3.0
        assert cells["op_p50_ms"]["value"] == 1000.0
        assert cells["op_p50_ms"]["raw"] == 2000.0
        assert cells["ops_per_s"]["value"] == 1.0
        assert cells["ops_per_s"]["raw"] == 0.5
        assert cells["host_cpu_ms_per_op"]["value"] == 500.0
        assert "raw" not in cells["peak_rss_mb"]


class TestSpans:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered(0, 10, [(1, 3), (2, 5)]) == 4
        assert covered(0, 10, [(-5, 2), (8, 20)]) == 4
        assert covered(0, 10, []) == 0

    def test_self_time_is_duration_minus_child_cover(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", "a"):
            with tracer.span("inner", "b"):
                time.sleep(0.02)
            time.sleep(0.01)
        outer, = [s for s in tracer.spans if s.name == "outer"]
        inner, = [s for s in tracer.spans if s.name == "inner"]
        assert inner.parent is outer
        self_times = tracer.self_times()
        assert self_times[id(inner)] == inner.duration
        assert self_times[id(outer)] == pytest.approx(
            outer.duration - inner.duration)
        table = {row["span"]: row for row in tracer.layer_table()}
        assert table["outer"]["self_ms"] < table["outer"]["total_ms"]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        with tracer.span("x", "y"):
            pass
        assert tracer.spans == []

    def test_chrome_trace_links_children_to_parents(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", "a"):
            with tracer.span("inner", "b"):
                pass
        events = tracer.chrome_trace()["traceEvents"]
        by_name = {event["name"]: event for event in events}
        assert by_name["inner"]["args"]["parent"] \
            == by_name["outer"]["args"]["id"]
        assert all(event["ph"] == "X" for event in events)


class TestBenchmarkFile:
    def test_keys_are_exactly_the_contract(self):
        assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"}
        assert BENCHMARK["paths"] == ["benchmarks/harness"]

    def test_names_units_and_counts(self):
        names = []
        for metric in BENCHMARK["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
            names.append(metric["name"])
        for metric in BENCHMARK["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
            names.append(metric["name"])
        for workload in BENCHMARK["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200
            assert "\n" not in workload["why"]
            names.append(workload["name"])
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
        assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
        assert 1 <= len(BENCHMARK["per_layer"]) <= 128
        assert 2 <= len(BENCHMARK["workloads"]) <= 8

    def test_setup_metric_has_the_largest_bound(self):
        bounds = {metric["name"]: metric["bound"]
                  for metric in BENCHMARK["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values())

    def test_workloads_match_the_code(self):
        assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] \
            == [(cls.name, cls.why) for cls in WORKLOADS]

    def test_exact_layer_bounds_name_declared_metrics(self):
        declared = {metric["name"] for metric in BENCHMARK["per_layer"]}
        assert set(compare.EXACT_LAYER_BOUNDS) <= declared


class TestCompare:
    def test_verdicts(self):
        steady = [100, 101, 99, 100, 100]
        assert compare.verdict(steady, [101, 102, 100, 101, 101],
                               "lower", 0.10)[0] == "unchanged"
        assert compare.verdict(steady, [120, 121, 119, 120, 122],
                               "lower", 0.10)[0] == "regressed"
        assert compare.verdict(steady, [80, 81, 79, 80, 82],
                               "lower", 0.10)[0] == "improved"
        assert compare.verdict(steady, [80, 81, 79, 80, 82],
                               "higher", 0.10)[0] == "regressed"
        noisy = [70, 100, 130, 85, 115]
        assert compare.verdict(steady, noisy, "lower", 0.10)[0] \
            == "unresolved"
        far = [10, 20, 30, 15, 25]
        assert compare.verdict(steady, far, "lower", 0.10)[0] == "improved"

    def test_exact_metric_moves_are_regressions(self):
        assert compare.verdict([257], [258], "lower", 0.0)[0] == "regressed"
        assert compare.verdict([257], [257], "lower", 0.0)[0] == "unchanged"

    def test_ratio_carries_its_base(self):
        assert compare.ratio_text(200.0, 210.0, "ms") \
            == "1.0500 (base 200 ms)"


class TestChildLifecycle:
    def test_dead_child_is_a_named_error(self):
        child = ChildServer("probe", "token", ROOT / "src")
        try:
            assert child.port > 0
            child.process.kill()
            child.process.wait()
            with pytest.raises(ChildServerError, match="died"):
                child.check_alive()
        finally:
            child.kill()

    def test_child_that_never_announces_is_a_named_error(self):
        with pytest.raises(ChildServerError, match="before printing"):
            ChildServer("no-such-kind", "token", ROOT / "src")

    def test_stop_returns_the_stats_snapshot(self):
        with ChildServer("probe", "token", ROOT / "src") as child:
            report = child.stop()
        assert report["stats"]["calls_served"] == 0
        assert report["stats"]["protocol_errors"] == 0
        assert child.process.poll() is not None


class TestEndToEnd:
    def test_quick_mode_runs_all_six_workloads_under_30s(self, tmp_path):
        out = tmp_path / "quick.json"
        begin = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--quick",
             "--out", str(out)], cwd=tmp_path, capture_output=True,
            text=True, timeout=120)
        elapsed = time.perf_counter() - begin
        assert done.returncode == 0, done.stdout + done.stderr
        assert elapsed < 30, elapsed
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert {"cpu_count", "cpu_affinity", "python", "platform",
                "git_commit", "utc_date"} <= set(doc["env"])
        assert list(doc["workloads"]) == [cls.name for cls in WORKLOADS]
        for entry in doc["workloads"].values():
            assert entry["correct"] and entry["failed"] == 0
            for metric in BENCHMARK["end_to_end"]:
                cell = entry["end_to_end"][metric["name"]]
                assert cell["value"] > 0 and cell["samples"] >= 1
        assert compare.main(["compare.py", str(out), str(out)]) == 0

    def test_driver_line_is_last_and_complete(self, tmp_path):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--quick", "--workload",
             "serve_small_calls", "--seed", "5", "--trace", "1"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert set(line["metrics"]) == {metric["name"] for metric
                                        in BENCHMARK["per_layer"]}
        assert (tmp_path / "bench_out"
                / "trace-serve_small_calls.json").exists()

    def test_refuses_to_run_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / "benchmarks" / "harness",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "benchmarks/harness/run.py", "--workload",
             "table2_wan", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=tmp_path, capture_output=True, text=True,
            timeout=60)
        assert done.returncode != 0
        assert done.stdout == ""
