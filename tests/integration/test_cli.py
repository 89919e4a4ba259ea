"""The repro-bench command-line interface."""

import glob
import json
import os
import signal
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.gates.io import C17_BENCH


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.command == "table1"
        for command in ("table2", "figure3", "figure4"):
            assert parser.parse_args([command]).command == command

    def test_faultsim_arguments(self):
        args = build_parser().parse_args(
            ["faultsim", "x.bench", "--patterns", "10", "--collapse",
             "dominance", "--history"])
        assert args.netlist == "x.bench"
        assert args.patterns == 10
        assert args.collapse == "dominance"
        assert args.history

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_figure4(self, capsys):
        assert main(["figure4"]) == 0
        out = capsys.readouterr().out
        assert "I6sa1" in out
        assert "1100 detects I3sa0: False" in out
        assert "1101 detects I3sa0: True" in out

    def test_figure3_small(self, capsys):
        assert main(["figure3", "--width", "4", "--patterns", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("Figure 3 -- real and CPU time vs "
                                   "pattern buffer size")
        assert lines[1].split() == ["Buffer", "%", "Real", "(s)", "CPU",
                                    "(s)"]
        assert [line.split()[0] for line in lines[3:16]] == [
            "1", "2", "5", "10", "20", "30", "40", "50", "60", "70", "80",
            "90", "100"]
        assert lines[17].startswith("wall clock time (y: ")
        assert any("*" in line for line in lines[18:])

    def test_table1_small(self, capsys):
        assert main(["table1", "--width", "4", "--patterns", "40"]) == 0
        out = capsys.readouterr().out
        assert "gate-level-toggle" in out
        assert "constant-power" in out

    def test_faultsim_on_c17(self, tmp_path, capsys):
        bench = tmp_path / "c17.bench"
        bench.write_text(C17_BENCH)
        assert main(["faultsim", str(bench), "--patterns", "32",
                     "--history"]) == 0
        out = capsys.readouterr().out
        assert "6 gates" in out
        assert "coverage" in out

    def test_faultsim_no_collapse(self, tmp_path, capsys):
        bench = tmp_path / "c17.bench"
        bench.write_text(C17_BENCH)
        assert main(["faultsim", str(bench), "--collapse", "none",
                     "--patterns", "16"]) == 0
        assert "faults" in capsys.readouterr().out

    def test_all_quick(self, capsys):
        assert main(["all", "--quick"]) == 0
        out = capsys.readouterr().out
        for marker in ("Table 1", "Table 2", "Figure 3",
                       "Figures 4-5", "gate-level-toggle"):
            assert marker in out

    def test_scoap_on_c17(self, tmp_path, capsys):
        bench = tmp_path / "c17.bench"
        bench.write_text(C17_BENCH)
        assert main(["scoap", str(bench), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "CC0" in out and "CO" in out
        assert "6 gates" in out

    def test_scoap_accepts_a_builtin_bench(self, capsys):
        assert main(["scoap", "c17", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "6 gates" in out and "CC0" in out

    @pytest.mark.parametrize("spec, message", [
        ("no_such_file", "neither a file nor a builtin"),
        ("s27", "is a sequential bench (3 flip-flops); scoap takes "
                "combinational netlists only")])
    def test_scoap_bad_input_is_one_error_line(self, spec, message,
                                               capsys):
        assert main(["scoap", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1

    def test_atpg_on_c17(self, tmp_path, capsys):
        bench = tmp_path / "c17.bench"
        bench.write_text(C17_BENCH)
        assert main(["atpg", str(bench), "--random-patterns", "4",
                     "--show-patterns"]) == 0
        out = capsys.readouterr().out
        assert "coverage 100.0%" in out
        assert "SCOAP hardest site" in out
        assert "patterns (" in out


class TestOutputPathValidation:
    """Bad output destinations must be rejected before any work runs."""

    def _missing(self, tmp_path):
        return str(tmp_path / "no" / "such" / "dir" / "out.json")

    def test_report_out_missing_dir_fails_fast(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["faultsim", "figure4", "--patterns", "4",
                  "--report-out", self._missing(tmp_path)])
        err = capsys.readouterr().err
        assert "--report-out" in err
        # Nothing ran: the run's banner never printed.
        assert "faults" not in capsys.readouterr().out

    def test_trace_out_missing_dir_fails_fast(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["figure4", "--trace-out", self._missing(tmp_path)])
        assert "--trace-out" in capsys.readouterr().err

    def test_metrics_out_missing_dir_fails_fast(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["figure4", "--metrics-out", self._missing(tmp_path)])
        assert "--metrics-out" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["figure4", "--trace-out"], "cannot write telemetry output: "),
        (["figure4", "--metrics-out"], "cannot write telemetry output: "),
        (["faultsim", "figure4", "--patterns", "4", "--report-out"],
         "cannot write report output: ")])
    def test_unwritable_output_fails_fast(self, argv, message, tmp_path,
                                          capsys):
        """A directory where a file should go: refused before the run,
        --report-out included (it used to fail after the campaign)."""
        with pytest.raises(SystemExit) as caught:
            main(argv + [str(tmp_path)])
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_valid_report_path_still_writes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["faultsim", "figure4", "--patterns", "4",
                     "--report-out", str(out)]) == 0
        assert out.exists()


class TestCorpusBenches:
    """Every campaign command accepts builtin corpus names, including
    the sequential s-series."""

    @pytest.mark.parametrize("bench", ["alu8", "ecc32", "alu32",
                                       "mult8"])
    def test_faultsim_compiled_on_corpus(self, bench, capsys):
        assert main(["faultsim", bench, "--engine", "compiled",
                     "--patterns", "16"]) == 0
        assert "coverage" in capsys.readouterr().out

    def test_faultsim_sequential_serial(self, capsys):
        assert main(["faultsim", "s27", "--patterns", "20"]) == 0
        out = capsys.readouterr().out
        assert "3 flip-flops" in out
        assert "clock cycles" in out
        assert "coverage" in out

    def test_faultsim_sequential_accepts_one_worker(self, tmp_path):
        """One worker *is* the serial path (it used to exit 2)."""
        out = tmp_path / "s27.json"
        assert main(["faultsim", "s27", "--patterns", "20",
                     "--workers", "1", "--report-out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["engine"] == "sequential-event"
        assert report["workers"] == 1
        assert report["flip_flops"] == 3

    def test_faultsim_default_engine_is_compiled(self, tmp_path, capsys):
        """No ``--engine``: the compiled kernel, and a report equal to
        the event oracle's in every other key."""
        reports = {}
        for label, flags in (("default", []),
                             ("event", ["--engine", "event"])):
            out = tmp_path / f"{label}.json"
            assert main(["faultsim", "figure4", "--patterns", "32",
                         "--workers", "1", "--report-out", str(out)]
                        + flags) == 0
            reports[label] = json.loads(out.read_text())
        assert "compiled engine" in capsys.readouterr().out
        assert reports["default"].pop("engine") == "compiled"
        assert reports["event"].pop("engine") == "event"
        assert set(reports["event"]) == {
            "netlist", "gates", "collapse", "patterns", "seed", "workers",
            "total_faults", "detected", "coverage", "undetected",
            "coverage_history"}
        assert json.dumps(reports["default"]) \
            == json.dumps(reports["event"])

    def test_faultsim_sequential_rejects_compiled_engine(self, capsys):
        assert main(["faultsim", "s27", "--engine", "compiled",
                     "--patterns", "4"]) == 2
        err = capsys.readouterr().err
        assert "sequential bench" in err
        assert "read_sequential_bench" in err
        assert "repro.faults.sequential" in err

    @pytest.mark.parametrize("flag", [["--workers", "4"],
                                      ["--remote", "h:9001"]])
    def test_faultsim_sequential_rejects_parallel_flags(self, flag,
                                                        capsys):
        assert main(["faultsim", "s27", "--patterns", "4"] + flag) == 2
        assert "repro.faults.sequential" in capsys.readouterr().err

    @pytest.mark.parametrize("bench", ["alu8", "ecc32", "alu32",
                                       "mult8", "s27", "salu8"])
    def test_lint_accepts_corpus(self, bench, capsys):
        assert main(["lint", "--design", bench]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_atpg_on_corpus(self, capsys):
        # A tight backtrack budget keeps the deterministic phase quick;
        # random-resistant alu8 faults are reported as aborted instead.
        assert main(["atpg", "alu8", "--random-patterns", "64",
                     "--engine", "compiled",
                     "--max-backtracks", "50"]) == 0
        assert "coverage" in capsys.readouterr().out

    def test_atpg_sequential_goes_full_scan(self, capsys):
        assert main(["atpg", "s27", "--random-patterns", "16"]) == 0
        out = capsys.readouterr().out
        assert "full-scan" in out
        assert "coverage" in out

    def test_table2_over_corpus_bench(self, capsys):
        assert main(["table2", "--bench", "s27", "--patterns",
                     "10"]) == 0
        out = capsys.readouterr().out
        assert "Table 2 over bench 's27'" in out
        for scenario in ("AL", "ER", "MR"):
            assert scenario in out

    def test_table2_unknown_bench_fails(self, capsys):
        assert main(["table2", "--bench", "c9999", "--patterns",
                     "4"]) == 2
        assert "neither a file" in capsys.readouterr().err

    def test_unknown_bench_lists_corpus(self, capsys):
        assert main(["faultsim", "c9999", "--patterns", "4"]) == 2
        err = capsys.readouterr().err
        assert "neither a file" in err
        assert "mult16" in err


class TestRemoteFarmCli:
    def test_remote_flag_is_repeatable(self):
        args = build_parser().parse_args(
            ["faultsim", "figure4", "--remote", "h1:9001",
             "--remote", "h2:9002"])
        assert args.remote == ["h1:9001", "h2:9002"]

    def test_faultworker_arguments(self):
        args = build_parser().parse_args(
            ["faultworker", "--port", "9001", "--serve-seconds", "0.5"])
        assert args.port == 9001
        assert args.serve_seconds == 0.5

    def test_faultworker_has_no_async_flag(self, capsys):
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(["faultworker", "--async"])
        assert caught.value.code == 2
        assert "--async" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve", "--idle-timeout", "0"],
        ["serve", "--idle-timeout", "-1"],
        ["serve", "--max-connections", "0"],
        ["faultworker", "--max-connections", "0"],
    ], ids=" ".join)
    def test_non_positive_server_limits_are_usage_errors(self, argv,
                                                         capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[1]}: must be positive" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["table1", "--patterns", "0"],
        ["table1", "--width", "0"],
        ["table2", "--width", "0"],
        ["serve", "--width", "0"],
        ["table2", "--buffer", "0"],
        ["table2", "--buffer", "-1"],
        ["figure3", "--patterns", "0"],
        ["faultsim", "figure4", "--patterns", "-3"],
        ["atpg", "c17", "--random-patterns", "-1"],
        ["atpg", "c17", "--max-backtracks", "-1"],
        ["scoap", "c17", "--top", "-1"],
        ["faultworker", "--serve-seconds", "0"],
        # NaN passed a `<= 0` check, then crashed the serve wait or
        # spun the event loop; inf crashed the serve wait.
        ["faultworker", "--serve-seconds", "nan"],
        ["faultworker", "--serve-seconds", "inf"],
        ["serve", "--serve-seconds", "0.5", "--idle-timeout", "nan"],
        ["faultsim", "c17", "--rmi-timeout", "inf"],
    ], ids=" ".join)
    def test_nonsensical_counts_are_usage_errors(self, argv, capsys):
        """Every count and duration option is typed: a value that used
        to crash or run as given is refused before any work, with one
        error line."""
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be " in err
        assert err.count("error:") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--tls-cert", "--tls-key"])
    def test_half_a_tls_pair_is_refused(self, flag, capsys):
        assert main(["faultworker", flag, "x.pem"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: --tls-cert and --tls-key must be "
                                "given together\n")
        assert captured.out == ""

    def test_serve_stops_after_serve_seconds(self, capsys):
        assert main(["serve", "--serve-seconds", "0.2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("repro server serving")
        assert out[-2].startswith("server stats:")
        assert out[-1] == "repro server stopped"

    def test_plain_faultworker_runs_the_multi_tenant_front_end(self):
        """No flags: the readiness line, then two clients at once, each
        in its own session (one connection context per connection)."""
        src = os.path.join(os.path.dirname(__file__), os.pardir,
                           os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        cli = [sys.executable, "-u", "-m", "repro.cli"]
        worker = subprocess.Popen(
            cli + ["faultworker"], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            ready = worker.stdout.readline()
            assert ready.startswith(
                "fault farm worker serving on 127.0.0.1:"), ready
            faultsim = cli + ["faultsim", "figure4", "--patterns", "16",
                              "--remote", ready.split()[-1]]
            clients = [subprocess.Popen(faultsim, env=env, text=True,
                                        stdout=subprocess.PIPE)
                       for _ in range(2)]
            reports = [client.communicate(timeout=120)[0]
                       for client in clients]
            assert [client.returncode for client in clients] == [0, 0]
            assert "23/24 detected" in reports[0]
            assert reports[0] == reports[1]
        finally:
            worker.send_signal(signal.SIGINT)
            log = worker.communicate(timeout=60)[0]
        assert worker.returncode == 0
        stats = next(line for line in log.splitlines()
                     if line.startswith("server stats:"))
        assert "accepted=2 " in stats and "sessions=2 " in stats
        assert "auth_failures=0 " in stats and "drained=True" in stats
        assert log.splitlines()[-1] == "fault farm worker stopped"

    def test_faultsim_remote_end_to_end(self, capsys):
        from repro.parallel.remote import register_fault_farm
        from repro.rmi.server import JavaCADServer

        servers = []
        endpoints = []
        try:
            for index in range(2):
                server = JavaCADServer(f"cli-farm{index}")
                register_fault_farm(server)
                host, port = server.serve_tcp("127.0.0.1", 0)
                servers.append(server)
                endpoints.append(f"{host}:{port}")
            argv = ["faultsim", "figure4", "--patterns", "16"]
            for endpoint in endpoints:
                argv += ["--remote", endpoint]
            assert main(argv) == 0
        finally:
            for server in servers:
                server.stop_tcp()
        out = capsys.readouterr().out
        assert "farmed across 2 remote endpoint(s)" in out


def _running(pid):
    """Whether ``pid`` exists and is not a zombie (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the worker's children from /proc")
@pytest.mark.parametrize("dispatch", ["thread", "process"])
def test_sigterm_stops_the_server_and_its_workers(dispatch):
    """SIGTERM (how container runtimes stop a job) ends a server like
    SIGINT: exit 0, the stats line, and no forked dispatch worker left
    behind (they used to outlive the parent with ppid 1)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    worker = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "faultworker",
         "--dispatch", dispatch, "--port", "0"], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        ready = worker.stdout.readline()
        assert "serving on" in ready, ready
        # Workers fork from the server's loop thread, so read the
        # children of every task, not only the main thread's.
        children = set()
        for path in glob.glob(f"/proc/{worker.pid}/task/*/children"):
            with open(path) as handle:
                children.update(int(pid) for pid in handle.read().split())
        assert bool(children) == (dispatch == "process")
        worker.send_signal(signal.SIGTERM)
        log = worker.communicate(timeout=10)[0]
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.communicate()
    assert worker.returncode == 0, log
    assert any(line.startswith("server stats:")
               for line in log.splitlines()), log
    assert [pid for pid in children if _running(pid)] == []


def test_a_terminal_ctrl_c_drains_the_process_tier():
    """A terminal's Ctrl-C signals the whole process group: the
    children must leave the shutdown to the parent's drain, not die
    first and be counted (and re-forked) as deaths."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    worker = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "faultworker",
         "--dispatch", "process", "--port", "0"], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        start_new_session=True)
    try:
        ready = worker.stdout.readline()
        assert "serving on" in ready, ready
        os.killpg(worker.pid, signal.SIGINT)
        log = worker.communicate(timeout=10)[0]
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.communicate()
    assert worker.returncode == 0, log
    assert "worker_deaths=0 drained=True" in log, log
