"""The CLI's --workers / --report-out / --rmi-timeout plumbing."""

import json

import pytest

from repro.cli import main
from repro.core.errors import ParallelExecutionError, RemoteError
from repro.gates.io import c17
from repro.parallel import (parallel_fault_simulate,
                            parallel_generate_test_set,
                            remote_fault_simulate)
from repro.rmi.transport import (DEFAULT_CONNECT_TIMEOUT,
                                 DEFAULT_TCP_TIMEOUT, TcpTransport)


class TestFaultsimWorkers:
    def test_builtin_bench_accepted(self, capsys):
        assert main(["faultsim", "c17", "--patterns", "8"]) == 0
        out = capsys.readouterr().out
        assert "6 gates" in out
        assert "coverage" in out

    def test_unknown_bench_rejected(self, capsys):
        assert main(["faultsim", "no-such-bench"]) == 2
        assert "neither a file nor a builtin" in capsys.readouterr().err

    def test_parallel_report_equals_serial_report(self, tmp_path,
                                                  capsys):
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(["faultsim", "figure4", "--patterns", "16",
                     "--workers", "1",
                     "--report-out", str(serial_path)]) == 0
        assert main(["faultsim", "figure4", "--patterns", "16",
                     "--workers", "2",
                     "--report-out", str(parallel_path)]) == 0
        capsys.readouterr()
        serial = json.loads(serial_path.read_text())
        parallel = json.loads(parallel_path.read_text())
        assert parallel["workers"] == 2
        for key in ("total_faults", "detected", "coverage", "undetected",
                    "coverage_history"):
            assert parallel[key] == serial[key], key

    def test_workers_line_printed_for_parallel_runs(self, capsys):
        assert main(["faultsim", "figure4", "--patterns", "8",
                     "--workers", "2"]) == 0
        assert "sharded across 2 workers" in capsys.readouterr().out


class TestAtpgWorkers:
    def test_parallel_atpg_reaches_serial_coverage(self, capsys):
        assert main(["atpg", "c17", "--workers", "2",
                     "--random-patterns", "8"]) == 0
        out = capsys.readouterr().out
        assert "coverage 100.0%" in out


@pytest.fixture
def refused_connects(monkeypatch):
    """Every TCP connect is refused at once (a deterministic refusal:
    no retry, no sleeping); yields the transports that tried."""
    tried = []

    def connect(transport):
        tried.append(transport)
        raise RemoteError("refused by the test")

    monkeypatch.setattr(TcpTransport, "connect", connect)
    return tried


class TestRmiTimeoutFlag:
    REMOTE = ["faultsim", "figure4", "--patterns", "4",
              "--remote", "127.0.0.1:1", "--remote", "127.0.0.1:2"]

    def test_flags_reach_the_tcp_transports(self, refused_connects):
        with pytest.raises(ParallelExecutionError, match="refused"):
            main(self.REMOTE + ["--rmi-timeout", "9.5",
                                "--rmi-connect-timeout", "0.25"])
        assert sorted(t.port for t in refused_connects) == [1, 2]
        assert {(t.timeout, t.connect_timeout)
                for t in refused_connects} == {(9.5, 0.25)}

    def test_unset_flags_are_the_transport_defaults(self,
                                                    refused_connects):
        with pytest.raises(ParallelExecutionError, match="refused"):
            main(self.REMOTE)
        assert {(t.timeout, t.connect_timeout) for t in refused_connects} \
            == {(DEFAULT_TCP_TIMEOUT, DEFAULT_CONNECT_TIMEOUT)}

    def test_nonpositive_timeout_rejected(self, capsys):
        for flag in ("--rmi-timeout", "--rmi-connect-timeout"):
            with pytest.raises(SystemExit) as exit_info:
                main(["faultsim", "c17", flag, "0"])
            assert exit_info.value.code == 2
            assert f"argument {flag}: must be positive" \
                in capsys.readouterr().err


class TestNegativeWorkers:
    """A negative worker count is refused up front: a usage error on
    the CLI, ParallelExecutionError from every Python entry point
    (the remote one before it opens a connection)."""

    @pytest.mark.parametrize("command", ["faultsim", "atpg"])
    def test_cli_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "c17", "--workers", "-1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] \
            == [f"repro-bench {command}: error: argument --workers: "
                f"must be non-negative, got -1"]

    def test_local_entry_points_raise(self):
        with pytest.raises(ParallelExecutionError, match=">= 0"):
            parallel_fault_simulate(c17(), [], workers=-1)
        with pytest.raises(ParallelExecutionError, match=">= 0"):
            parallel_generate_test_set(c17(), workers=-1)

    def test_remote_entry_point_raises(self, refused_connects):
        with pytest.raises(ParallelExecutionError, match=">= 0"):
            remote_fault_simulate("c17", [], ["127.0.0.1:1"], workers=-1)
        assert refused_connects == []


class TestDeletedWireFlags:
    """The ambient wire switches and their showcase command are gone:
    argparse refuses them (exit 2, usage message, no traceback)."""

    @pytest.mark.parametrize("argv", [
        ["table2", "--rmi-batch"],
        ["table2", "--rmi-cache"],
        ["table2", "--rmi-max-batch", "8"],
        ["table1", "--rmi-timeout", "3"],
        ["wirebench"],
    ], ids="".join)
    def test_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "Traceback" not in err


class TestTable2Workers:
    ROWS = [["AL", "NA", "1", "1"],
            ["ER", "localhost", "2", "2"], ["MR", "localhost", "4", "6"],
            ["ER", "lan", "2", "2"], ["MR", "lan", "4", "6"],
            ["ER", "wan", "2", "17"], ["MR", "wan", "4", "64"]]
    """What ``table2 --width 4 --patterns 10`` printed before the
    ambient wire flags went (no connection it builds changed)."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_rows_are_pinned_for_any_worker_count(self, workers, capsys):
        assert main(["table2", "--width", "4", "--patterns", "10",
                     "--workers", workers]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split() for line in lines[3:]] == self.ROWS
