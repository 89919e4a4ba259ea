"""The ``repro lint`` subcommand: formats, thresholds, exit codes."""

import json
import os

import pytest

from repro.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
LOOP = os.path.join(DATA, "loop.bench")
UNDRIVEN = os.path.join(DATA, "undriven.bench")
FIXTURES = os.path.join(os.path.dirname(__file__),
                        "servant_fixtures.py")


class TestExitCodes:
    def test_default_sweep_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_defective_bench_fails(self, capsys):
        assert main(["lint", "--design", LOOP]) == 1
        out = capsys.readouterr().out
        assert "JCD006" in out and "combinational loop" in out

    def test_defective_servants_fail(self, capsys):
        assert main(["lint", "--servants", FIXTURES]) == 1
        out = capsys.readouterr().out
        assert "JCD010" in out and "JCD012" in out

    def test_builtin_bench_by_name(self, capsys):
        assert main(["lint", "--design", "c17"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_unknown_bench_is_usage_error(self, capsys):
        assert main(["lint", "--design", "nope.bench"]) == 2
        assert "neither a file" in capsys.readouterr().err

    def test_unknown_servant_module_is_usage_error(self, capsys):
        assert main(["lint", "--servants", "no.such.module"]) == 2
        assert "neither a path" in capsys.readouterr().err

    def test_retired_concurrency_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "--concurrency"])
        assert exit_info.value.code == 2
        assert "--concurrency" in capsys.readouterr().err


class TestThresholds:
    def test_warnings_pass_by_default(self, capsys):
        # The stale-whitelist rule is warning-severity: suppress the
        # error-level rules and the run must pass --fail-on error.
        code = main(["lint", "--servants", FIXTURES,
                     "--suppress", "JCD010", "--suppress", "JCD011",
                     "--suppress", "JCD012"])
        out = capsys.readouterr().out
        assert code == 0
        assert "JCD013" in out

    def test_fail_on_warning_tightens(self):
        assert main(["lint", "--servants", FIXTURES,
                     "--suppress", "JCD010", "--suppress", "JCD011",
                     "--suppress", "JCD012",
                     "--fail-on", "warning"]) == 1

    def test_suppress_everything_passes(self, capsys):
        code = main(["lint", "--design", LOOP,
                     "--suppress", "JCD006"])
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_unknown_suppress_code_is_usage_error(self, capsys):
        # JCD014 is retired, and a retired code is an unknown one.
        for code in ("JCD999", "JCD014"):
            assert main(["lint", "--suppress", code]) == 2
            assert "unknown rule code" in capsys.readouterr().err


class TestJsonFormat:
    def test_json_payload_shape(self, capsys):
        assert main(["lint", "--design", UNDRIVEN,
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 2
        sites = {item["code"] for item in payload["findings"]}
        assert sites == {"JCD007"}
        for item in payload["findings"]:
            assert set(item) == {"code", "severity", "message",
                                 "target", "line"}

    def test_text_format_has_summary_line(self, capsys):
        main(["lint", "--design", UNDRIVEN])
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1] == "2 findings (2 errors)"


class TestCombinedRun:
    def test_designs_and_servants_combine(self, capsys):
        assert main(["lint", "--design", LOOP,
                     "--servants", FIXTURES]) == 1
        out = capsys.readouterr().out
        assert "JCD006" in out and "JCD010" in out
