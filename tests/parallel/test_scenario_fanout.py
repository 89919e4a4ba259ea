"""Scenario fan-out: Table 2 rows from isolated worker processes."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.bench.scenarios import run_table2
from repro.core.errors import ParallelExecutionError
from repro.parallel import (ScenarioSpec, reset_session_state,
                            run_scenarios_parallel, run_table2_parallel,
                            table2_specs)

WIDTH, PATTERNS, BUFFER = 4, 8, 2


def _fresh_serial_table2():
    # Runs in a forked child: reset the fork-inherited id counters so
    # the serial baseline matches a fresh-process run regardless of how
    # many tests the parent executed before this one (the counters leak
    # into marshalled frame sizes and hence modelled times).
    reset_session_state()
    return run_table2(width=WIDTH, patterns=PATTERNS, buffer_size=BUFFER)


class TestTable2Specs:
    def test_paper_row_order(self):
        specs = table2_specs(WIDTH, PATTERNS, BUFFER)
        assert [(spec.mode, spec.network) for spec in specs] == [
            ("AL", "localhost"),
            ("ER", "localhost"), ("MR", "localhost"),
            ("ER", "lan"), ("MR", "lan"),
            ("ER", "wan"), ("MR", "wan")]

    def test_specs_are_picklable(self):
        import pickle

        specs = table2_specs(WIDTH, PATTERNS, BUFFER)
        assert pickle.loads(pickle.dumps(specs)) == specs


class TestRunScenariosParallel:
    def test_unknown_network_preset_rejected(self):
        with pytest.raises(ParallelExecutionError):
            run_scenarios_parallel(
                [ScenarioSpec("ER", "carrier-pigeon", WIDTH, PATTERNS,
                              BUFFER)], workers=1)

    def test_single_spec_runs_inline(self):
        rows = run_scenarios_parallel(
            [ScenarioSpec("AL", "localhost", WIDTH, PATTERNS, BUFFER)],
            workers=4)
        assert len(rows) == 1
        assert rows[0].scenario == "AL"


class TestTable2Parallel:
    def test_rows_match_serial_table2(self):
        with ProcessPoolExecutor(max_workers=1) as pool:
            serial = pool.submit(_fresh_serial_table2).result()
        parallel = run_table2_parallel(width=WIDTH, patterns=PATTERNS,
                                       buffer_size=BUFFER, workers=2)
        assert len(parallel) == len(serial) == 7
        for expected, actual in zip(serial, parallel):
            assert actual.scenario == expected.scenario
            assert actual.host == expected.host
            assert actual.events == expected.events
            assert actual.remote_calls == expected.remote_calls
            assert actual.round_trips == expected.round_trips
            # Serial rows draw ids from a fresh scope each, like worker
            # rows: the same marshalled bytes, so the same clock.
            assert actual.remote_bytes == expected.remote_bytes
            assert actual.cpu == expected.cpu
            assert actual.real == expected.real

    def test_parallel_runs_are_reproducible(self):
        first = run_table2_parallel(width=WIDTH, patterns=PATTERNS,
                                    buffer_size=BUFFER, workers=2)
        second = run_table2_parallel(width=WIDTH, patterns=PATTERNS,
                                     buffer_size=BUFFER, workers=3)
        assert first == second
