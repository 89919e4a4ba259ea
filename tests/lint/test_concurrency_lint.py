"""Concurrency rules JCD014-JCD018: firing, scoping, waivers."""

import os

import repro
from repro.lint import lint_concurrency, lint_concurrency_sources

FIXTURES = os.path.join(os.path.dirname(__file__),
                        "concurrency_fixtures.py")
SEEDED_SERVER = os.path.join(os.path.dirname(__file__), "data",
                             "seeded_server")


def codes(findings):
    return sorted({item.code for item in findings})


def lint_one(name, source, **extra):
    sources = {name: source}
    sources.update(extra)
    return lint_concurrency_sources(sources)


DISPATCHING = """
class AsyncRMIServer:
    def _handle(self, frame):
        return stamp(frame)
"""


class TestJCD014UndeclaredCounter:
    consumer = DISPATCHING + """

def stamp(frame):
    return next(_frame_ids)
"""

    def test_reachable_undeclared_counter_fires(self):
        findings = lint_one("repro.fake", self.consumer + """
import itertools
_frame_ids = itertools.count(1)
""")
        assert codes(findings) == ["JCD014"]
        assert "_frame_ids" in findings[0].message

    def test_an_inventory_entry_no_longer_excuses_a_counter(self):
        # The COUNTER_SITES inventory is gone: the only ways out are
        # drawing from IdScope or an adjudicated waiver.
        findings = lint_one("repro.fake", self.consumer + """
import itertools
_frame_ids = itertools.count(1)
COUNTER_SITES = (("repro.fake", "_frame_ids"),)
""")
        assert codes(findings) == ["JCD014"]
        assert "IdScope" in findings[0].message

    def test_unreachable_counter_passes(self):
        findings = lint_one("repro.fake", """
import itertools
_frame_ids = itertools.count(1)


def untouched():
    return next(_frame_ids)
""")
        assert findings == []

    def test_waiver_on_the_assignment_line(self):
        findings = lint_one("repro.fake", self.consumer + """
import itertools
_frame_ids = itertools.count(1)  # lint: allow(JCD014)
""")
        assert findings == []


class TestJCD015AsyncBlocking:
    blocking = """
import time


class Handler:
    async def serve(self, frame):
        time.sleep(1)
        return frame
"""

    def test_fires_only_in_repro_server_modules(self):
        assert codes(lint_one("repro.server.fake",
                              self.blocking)) == ["JCD015"]
        assert lint_one("repro.client.fake", self.blocking) == []

    def test_awaited_calls_pass(self):
        findings = lint_one("repro.server.fake", """
class Handler:
    async def serve(self, loop, executor, frame, lock):
        async with lock:
            return await loop.run_in_executor(executor, len, frame)
""")
        assert findings == []

    def test_future_result_and_acquire_fire(self):
        findings = lint_one("repro.server.fake", """
class Handler:
    async def serve(self, future, lock):
        lock.acquire()
        return future.result()
""")
        assert len(findings) == 2
        assert codes(findings) == ["JCD015"]

    def test_sync_def_is_out_of_scope(self):
        findings = lint_one("repro.server.fake", """
import time


def serve(frame):
    time.sleep(1)
    return frame
""")
        assert findings == []

    def test_waiver_on_the_def_line(self):
        findings = lint_one("repro.server.fake", """
import time


class Handler:
    async def serve(self, frame):  # lint: allow(JCD015)
        time.sleep(1)
        return frame
""")
        assert findings == []


class TestJCD016ForkSafety:
    def test_executor_before_fork_point_fires(self):
        findings = lint_one("repro.fake", """
def boot(factory):
    pool = ThreadPoolExecutor(max_workers=2)
    dispatcher = ProcessDispatcher(factory, 2)
    return pool, dispatcher
""")
        assert codes(findings) == ["JCD016"]

    def test_executor_after_fork_point_passes(self):
        findings = lint_one("repro.fake", """
def boot(factory):
    dispatcher = ProcessDispatcher(factory, 2)
    pool = ThreadPoolExecutor(max_workers=2)
    return pool, dispatcher
""")
        assert findings == []

    def test_thread_starting_initializer_fires(self):
        findings = lint_one("repro.fake", """
import threading
from concurrent.futures import ProcessPoolExecutor


def warm():
    threading.Thread(target=print).start()


def spawn():
    return ProcessPoolExecutor(max_workers=1, initializer=warm)
""")
        assert codes(findings) == ["JCD016"]

    def test_quiet_initializer_passes(self):
        findings = lint_one("repro.fake", """
from concurrent.futures import ProcessPoolExecutor


def warm():
    return None


def spawn():
    return ProcessPoolExecutor(max_workers=1, initializer=warm)
""")
        assert findings == []


class TestJCD017SharedMutation:
    def test_unguarded_module_state_fires(self):
        findings = lint_one("repro.fake", DISPATCHING + """

_cache = {}


def stamp(frame):
    _cache[frame] = True
    return frame
""")
        assert codes(findings) == ["JCD017"]

    def test_lock_guarded_mutation_passes(self):
        findings = lint_one("repro.fake", DISPATCHING + """
import threading

_cache = {}
_cache_lock = threading.Lock()


def stamp(frame):
    with _cache_lock:
        _cache[frame] = True
    return frame
""")
        assert findings == []

    def test_gate_guarded_mutation_passes(self):
        findings = lint_one("repro.fake", DISPATCHING + """

_sessions = {}


def stamp(frame):
    with _gate.isolated(frame):
        _sessions[frame] = True
    return frame
""")
        assert findings == []

    def test_unreachable_mutation_passes(self):
        findings = lint_one("repro.fake", """
_cache = {}


def offline_tool(frame):
    _cache[frame] = True
    return frame
""")
        assert findings == []

    def test_class_level_mutable_state_fires(self):
        findings = lint_one("repro.fake", """
class AsyncRMIServer:
    registry = {}

    def _handle(self, frame):
        self.registry[frame] = True
        return frame
""")
        assert codes(findings) == ["JCD017"]

    def test_mutating_call_fires(self):
        findings = lint_one("repro.fake", DISPATCHING + """

_log = []


def stamp(frame):
    _log.append(frame)
    return frame
""")
        assert codes(findings) == ["JCD017"]


class TestJCD018ServantNondeterminism:
    def wrap(self, body):
        return f"""
import os
import random
import time


class Probe:
    REMOTE_METHODS = ("sample",)

    def sample(self):
{body}
"""

    def test_wall_clock_fires(self):
        findings = lint_one("repro.fake", self.wrap(
            "        return time.time()"))
        assert codes(findings) == ["JCD018"]

    def test_module_random_fires(self):
        findings = lint_one("repro.fake", self.wrap(
            "        return random.random()"))
        assert codes(findings) == ["JCD018"]

    def test_urandom_and_id_fire(self):
        findings = lint_one("repro.fake", self.wrap(
            "        return id(os.urandom(4))"))
        assert len(findings) == 2

    def test_set_iteration_fires(self):
        findings = lint_one("repro.fake", self.wrap(
            '        return [tag for tag in {"a", "b"}]'))
        assert codes(findings) == ["JCD018"]

    def test_sorted_set_and_seeded_rng_pass(self):
        findings = lint_one("repro.fake", self.wrap(
            '        rng = random.Random(0)\n'
            '        return sorted({"a", "b"}) + [rng.random()]'))
        assert findings == []

    def test_non_servant_class_is_out_of_scope(self):
        findings = lint_one("repro.fake", """
import time


class LocalOnly:
    def sample(self):
        return time.time()
""")
        assert findings == []


class TestRealTreeAndFixtures:
    def test_src_repro_sweeps_clean(self):
        package_dir = os.path.dirname(repro.__file__)
        assert lint_concurrency([package_dir]) == []

    def test_seeded_fixtures_trip_every_code(self):
        findings = lint_concurrency([FIXTURES, SEEDED_SERVER])
        assert codes(findings) == ["JCD014", "JCD015", "JCD016",
                                   "JCD017", "JCD018"]

    def test_guarded_fixture_mutation_is_not_reported(self):
        findings = lint_concurrency([FIXTURES])
        tidy = [item for item in findings
                if "tidy" in item.message]
        assert tidy == []
