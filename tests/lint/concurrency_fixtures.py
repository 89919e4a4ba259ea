"""Seeded concurrency defects for the JCD014-JCD018 analyzers.

Every construct here violates exactly one contract the concurrency
rules exist to catch; the test suite (and the CI lint job) asserts
that each defect is reported with its code.  Nothing in this module is
ever executed -- the analyzers work on the source alone.

JCD015 (blocking call in ``async def``) is scoped to ``repro.server``
modules and therefore seeded separately, in
``tests/lint/data/seeded_server/repro/server/blocking.py``, whose
package layout gives it the dotted name the rule looks for.
"""

import itertools
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from repro.server.dispatch import ProcessDispatcher

# JCD014: a module-level id counter consumed from a dispatch-reachable
# method (SeededFarmServant.begin below) instead of the current IdScope.
_rogue_ids = itertools.count(1)

# JCD017 target: module-level mutable state written on a dispatch path
# without its lock.
_shared_results = {}
_results_lock = threading.Lock()


class SeededFarmServant:
    """A servant whose REMOTE_METHODS root the dispatch call graph."""

    REMOTE_METHODS = ("begin", "collect", "tidy")

    def begin(self, name):
        token = next(_rogue_ids)
        _shared_results[name] = token
        return f"task{token}"

    def collect(self):
        stamped = [time.time() for tag in {"al", "er", "mr"}]
        random.shuffle(stamped)
        return [id(value) for value in stamped]

    def tidy(self):
        with _results_lock:
            # Guarded: this mutation must NOT be reported.
            _shared_results.clear()
        return True


def _noop():
    return None


def _bad_initializer():
    """JCD016: a worker initializer that starts threads."""
    watchdog = threading.Thread(target=_noop)
    watchdog.start()
    return watchdog


def _boot_process_tier(session_factory, workers):
    """JCD016: an executor created before the fork point."""
    pool = ThreadPoolExecutor(max_workers=workers)
    dispatcher = ProcessDispatcher(session_factory, workers)
    return pool, dispatcher


def _spawn_workers():
    return ProcessPoolExecutor(max_workers=1,
                               initializer=_bad_initializer)
