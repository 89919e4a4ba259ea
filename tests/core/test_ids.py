"""IdScope: explicit, per-context id sequences."""

import threading

from repro.core.controller import SimulationController
from repro.core.design import Circuit
from repro.core.ids import KINDS, IdScope, id_scope, next_id
from repro.core.module import ModuleSkeleton
from repro.parallel import reset_session_state


class TestIdScope:
    def test_fresh_scope_starts_at_one_per_kind(self):
        with id_scope():
            assert [next_id(kind) for kind in KINDS] == [1] * len(KINDS)
            assert next_id("call") == 2  # kinds advance independently

    def test_scopes_are_independent(self):
        first, second = IdScope(), IdScope()
        assert [first.next("call") for _ in range(3)] == [1, 2, 3]
        assert second.next("call") == 1

    def test_nesting_restores_the_outer_scope(self):
        with id_scope():
            assert next_id("module") == 1
            with id_scope():
                assert next_id("module") == 1
            assert next_id("module") == 2

    def test_sequences_resume_across_entries(self):
        scope = IdScope()
        with id_scope(scope):
            assert next_id("session") == 1
        with id_scope(scope):
            assert next_id("session") == 2

    def test_exception_restores_the_outer_scope(self):
        with id_scope():
            try:
                with id_scope():
                    next_id("call")
                    raise RuntimeError("servant fault")
            except RuntimeError:
                pass
            assert next_id("call") == 1

    def test_reset_session_state_installs_a_fresh_default(self):
        next_id("scheduler")  # advance the process default away from 1
        scope = IdScope()
        with id_scope(scope):
            next_id("scheduler")
            reset_session_state()
            assert next_id("scheduler") == 2  # entered scopes untouched
        assert [next_id(kind) for kind in KINDS] == [1] * len(KINDS)


class TestThreads:
    def test_concurrent_scopes_draw_independent_ids(self):
        barrier = threading.Barrier(2)
        seen = {}

        def tenant(name):
            with id_scope():
                barrier.wait(timeout=5)  # both inside their scopes
                seen[name] = [next_id("call") for _ in range(3)]

        threads = [threading.Thread(target=tenant, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert seen == {"a": [1, 2, 3], "b": [1, 2, 3]}

    def test_started_threads_inherit_the_scope_unrelated_ones_do_not(
            self):
        drawn = {}

        class Probe(SimulationController):
            def start(self, max_time=None, max_events=None):
                drawn["inside"] = next_id("negotiation")

        reset_session_state()
        with id_scope():
            assert next_id("negotiation") == 1
            # Started inside the scope: continues its sequence.
            thread = Probe(Circuit(ModuleSkeleton("probe"))).start_async()
            thread.join(timeout=5)
            assert not thread.is_alive()
            # A plain thread starts from an empty context: the
            # process-default scope.
            outsider = threading.Thread(target=lambda: drawn.update(
                outside=next_id("negotiation")))
            outsider.start()
            outsider.join(timeout=5)
            assert next_id("negotiation") == 3
        assert drawn == {"inside": 2, "outside": 1}
