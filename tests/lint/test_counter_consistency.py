"""Meta-test: the JCD014 discovery and the adjudicated waivers agree.

Marshalled ids come from the current ``repro.core.ids.IdScope``, so
the only module-level counters left in ``src/repro`` are the ones
waived inline because their values never shape marshalled bytes
(tests/lint/test_counter_adjudication.py proves that differentially).
If a new one appears, JCD014 must flag it; if a waived one vanishes,
its waiver comment should go too.
"""

import os

import repro
from repro.lint.callgraph import CallGraph
from repro.lint.concurrency import lint_call_graph

ADJUDICATED_WAIVERS = frozenset({
    # The wire paths pass explicit names / opaque nonces, so their
    # values never shape marshalled bytes.
    ("repro.estimation.setup", "_setup_ids"),
    ("repro.parallel.remote", "_pool_nonces"),
    # Repr-only: token ids appear in debugging reprs, never on the
    # wire.
    ("repro.core.token", "_token_ids"),
    # Dispatcher ids key a registry keyed per-object; never marshalled.
    ("repro.server.dispatch", "_dispatcher_ids"),
})


def real_tree_graph():
    package_dir = os.path.dirname(repro.__file__)
    return CallGraph.from_files(
        sorted(os.path.join(root, name)
               for root, _dirs, names in os.walk(package_dir)
               for name in names if name.endswith(".py")))


def discovered_counters(graph):
    return {(counter.module, counter.attr)
            for counter in graph.counters()}


class TestInventoryAgainstDiscovery:
    def test_adjudicated_waivers_are_still_real_counters(self):
        gone = ADJUDICATED_WAIVERS - discovered_counters(real_tree_graph())
        assert gone == set(), (
            f"waived counters that vanished -- delete the waiver "
            f"comment and this entry: {sorted(gone)}")

    def test_every_discovered_counter_is_accounted_for(self):
        # Every dispatch-reachable counter is an adjudicated waiver
        # (none of the old id sites holds a module global any more),
        # and the lint sweep itself -- which honours the inline waiver
        # comments -- agrees there is nothing left.
        graph = real_tree_graph()
        reachable = {(counter.module, counter.attr)
                     for counter in graph.counters()
                     if graph.is_dispatch_reachable(counter)}
        assert reachable <= ADJUDICATED_WAIVERS
        findings = [item for item in lint_call_graph(graph)
                    if item.code == "JCD014"]
        assert findings == []
