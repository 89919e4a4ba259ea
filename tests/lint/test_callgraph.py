"""The shared call-graph index behind the concurrency analyzers."""

import os

import repro
from repro.lint.callgraph import CallGraph, module_name_for

SERVER = """
class AsyncRMIServer:
    def _handle(self, frame):
        return dispatch_frame(frame)

    def _spawn(self, pool):
        pool.submit(worker_entry, 1)
"""

CORE = """
import itertools

_call_ids = itertools.count(1)
_quiet_ids = itertools.count(1)
_hits = 0


def dispatch_frame(frame):
    return next(_call_ids)


def worker_entry(slot):
    global _hits
    _hits += 1
    return slot


def never_called():
    return next(_quiet_ids)
"""


def build():
    return CallGraph.from_sources({
        "repro.server.fake": SERVER,
        "repro.core.fake": CORE,
    })


class TestModuleNames:
    def test_package_chain_is_walked(self):
        package_dir = os.path.dirname(repro.__file__)
        path = os.path.join(package_dir, "rmi", "protocol.py")
        assert module_name_for(path) == "repro.rmi.protocol"

    def test_init_file_names_the_package(self):
        package_dir = os.path.dirname(repro.__file__)
        path = os.path.join(package_dir, "rmi", "__init__.py")
        assert module_name_for(path) == "repro.rmi"

    def test_loose_file_keeps_its_stem(self, tmp_path):
        loose = tmp_path / "standalone.py"
        loose.write_text("x = 1\n")
        assert module_name_for(str(loose)) == "standalone"


def sites_of(graph):
    return {(counter.module, counter.attr) for counter in graph.counters()}


class TestCounterDiscovery:
    def test_count_and_incremented_int_globals_found(self):
        sites = sites_of(build())
        assert ("repro.core.fake", "_call_ids") in sites
        assert ("repro.core.fake", "_quiet_ids") in sites
        assert ("repro.core.fake", "_hits") in sites

    def test_plain_int_global_is_not_a_counter(self):
        graph = CallGraph.from_sources({
            "m": "LIMIT = 5\n\ndef f():\n    return LIMIT\n"})
        assert sites_of(graph) == set()

    def test_annotated_count_assignment_found(self):
        graph = CallGraph.from_sources({
            "m": ("import itertools\n"
                  "_ids: 'itertools.count' = itertools.count(1)\n")})
        assert ("m", "_ids") in sites_of(graph)


class TestReachability:
    def test_dispatch_class_methods_are_entry_points(self):
        graph = build()
        entries = set(graph.entry_points())
        assert "repro.server.fake:AsyncRMIServer._handle" in entries
        assert "repro.server.fake:AsyncRMIServer._spawn" in entries

    def test_direct_call_edge(self):
        graph = build()
        assert "repro.core.fake:dispatch_frame" in graph.reachable()

    def test_deferred_submit_edge(self):
        graph = build()
        assert "repro.core.fake:worker_entry" in graph.reachable()

    def test_uncalled_function_is_unreachable(self):
        graph = build()
        assert "repro.core.fake:never_called" not in graph.reachable()

    def test_counter_reachability_split(self):
        graph = build()
        by_attr = {c.attr: c for c in graph.counters()}
        assert graph.is_dispatch_reachable(by_attr["_call_ids"])
        assert graph.is_dispatch_reachable(by_attr["_hits"])
        assert not graph.is_dispatch_reachable(by_attr["_quiet_ids"])


class TestServantEntryPoints:
    def test_remote_methods_root_the_graph(self):
        graph = CallGraph.from_sources({"m": """
class Worker:
    REMOTE_METHODS = ("run",)

    def run(self):
        return helper()

    def local_only(self):
        return lonely()


def helper():
    return 1


def lonely():
    return 2
"""})
        assert "m:Worker.run" in graph.entry_points()
        assert "m:Worker.local_only" not in graph.entry_points()
        assert "m:helper" in graph.reachable()
        assert "m:lonely" not in graph.reachable()

    def test_constructor_call_reaches_init(self):
        graph = CallGraph.from_sources({"m": """
class AsyncRMIServer:
    def boot(self):
        return Helper()


class Helper:
    def __init__(self):
        seed_state()


def seed_state():
    return None
"""})
        assert "m:Helper.__init__" in graph.reachable()
        assert "m:seed_state" in graph.reachable()

    def test_initializer_keyword_is_a_deferred_edge(self):
        graph = CallGraph.from_sources({"m": """
class AsyncRMIServer:
    def boot(self, pool_cls):
        return pool_cls(max_workers=1, initializer=warm_worker)


def warm_worker():
    return None
"""})
        assert "m:warm_worker" in graph.reachable()
