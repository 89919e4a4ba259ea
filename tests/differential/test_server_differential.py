"""Differential gate: the serving front end changes nothing functional.

Every serving stack -- in-process serial, the async server around one
shared core (``server=`` mode, what ``serve_tcp()`` starts), and the
async server with per-connection sessions (``session_factory=`` mode)
in its plain / TLS / TLS+auth configurations -- must produce
byte-identical fault reports for the same campaign.  The fingerprints
reuse the wire-differential harness's canonical JSON serialization, so
"identical" means identical bytes, not approximately equal coverage.
"""

import os
import random
import threading

import pytest

from repro.core.signal import Logic
from repro.faults.faultlist import build_fault_list
from repro.faults.serial import SerialFaultSimulator
from repro.parallel.remote import (register_fault_farm,
                                   remote_fault_simulate, report_to_wire,
                                   resolve_bench)
from repro.rmi import JavaCADServer, server_ssl_context
from repro.server import AsyncRMIServer
from repro.server.farm import fault_farm_session_factory

from .harness import fingerprint_of

TLS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                       "tls")
CERT = os.path.join(TLS_DIR, "server.pem")
KEY = os.path.join(TLS_DIR, "server.key")


def campaign(bench="figure4", patterns=48, seed=0):
    netlist = resolve_bench(bench)
    rng = random.Random(seed)
    pattern_set = [{net: Logic(rng.getrandbits(1))
                    for net in netlist.inputs}
                   for _ in range(patterns)]
    return netlist, pattern_set


def report_fingerprint(report):
    """Canonical bytes of a report's functional content."""
    wire = report_to_wire(report)
    return fingerprint_of({
        "total_faults": wire["total_faults"],
        "detected": wire["detected"],
        "per_pattern": [sorted(newly) for newly in wire["per_pattern"]],
    })


def serial_fingerprint(bench, pattern_set):
    netlist = resolve_bench(bench)
    fault_list = build_fault_list(netlist)
    report = SerialFaultSimulator(netlist, fault_list).run(pattern_set)
    return report_fingerprint(report)


def farmed_fingerprint(endpoint, bench, pattern_set, **client):
    report = remote_fault_simulate(bench, pattern_set, [endpoint],
                                   workers=3, **client)
    return report_fingerprint(report)


class TestServingStacksAreByteIdentical:
    def test_async_stacks_match_shared_core_and_serial(self):
        bench = "figure4"
        _netlist, pattern_set = campaign(bench)
        baseline = serial_fingerprint(bench, pattern_set)
        fingerprints = {"serial": baseline}

        shared_core = JavaCADServer("differential.shared-core")
        register_fault_farm(shared_core)
        host, port = shared_core.serve_tcp("127.0.0.1", 0)
        try:
            fingerprints["shared-core"] = farmed_fingerprint(
                f"{host}:{port}", bench, pattern_set)
        finally:
            shared_core.stop_tcp()

        stacks = {
            "sessions-plain": (dict(), dict()),
            "sessions-tls": (
                dict(ssl_context=server_ssl_context(CERT, KEY)),
                dict(tls_ca=CERT)),
            "sessions-tls-auth": (
                dict(ssl_context=server_ssl_context(CERT, KEY),
                     auth_token="differential"),
                dict(tls_ca=CERT, token="differential")),
        }
        for name, (server_options, client_options) in stacks.items():
            server = AsyncRMIServer(
                session_factory=fault_farm_session_factory(),
                **server_options)
            host, port = server.start()
            try:
                fingerprints[name] = farmed_fingerprint(
                    f"{host}:{port}", bench, pattern_set,
                    **client_options)
            finally:
                server.stop()

        for name, fingerprint in fingerprints.items():
            assert fingerprint == baseline, (
                f"stack {name!r} diverged from the serial baseline")

    def test_repeated_async_runs_are_byte_identical(self):
        bench = "c17"
        _netlist, pattern_set = campaign(bench, patterns=24)
        server = AsyncRMIServer(
            session_factory=fault_farm_session_factory())
        host, port = server.start()
        try:
            first = farmed_fingerprint(f"{host}:{port}", bench,
                                       pattern_set)
            second = farmed_fingerprint(f"{host}:{port}", bench,
                                        pattern_set)
        finally:
            server.stop()
        assert first == second == serial_fingerprint(bench, pattern_set)


class TestConcurrentSessions:
    def test_two_authenticated_tenants_match_fresh_process_serial(self):
        # Two different campaigns run *concurrently* through one
        # authenticated server; per-session id namespaces mean each
        # result must equal its own fresh-process serial baseline.
        campaigns = {
            "tenant-a": ("figure4", campaign("figure4", seed=1)[1]),
            "tenant-b": ("c17", campaign("c17", seed=2)[1]),
        }
        baselines = {name: serial_fingerprint(bench, pattern_set)
                     for name, (bench, pattern_set) in campaigns.items()}
        server = AsyncRMIServer(
            session_factory=fault_farm_session_factory(),
            auth_token="tenant")
        host, port = server.start()
        results = {}
        failures = []
        barrier = threading.Barrier(len(campaigns))

        def tenant(name, bench, pattern_set):
            try:
                barrier.wait(timeout=5)
                results[name] = farmed_fingerprint(
                    f"{host}:{port}", bench, pattern_set,
                    token="tenant")
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append((name, exc))

        threads = [threading.Thread(target=tenant,
                                    args=(name, bench, pattern_set))
                   for name, (bench, pattern_set) in campaigns.items()]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            server.stop()
        assert not failures
        assert results == baselines
        assert server.stats.sessions_started == 2
        assert server.stats.auth_failures == 0
        assert server.stats.connections_peak == 2


class TestDispatchTiers:
    """Every dispatch tier is byte-identical to fresh-process serial.

    The tiers change *where* a session's dispatches run (on the
    shared thread pool, in a sticky forked worker) -- never *what*
    they compute.  Each tier's farmed report must fingerprint
    identically to a serial run in a fresh process, and two concurrent
    tenants must each match their own fresh-process baselines.
    """

    @pytest.mark.parametrize("tier", ["thread", "process"])
    def test_tier_matches_fresh_process_serial(self, tier):
        bench = "figure4"
        _netlist, pattern_set = campaign(bench)
        baseline = serial_fingerprint(bench, pattern_set)
        server = AsyncRMIServer(
            session_factory=fault_farm_session_factory(),
            dispatch=tier)
        host, port = server.start()
        try:
            fingerprint = farmed_fingerprint(f"{host}:{port}", bench,
                                             pattern_set)
        finally:
            server.stop()
        assert fingerprint == baseline, (
            f"dispatch tier {tier!r} diverged from the serial baseline")

    @pytest.mark.parametrize("tier", ["thread", "process"])
    def test_concurrent_tenants_match_their_baselines(self, tier):
        campaigns = {
            "tenant-a": ("figure4", campaign("figure4", seed=3)[1]),
            "tenant-b": ("c17", campaign("c17", seed=4)[1]),
        }
        baselines = {name: serial_fingerprint(bench, pattern_set)
                     for name, (bench, pattern_set) in campaigns.items()}
        server = AsyncRMIServer(
            session_factory=fault_farm_session_factory(),
            dispatch=tier)
        host, port = server.start()
        results = {}
        failures = []
        barrier = threading.Barrier(len(campaigns))

        def tenant(name, bench, pattern_set):
            try:
                barrier.wait(timeout=5)
                results[name] = farmed_fingerprint(
                    f"{host}:{port}", bench, pattern_set)
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append((name, exc))

        threads = [threading.Thread(target=tenant,
                                    args=(name, bench, pattern_set))
                   for name, (bench, pattern_set) in campaigns.items()]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            server.stop()
        assert not failures
        assert results == baselines
