"""Remote pool endpoint connect: bounded retry, backoff, triage."""

import random
import socket
import threading
import time

import pytest

from repro.core.errors import ParallelExecutionError
from repro.core.signal import Logic
from repro.parallel.remote import (RemoteCampaign, RemoteWorkerPool,
                                   pack_rows, remote_fault_simulate,
                                   resolve_bench)
from repro.server import AsyncRMIServer
from repro.server.farm import fault_farm_session_factory
from repro.telemetry import TELEMETRY


def free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def c17_campaign(patterns=12, seed=0):
    netlist = resolve_bench("c17")
    rng = random.Random(seed)
    return [{net: Logic(rng.getrandbits(1)) for net in netlist.inputs}
            for _ in range(patterns)]


def trivial_campaign():
    """``pool.map`` arguments: a campaign and its one shard."""
    inputs = resolve_bench("c17").inputs
    return (RemoteCampaign("c17", "equivalence", inputs,
                           pack_rows(inputs, c17_campaign(2))),
            [("10sa1",)])


class TestConstruction:
    def test_rejects_negative_retries(self):
        with pytest.raises(ParallelExecutionError):
            RemoteWorkerPool(["h:1"], connect_retries=-1)

    def test_rejects_nonpositive_backoff(self):
        for seconds in (0, float("nan")):
            with pytest.raises(ParallelExecutionError):
                RemoteWorkerPool(["h:1"], connect_backoff=seconds)

    def test_rejects_nonpositive_timeouts(self):
        for option in ("timeout", "connect_timeout"):
            for seconds in (0, float("nan")):
                with pytest.raises(ParallelExecutionError,
                                   match="must be positive"):
                    RemoteWorkerPool(["h:1"], **{option: seconds})


class TestClientThreadFailures:
    """An exception nothing triages (a bug on the client side) fails
    the run with itself as the cause, instead of ending its endpoint's
    thread and leaving the shards "unserved"."""

    @pytest.mark.parametrize("step", ["_connect_endpoint",
                                      "_drive_endpoint"])
    def test_an_unexpected_exception_is_the_cause(self, step):
        class BrokenPool(RemoteWorkerPool):
            pass

        def broken(*_args):
            raise TypeError("a client-side bug")

        setattr(BrokenPool, step, broken)
        server = AsyncRMIServer(session_factory=fault_farm_session_factory())
        host, port = server.start()
        try:
            with pytest.raises(ParallelExecutionError,
                               match="client thread of endpoint") as excinfo:
                BrokenPool([f"{host}:{port}"]).map(*trivial_campaign())
        finally:
            server.stop()
        assert isinstance(excinfo.value.__cause__, TypeError)
        assert "unserved" not in str(excinfo.value)


class TestDeadEndpoints:
    def test_dead_endpoint_fails_after_bounded_retries(self):
        pool = RemoteWorkerPool([f"127.0.0.1:{free_port()}"],
                                connect_retries=2, connect_backoff=0.01)
        begin = time.monotonic()
        with pytest.raises(ParallelExecutionError,
                           match="no remote endpoint"):
            pool.map(*trivial_campaign())
        # 3 attempts with 10-20ms backoffs, nowhere near call timeouts.
        assert time.monotonic() - begin < 5.0

    def test_connect_retries_reach_telemetry(self):
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            pool = RemoteWorkerPool([f"127.0.0.1:{free_port()}"],
                                    connect_retries=3,
                                    connect_backoff=0.01)
            with pytest.raises(ParallelExecutionError):
                pool.map(*trivial_campaign())
        finally:
            TELEMETRY.disable()
        # The run failed before _account ran, so read the state the
        # next successful run would export: retry again with a live
        # sibling so the run finishes and exports.
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            server = AsyncRMIServer(
                session_factory=fault_farm_session_factory())
            host, port = server.start()
            try:
                pool = RemoteWorkerPool(
                    [f"127.0.0.1:{free_port()}", f"{host}:{port}"],
                    connect_retries=1, connect_backoff=0.01)
                report = remote_fault_simulate(
                    "c17", c17_campaign(), [], pool=pool)
            finally:
                server.stop()
            retries = TELEMETRY.metrics.get(
                "parallel.remote.connect_retries")
            failures = TELEMETRY.metrics.get(
                "parallel.remote.endpoint_failures")
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert report.total_faults == 22
        assert retries is not None and retries.value == 1
        assert failures is not None and failures.value == 1

    def test_survivor_absorbs_a_dead_siblings_share(self):
        server = AsyncRMIServer(
            session_factory=fault_farm_session_factory())
        host, port = server.start()
        try:
            pool = RemoteWorkerPool(
                [f"127.0.0.1:{free_port()}", f"{host}:{port}"],
                connect_retries=0, connect_backoff=0.01)
            report = remote_fault_simulate("c17", c17_campaign(), [],
                                           pool=pool, workers=4)
        finally:
            server.stop()
        assert report.total_faults == 22
        assert report.detected_count > 0


class TestBareOSErrors:
    """Bare OSErrors (unwrapped by RemoteError) must still retry.

    The eager ``connect()`` path can surface ``ConnectionRefusedError``
    and friends directly; the retry predicate used to require
    ``exc.__cause__`` to be an OSError, so these escaped both the
    bounded-retry loop and the connect_retries telemetry.
    """

    def test_bare_refusal_is_retried_to_exhaustion(self, monkeypatch):
        from repro.rmi.transport import TcpTransport as Tcp

        attempts = []

        def refuse(self):
            attempts.append(1)
            raise ConnectionRefusedError("refused (bare)")

        monkeypatch.setattr(Tcp, "connect", refuse)
        pool = RemoteWorkerPool([f"127.0.0.1:{free_port()}"],
                                connect_retries=2, connect_backoff=0.01)
        with pytest.raises(ParallelExecutionError,
                           match="no remote endpoint"):
            pool.map(*trivial_campaign())
        assert len(attempts) == 3  # initial try + connect_retries

    def test_bare_oserror_retries_reach_telemetry(self, monkeypatch):
        from repro.rmi.transport import TcpTransport as Tcp

        real_connect = Tcp.connect
        refusals = []

        def refuse_one_endpoint(self):
            if self.port == dead_port:
                refusals.append(1)
                raise OSError("unroutable (bare)")
            return real_connect(self)

        dead_port = free_port()
        monkeypatch.setattr(Tcp, "connect", refuse_one_endpoint)
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            server = AsyncRMIServer(
                session_factory=fault_farm_session_factory())
            host, port = server.start()
            try:
                pool = RemoteWorkerPool(
                    [f"127.0.0.1:{dead_port}", f"{host}:{port}"],
                    connect_retries=2, connect_backoff=0.01)
                report = remote_fault_simulate(
                    "c17", c17_campaign(), [], pool=pool)
            finally:
                server.stop()
            retries = TELEMETRY.metrics.get(
                "parallel.remote.connect_retries")
            failures = TELEMETRY.metrics.get(
                "parallel.remote.endpoint_failures")
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert report.total_faults == 22
        assert len(refusals) == 3
        assert retries is not None and retries.value == 2
        assert failures is not None and failures.value == 1


class TestLateEndpoints:
    def test_backoff_reaches_an_endpoint_that_starts_late(self):
        port = free_port()
        server = AsyncRMIServer(
            session_factory=fault_farm_session_factory(), port=port)
        timer = threading.Timer(0.4, server.start)
        timer.start()
        try:
            pool = RemoteWorkerPool([f"127.0.0.1:{port}"],
                                    connect_retries=10,
                                    connect_backoff=0.05)
            report = remote_fault_simulate("c17", c17_campaign(), [],
                                           pool=pool)
        finally:
            timer.join()
            server.stop()
        assert report.total_faults == 22


class TestDeterministicRefusals:
    def test_wrong_token_is_not_retried(self):
        server = AsyncRMIServer(
            session_factory=fault_farm_session_factory(),
            auth_token="right")
        host, port = server.start()
        try:
            # With retries this would sleep >= 4s; the auth rejection
            # must fail the endpoint on the first attempt instead.
            pool = RemoteWorkerPool([f"{host}:{port}"], token="wrong",
                                    connect_retries=3,
                                    connect_backoff=4.0)
            begin = time.monotonic()
            with pytest.raises(ParallelExecutionError,
                               match="authentication"):
                pool.map(*trivial_campaign())
            assert time.monotonic() - begin < 3.0
        finally:
            server.stop()
        assert server.stats.auth_failures == 1


class TestSecureFarm:
    def test_tls_token_farm_matches_plain(self):
        import os
        cert = os.path.join(os.path.dirname(__file__), os.pardir,
                            "data", "tls", "server.pem")
        key = os.path.join(os.path.dirname(__file__), os.pardir,
                           "data", "tls", "server.key")
        from repro.rmi import server_ssl_context

        patterns = c17_campaign()
        secure = AsyncRMIServer(
            session_factory=fault_farm_session_factory(),
            ssl_context=server_ssl_context(cert, key),
            auth_token="tok")
        host, port = secure.start()
        try:
            endpoints = [f"{host}:{port}"]
            secured = remote_fault_simulate(
                "c17", patterns, endpoints,
                pool=RemoteWorkerPool(endpoints, token="tok", tls_ca=cert))
        finally:
            secure.stop()
        plain_server = AsyncRMIServer(
            session_factory=fault_farm_session_factory())
        host, port = plain_server.start()
        try:
            plain = remote_fault_simulate("c17", patterns,
                                          [f"{host}:{port}"])
        finally:
            plain_server.stop()
        assert secured.detected == plain.detected
        assert secured.per_pattern == plain.per_pattern
