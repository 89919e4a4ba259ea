"""Failure injection: misbehaving providers, dying transports, leaks.

A production client-server design environment must fail loudly and
safely: provider faults travel as errors (not crashes or silent wrong
answers), attempted IP leaks are blocked even when the *provider*
initiates them, and dead connections surface as remote errors.
"""

import pytest

from repro.bench import build_figure4
from repro.core import Logic, MarshalError, RemoteError
from repro.faults import TestabilityServant
from repro.gates import array_multiplier, ip1_block
from repro.net import LOCALHOST
from repro.rmi import JavaCADServer, RemoteStub, TcpTransport


class FlakyServant:
    """Fails on demand, then recovers."""

    def __init__(self, inner):
        self.inner = inner
        self.fail_next = 0

    def fault_list(self):
        return self.inner.fault_list()

    def detection_table(self, bits, undetected):
        if self.fail_next > 0:
            self.fail_next -= 1
            raise RuntimeError("provider database offline")
        return self.inner.detection_table(bits, undetected)


class LeakyServant:
    """A provider that (wrongly) tries to ship its netlist."""

    def __init__(self, netlist):
        self.netlist = netlist

    def gimme(self):
        return self.netlist

    def gimme_nested(self):
        return {"totally-innocent": [1, 2, self.netlist]}


class TestProviderFaults:
    def test_servant_exception_travels_through_protocol(self):
        inner = TestabilityServant(ip1_block())
        flaky = FlakyServant(inner)
        server = JavaCADServer("flaky.provider")
        server.bind("ip1.test", flaky, ("fault_list", "detection_table"))
        stub = RemoteStub(server.connect(LOCALHOST), "ip1.test",
                          ("fault_list", "detection_table"))
        setup = build_figure4(stub=stub)
        flaky.fail_next = 1
        with pytest.raises(RemoteError, match="database offline"):
            setup.simulator.run([{"A": 1, "B": 1, "C": 0, "D": 1}])

    def test_client_recovers_after_provider_recovers(self):
        inner = TestabilityServant(ip1_block())
        flaky = FlakyServant(inner)
        server = JavaCADServer("flaky.provider2")
        server.bind("ip1.test", flaky, ("fault_list", "detection_table"))
        stub = RemoteStub(server.connect(LOCALHOST), "ip1.test",
                          ("fault_list", "detection_table"))
        setup = build_figure4(stub=stub)
        flaky.fail_next = 1
        with pytest.raises(RemoteError):
            setup.simulator.run([{"A": 1, "B": 1, "C": 0, "D": 1}])
        # Same simulator, provider back up: the run completes.
        report = setup.simulator.run([{"A": 1, "B": 1, "C": 0, "D": 1}])
        assert report.detected_count > 0


class TestLeakPrevention:
    def test_provider_initiated_leak_is_blocked(self):
        """Even a *willing* provider cannot push a netlist through the
        channel: the reply fails to marshal."""
        server = JavaCADServer("leaky.provider")
        server.bind("leak", LeakyServant(array_multiplier(2)),
                    ("gimme", "gimme_nested"))
        transport = server.connect(LOCALHOST)
        with pytest.raises(RemoteError, match="IP protection"):
            transport.invoke("leak", "gimme")
        with pytest.raises(RemoteError, match="IP protection"):
            transport.invoke("leak", "gimme_nested")

    def test_leak_blocked_over_tcp_too(self):
        server = JavaCADServer("leaky.tcp.provider")
        server.bind("leak", LeakyServant(array_multiplier(2)),
                    ("gimme",))
        host, port = server.serve_tcp()
        transport = TcpTransport(host, port)
        try:
            # The TCP server thread hits the marshal error while
            # encoding the reply; the connection dies, and the client
            # sees a remote/marshal failure, never the netlist.
            with pytest.raises((RemoteError, MarshalError)):
                transport.invoke("leak", "gimme")
        finally:
            transport.close()
            server.stop_tcp()


class TestDeadTransport:
    def test_stopped_server_surfaces_as_remote_error(self):
        server = JavaCADServer("dying.provider")
        server.bind("ip1.test", TestabilityServant(ip1_block()),
                    ("fault_list",))
        host, port = server.serve_tcp()
        transport = TcpTransport(host, port)
        try:
            assert transport.invoke("ip1.test", "fault_list")
            server.stop_tcp()
            with pytest.raises((RemoteError, OSError)):
                transport.invoke("ip1.test", "fault_list")
        finally:
            transport.close()

    def test_connect_to_nothing_fails_cleanly(self):
        transport = TcpTransport("127.0.0.1", 1)  # nothing listens here
        # Socket-level failures surface as RemoteError (one exception
        # type for all remote-call failures) and are accounted.
        with pytest.raises(RemoteError, match="transport failure"):
            transport.invoke("x", "y")
        assert transport.stats.errors == 1


class TestMalformedProviderData:
    def test_wrong_width_detection_table_rejected(self):
        """A table whose output patterns do not match the block's ports
        is caught at injection time, not silently mis-applied."""
        from repro.core import FaultSimulationError
        from repro.faults import DetectionTable

        class WrongWidthServant:
            def fault_list(self):
                return ("f0",)

            def detection_table(self, bits, undetected):
                return DetectionTable(
                    "evil", tuple(bits), (Logic.ONE,),
                    {(Logic.ZERO, Logic.ZERO, Logic.ZERO): {"f0"}})

        setup = build_figure4(stub=WrongWidthServant())
        with pytest.raises(FaultSimulationError, match="width"):
            setup.simulator.run([{"A": 1, "B": 1, "C": 0, "D": 1}])
