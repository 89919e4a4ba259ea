"""Provider-side publishing and servants."""

import pytest

from repro.core import IPProtectionError, RemoteError
from repro.faults import DetectionTable
from repro.gates import array_multiplier, parity_tree
from repro.ip import IPProvider, PowerServant
from repro.ip.provider import BitPowerServant, FunctionalServant
from repro.net import LOCALHOST
from repro.rmi.server import JavaCADServer
from tests.ip.conftest import WIDTH


class TestPublishing:
    def test_all_servants_bound(self, provider):
        names = provider.server.registry.names()
        assert "catalog" in names
        for suffix in ("power", "module", "timing", "test"):
            assert f"MultFastLowPower.{suffix}" in names

    def test_datasheet_contents(self, provider):
        sheet = provider.catalog.describe("MultFastLowPower")
        assert sheet["width"] == WIDTH
        assert sheet["area"] > 0
        assert sheet["delay_ns"] > 0
        assert sheet["power_constant_mw"] > 0
        assert len(sheet["estimators"]) == 3

    def test_unknown_component_described(self, provider):
        with pytest.raises(RemoteError):
            provider.catalog.describe("Nonexistent")

    def test_private_netlist_accessible_locally_only(self, provider):
        netlist = provider.private_netlist("MultFastLowPower")
        assert netlist.gate_count() > 0

    def test_private_netlist_blocked_over_rmi(self, provider):
        transport = provider.server.connect(LOCALHOST)
        # Even if someone bound it, dispatch would fail at marshalling;
        # and the accessor itself refuses inside a server context.
        provider.server.rebind("leak", provider,
                               ["private_netlist"])
        with pytest.raises(RemoteError,
                           match="IPProtectionError|MarshalError"):
            transport.invoke("leak", "private_netlist",
                             ("MultFastLowPower",))
        provider.server.registry.unbind("leak")

    def test_publish_generic_component(self):
        vendor = IPProvider("generic.provider")
        vendor.publish_netlist_component(parity_tree(4), "Parity4",
                                         ("i",), (4,))
        assert "Parity4.test" in vendor.server.registry.names()
        assert vendor.catalog.describe("Parity4")["area"] > 0


class Surface:
    """One power servant, bound on a server and called over RMI."""

    def __init__(self, servant, single, mark, arguments, patterns,
                 malformed):
        self.servant = servant
        self.single, self.mark = single, mark  # per-pattern methods
        self.arguments = arguments  # pattern -> their call arguments
        self.patterns = patterns  # three distinct well-formed ones
        self.malformed = malformed
        server = JavaCADServer("contract.provider")
        server.bind("ip.power", servant, servant.REMOTE_METHODS)
        self.transport = server.connect(LOCALHOST)

    def call(self, method, session, *args):
        return self.transport.invoke("ip.power", method, (session, *args))

    def call_pattern(self, method, session, pattern):
        return self.call(method, session, *self.arguments(pattern))


def operand_surface(enabled=True):
    return Surface(
        PowerServant(array_multiplier(3), ("a", "b"), (3, 3),
                     enabled=enabled),
        "power_of_pair", "mark_pattern", tuple,
        [(7, 5), (0, 0), (3, 6)], malformed=(1, 2, 3))


def bit_surface(enabled=True):
    return Surface(
        BitPowerServant(array_multiplier(3), enabled=enabled),
        "power_of_bits", "mark_bits", lambda bits: (list(bits),),
        [(1, 1, 1, 1, 0, 1), (0,) * 6, (1, 1, 0, 0, 1, 1)],
        malformed=(0, 1))


@pytest.mark.parametrize("surface", [operand_surface, bit_surface],
                         ids=["operands", "bits"])
class TestPowerSessionContract:
    """One session-state implementation, two wire surfaces: every case
    runs over RMI against :class:`PowerServant` (operand words) and
    :class:`BitPowerServant` (one bit per primary input), which differ
    only in how a pattern decodes."""

    def test_buffer_counts_and_fetch_returns_every_power(self, surface):
        ip = surface()
        assert ip.call("power_buffer", "s", ip.patterns[:2]) == 2
        assert ip.call("power_buffer", "s", ip.patterns[2:]) == 3
        powers = ip.call("fetch_results", "s")
        assert len(powers) == 3 and powers[0] > 0.0 and powers[2] > 0.0
        assert ip.call("fetch_results", "s") == powers

    def test_mark_accumulates_what_buffer_would(self, surface):
        ip = surface()
        for pattern in ip.patterns:
            assert ip.call_pattern(ip.mark, "marked", pattern) is None
        ip.call("power_buffer", "buffered", ip.patterns)
        assert ip.call("fetch_results", "marked") \
            == ip.call("fetch_results", "buffered")

    def test_single_is_unbuffered_but_advances_the_model(self, surface):
        ip = surface()
        ip.call("power_buffer", "reference", ip.patterns[:2])
        first, second = ip.call("fetch_results", "reference")
        assert ip.call_pattern(ip.single, "s", ip.patterns[0]) == first
        assert ip.call("fetch_results", "s") == []
        # A repeated pattern toggles nothing: consecutive patterns matter.
        assert ip.call_pattern(ip.single, "s", ip.patterns[0]) == 0.0
        assert ip.call_pattern(ip.single, "s", ip.patterns[1]) == second

    def test_sessions_are_isolated(self, surface):
        ip = surface()
        ip.call("power_buffer", "s1", ip.patterns)
        ip.call("power_buffer", "s2", ip.patterns[:1])
        assert len(ip.call("fetch_results", "s1")) == 3
        assert ip.call("fetch_results", "s2") \
            == ip.call("fetch_results", "s1")[:1]

    def test_reset_starts_the_sequence_over(self, surface):
        ip = surface()
        ip.call("power_buffer", "s", ip.patterns)
        before = ip.call("fetch_results", "s")
        assert ip.call("reset", "s") is None
        assert ip.call("fetch_results", "s") == []
        ip.call("power_buffer", "s", ip.patterns)
        assert ip.call("fetch_results", "s") == before

    def test_fetch_of_an_unknown_session_creates_no_state(self, surface):
        ip = surface()
        assert ip.call("fetch_results", "never-seen") == []
        assert ip.servant._sessions == {}
        ip.call("power_buffer", "seen", ip.patterns[:1])
        ip.call("reset", "seen")
        assert ip.call("fetch_results", "seen") == []
        assert ip.servant._sessions == {}

    def test_disabled_servant_returns_zero(self, surface):
        """The Figure 3 configuration: PPP call disabled."""
        ip = surface(enabled=False)
        assert ip.call_pattern(ip.single, "s", ip.patterns[0]) == 0.0
        ip.call("power_buffer", "s", ip.patterns[:2])
        ip.call_pattern(ip.mark, "s", ip.patterns[2])
        assert ip.call("fetch_results", "s") == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_malformed_pattern_is_a_remote_error(self, surface, enabled):
        ip = surface(enabled=enabled)
        with pytest.raises(RemoteError, match="expected|must align"):
            ip.call("power_buffer", "s", [ip.patterns[0], ip.malformed])
        # The well-formed pattern before it was estimated and kept.
        assert len(ip.call("fetch_results", "s")) == 1

    def test_only_its_own_five_methods_are_remote(self, surface):
        ip = surface()
        assert len(ip.servant.REMOTE_METHODS) == 5
        other = bit_surface() if surface is operand_surface \
            else operand_surface()
        for method in (other.single, other.mark):
            with pytest.raises(RemoteError):
                ip.call_pattern(method, "s", ip.patterns[0])


class TestPowerServant:
    def test_consecutive_patterns_matter(self):
        servant = PowerServant(parity_tree(4), ("i",), (4,))
        # 0b0111 flips the parity output; repeating it toggles nothing.
        servant.power_buffer("s", [(0b0111,), (0b0111,)])
        powers = servant.fetch_results("s")
        assert powers[0] > 0 and powers[1] == 0.0


class TestFunctionalServant:
    def test_emits_product_when_both_operands_known(self):
        servant = FunctionalServant(8)
        assert servant.handle_event("s", "a", 6) == []
        assert servant.handle_event("s", "b", 7) == [("o", 42)]

    def test_sessions_independent(self):
        servant = FunctionalServant(8)
        servant.handle_event("s1", "a", 2)
        assert servant.handle_event("s2", "b", 9) == []

    def test_unknown_port_rejected(self):
        servant = FunctionalServant(8)
        with pytest.raises(RemoteError):
            servant.handle_event("s", "q", 1)

    def test_product_masked_to_output_width(self):
        servant = FunctionalServant(4)
        servant.handle_event("s", "a", 15)
        [(_, product)] = servant.handle_event("s", "b", 15)
        assert product == 225  # fits in 8 bits

    def test_reset(self):
        servant = FunctionalServant(8)
        servant.handle_event("s", "a", 2)
        servant.reset("s")
        assert servant.handle_event("s", "b", 3) == []


class TestTimingServant:
    def test_timing_matches_netlist(self, provider):
        binding = provider.server.registry.lookup(
            "MultFastLowPower.timing")
        expected = provider.private_netlist(
            "MultFastLowPower").critical_path_delay()
        assert binding.servant.output_timing() == pytest.approx(expected)
