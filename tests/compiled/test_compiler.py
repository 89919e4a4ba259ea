"""Unit tests for the netlist-to-Python compiler and its cache."""

import pickle

import pytest

from repro.compiled import (clear_kernel_cache, compile_netlist,
                            netlist_fingerprint)
from repro.compiled.compiler import CompiledKernel, _gate_lines, _value_line
from repro.core.errors import FaultSimulationError
from repro.core.signal import Logic
from repro.faults.model import StuckAtFault
from repro.parallel.remote import resolve_bench
from repro.gates.netlist import Netlist
from repro.telemetry import TELEMETRY, telemetry_session


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_kernel_cache()
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    clear_kernel_cache()
    TELEMETRY.disable()
    TELEMETRY.reset()


def small_netlist(name="small"):
    netlist = Netlist(name)
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_output("o")
    netlist.add_gate("AND", ["a", "b"], "n0", name="g0")
    netlist.add_gate("NOT", ["n0"], "o", name="g1")
    return netlist


class TestFingerprint:
    def test_name_independent(self):
        assert netlist_fingerprint(small_netlist("x")) \
            == netlist_fingerprint(small_netlist("y"))

    def test_structure_sensitive(self):
        other = Netlist("small")
        other.add_input("a")
        other.add_input("b")
        other.add_output("o")
        other.add_gate("OR", ["a", "b"], "n0", name="g0")
        other.add_gate("NOT", ["n0"], "o", name="g1")
        assert netlist_fingerprint(small_netlist()) \
            != netlist_fingerprint(other)


    def test_cached_on_the_netlist_until_it_changes(self):
        netlist = small_netlist()
        before = netlist_fingerprint(netlist)
        assert netlist._derived["fingerprint"] == before
        netlist.add_output("n0")
        assert "fingerprint" not in netlist._derived
        assert netlist_fingerprint(netlist) != before

    def test_left_out_of_pickles(self):
        netlist = small_netlist()
        before = netlist_fingerprint(netlist)
        clone = pickle.loads(pickle.dumps(netlist))
        assert clone._derived == {}
        assert netlist_fingerprint(clone) == before


class TestKernelCache:
    def test_equal_content_shares_one_kernel(self):
        first = compile_netlist(small_netlist("one"))
        second = compile_netlist(small_netlist("two"))
        assert second is first

    def test_clear_forces_recompile(self):
        first = compile_netlist(small_netlist())
        clear_kernel_cache()
        assert compile_netlist(small_netlist()) is not first

    def test_hit_and_miss_counters(self):
        with telemetry_session():
            compile_netlist(small_netlist())
            compile_netlist(small_netlist())
            metrics = TELEMETRY.metrics
            assert metrics.counter("compiled.cache.misses").value == 1
            assert metrics.counter("compiled.cache.hits").value == 1
            assert metrics.counter("compiled.kernels").value == 1
            assert metrics.counter("compiled.compile_seconds").value > 0


class TestKernelShape:
    def test_generates_both_entry_points(self):
        kernel = CompiledKernel(resolve_bench("figure4"))
        assert "def run_good(iv, ic):" in kernel.source
        assert "def run_fault(iv, ic, fm, fv):" in kernel.source
        assert "def run_good2(iv, k):" in kernel.source
        assert "def run_fault2(iv, k, fm, fv):" in kernel.source
        assert callable(kernel.run_good)
        assert callable(kernel.run_fault)

    def test_one_skippable_hook_per_site(self):
        kernel = CompiledKernel(resolve_bench("figure4"))
        # One hook per site in each run_fault flavour.
        assert kernel.source.count("if m := fm[") == 2 * kernel.site_count
        iv = [0b0101] * len(kernel.inputs)
        ic = [0b1111] * len(kernel.inputs)
        assert kernel.run_fault(iv, ic, [0] * kernel.site_count, 0,
                                0b1111) \
            == kernel.run_good(iv, ic)

    def test_net_order_inputs_then_levelized(self):
        netlist = resolve_bench("figure4")
        kernel = CompiledKernel(netlist)
        assert kernel.nets[:len(netlist.inputs)] == netlist.inputs
        assert kernel.gate_count == netlist.gate_count()
        assert len(kernel.nets) == len(netlist.inputs) + kernel.gate_count

    def test_branch_sites_only_on_fanout(self):
        kernel = CompiledKernel(small_netlist())
        # Every net here has fanout <= 1: stems only.
        assert kernel.branch_site == {}
        assert kernel.site_count == len(kernel.nets)

    def test_unknown_cell_rejected(self):
        with pytest.raises(FaultSimulationError, match="cannot compile"):
            _gate_lines("MAJ", "v9", "c9", ["v0"], ["c0"])
        with pytest.raises(FaultSimulationError, match="cannot compile"):
            _value_line("MAJ", "v9", ["v0"])

    def test_two_valued_lines_complement_inside_the_known_lanes(self):
        assert _value_line("NOT", "v2", ["v0"]) == "v2 = v0 ^ k"
        assert _value_line("NOR", "v2", ["v0", "v1"]) \
            == "v2 = (v0 | v1) ^ k"
        assert _value_line("XOR", "v2", ["v0", "v1"]) == "v2 = (v0 ^ v1)"


class TestSiteLookup:
    def test_unknown_stem_net_rejected(self):
        kernel = CompiledKernel(small_netlist())
        with pytest.raises(FaultSimulationError, match="no net"):
            kernel.site_for(StuckAtFault.stem("ghost", 1))

    def test_single_fanout_branch_rejected(self):
        kernel = CompiledKernel(small_netlist())
        fault = StuckAtFault("n0", Logic.ONE, gate_name="g1", pin=0)
        with pytest.raises(FaultSimulationError, match="single-fanout"):
            kernel.site_for(fault)
