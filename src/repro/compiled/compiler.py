"""Netlist-to-Python compiler for pattern-packed simulation.

The compiler levelizes a netlist once and emits a straight-line Python
function containing one bitwise expression per gate, working on whole
machine words of packed test patterns.  Three-valued logic uses a
two-word encoding per net -- a *value* word ``v`` and a *care* word
``c`` -- with the canonical invariant ``v & ~c == 0``:

==========  ===========  ==========
``Logic``   value bit    care bit
==========  ===========  ==========
``ZERO``    0            1
``ONE``     1            1
``X`` (*)   0            0
==========  ===========  ==========

(*) ``Z`` packs like ``X``: gates read high-impedance inputs through
``Logic.driven()``, which maps ``Z`` to ``X``, so the distinction only
matters for the raw echo of primary-input values (handled by the
runner, not the kernel).

Under the invariant, equality of two ``Logic`` values is exactly
equality of their (value, care) bit pairs, which is what makes the
packed detection word ``(vg ^ vf) | (cg ^ cf)`` agree bit-for-bit with
the interpreted simulator's output-tuple comparison.

Two functions are generated per netlist:

* ``run_good(iv, ic)`` -- fault-free evaluation; returns the
  ``(v, c)`` pair of every net, interleaved in net order.
* ``run_fault(iv, ic, fm, fv)`` -- the same straight line with a
  mask-based *injection hook* at every fault site: ``fm`` holds one
  mask word per site (zero wherever no fault is active; a hook whose
  mask is zero is skipped) and ``fv`` the stuck value word, so
  activating a fault is two word writes, not a recompile.  Every
  statement is a pure bitwise operation -- no shift, no add -- so bit
  positions never interact and the words may be as wide as the caller
  likes: the runners give every fault its own lane of patterns.

Sites mirror :func:`repro.faults.faultlist.enumerate_faults`: one stem
site per net, plus one branch site per gate input pin whose source net
fans out to more than one reader.

Compilation is cached process-wide, keyed by a content hash over the
netlist structure, and reports ``compiled.*`` telemetry (compile time,
cache hits/misses).  The same hash keys the process-wide fault-list
build memo (:func:`built_fault_list`), so every session of a farm
worker shares one netlist, one fault list and one kernel per bench.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..core.errors import FaultSimulationError
from ..faults.faultlist import FaultList, build_fault_list
from ..gates.netlist import Netlist
from ..telemetry.runtime import TELEMETRY

_GoodFn = Callable[[Sequence[int], Sequence[int]], Tuple[int, ...]]
_FaultFn = Callable[[Sequence[int], Sequence[int], Sequence[int], int],
                    Tuple[int, ...]]


def netlist_fingerprint(netlist: Netlist) -> str:
    """A content hash of the netlist structure (not its name).

    Two netlists with the same inputs, outputs and gate list compile to
    the same kernel, so they share one cache entry.  The digest is kept
    in the netlist's derived cache: any ``add_*`` drops it, pickles
    leave it out, and a cache lookup does not re-hash every gate.
    """
    return netlist._cached("fingerprint", lambda: _hash_structure(netlist))


def _hash_structure(netlist: Netlist) -> str:
    digest = hashlib.sha256()
    digest.update(repr(netlist.inputs).encode())
    digest.update(repr(netlist.outputs).encode())
    for gate in netlist.gates:
        digest.update(repr((gate.name, gate.cell.name, gate.inputs,
                            gate.output)).encode())
    return digest.hexdigest()


def _gate_lines(cell_name: str, out_v: str, out_c: str,
                vs: Sequence[str], cs: Sequence[str]) -> List[str]:
    """The straight-line statements computing one gate's output words.

    Every formula preserves the canonical invariant and reproduces the
    four-valued semantics of :mod:`repro.core.signal` (0 dominates AND,
    1 dominates OR, any X poisons XOR/XNOR).  All intermediate values
    stay non-negative: ``~x`` only ever appears masked by a care word.
    """
    v_and = " & ".join(vs)
    v_or = " | ".join(vs)
    v_xor = " ^ ".join(vs)
    c_all = " & ".join(cs)
    any_zero = " | ".join(f"({c} & ~{v})" for v, c in zip(vs, cs))
    if cell_name == "BUF":
        return [f"{out_v} = {vs[0]}", f"{out_c} = {cs[0]}"]
    if cell_name == "NOT":
        return [f"{out_v} = {cs[0]} & ~{vs[0]}", f"{out_c} = {cs[0]}"]
    if cell_name == "AND":
        return [f"{out_v} = {v_and}",
                f"{out_c} = ({c_all}) | {any_zero}"]
    if cell_name == "NAND":
        return [f"{out_c} = ({c_all}) | {any_zero}",
                f"{out_v} = {out_c} & ~({v_and})"]
    if cell_name == "OR":
        return [f"{out_v} = {v_or}",
                f"{out_c} = ({c_all}) | {out_v}"]
    if cell_name == "NOR":
        return [f"_t = {v_or}",
                f"{out_c} = ({c_all}) | _t",
                f"{out_v} = {out_c} & ~_t"]
    if cell_name == "XOR":
        return [f"{out_c} = {c_all}",
                f"{out_v} = ({v_xor}) & {out_c}"]
    if cell_name == "XNOR":
        return [f"{out_c} = {c_all}",
                f"{out_v} = {out_c} & ~({v_xor})"]
    raise FaultSimulationError(
        f"cannot compile cell type {cell_name!r}")


def _force(site: int, v: str, c: str) -> str:
    """The injection hook of one site: override the (value, care) pair
    ``v``, ``c`` where the site's mask is set, and skip the hook where
    no fault is active (all but a few hundred sites in any one run)."""
    return f"if m := fm[{site}]: {v} = {v} & ~m | fv & m; {c} |= m"


class CompiledKernel:
    """One netlist compiled to straight-line word-op Python.

    Attributes are all derived once at compile time; the kernel itself
    is immutable and safe to share between simulators (and across
    equal-content netlists via the compile cache).
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        order = netlist.levelize()
        self.fingerprint = netlist_fingerprint(netlist)
        self.inputs: Tuple[str, ...] = netlist.inputs
        self.outputs: Tuple[str, ...] = netlist.outputs
        self.gate_count = len(order)
        # Net order: primary inputs first, then gate outputs in
        # levelized (emission) order.
        nets: List[str] = list(self.inputs)
        nets.extend(gate.output for gate in order)
        self.nets: Tuple[str, ...] = tuple(nets)
        self.net_index: Dict[str, int] = {
            net: index for index, net in enumerate(self.nets)}
        self.output_index: Tuple[int, ...] = tuple(
            self.net_index[net] for net in self.outputs)
        # Fault sites, numbered stems first then branch pins, mirroring
        # enumerate_faults (branch sites only where fanout > 1).
        self.stem_site: Dict[str, int] = {
            net: index for index, net in enumerate(self.nets)}
        self.branch_site: Dict[Tuple[str, int], int] = {}
        site = len(self.nets)
        for net in self.nets:
            readers = netlist.fanout_of(net)
            if len(readers) <= 1:
                continue
            for gate, pin in readers:
                self.branch_site[(gate.name, pin)] = site
                site += 1
        self.site_count = site
        self.source = self._generate(order)
        namespace: Dict[str, Any] = {}
        exec(compile(self.source, f"<compiled:{netlist.name}>", "exec"),
             namespace)
        self.run_good: _GoodFn = namespace["run_good"]
        self.run_fault: _FaultFn = namespace["run_fault"]

    # ------------------------------------------------------------------

    def site_for(self, fault: Any) -> int:
        """The injection-site index of a stuck-at fault.

        Branch sites exist only where the fault universe has them
        (source fanout > 1); anything else is a stem site.
        """
        if fault.is_stem:
            try:
                return self.stem_site[fault.net]
            except KeyError:
                raise FaultSimulationError(
                    f"no net {fault.net!r} in compiled kernel") from None
        try:
            return self.branch_site[(fault.gate_name, fault.pin)]
        except KeyError:
            raise FaultSimulationError(
                f"no compiled injection site for branch fault at "
                f"{fault.gate_name}.{fault.pin} (single-fanout pins "
                f"collapse to their stem)") from None

    # ------------------------------------------------------------------

    def _generate(self, order: Sequence[Any]) -> str:
        lines: List[str] = []
        self._emit(lines, order, with_faults=False)
        lines.append("")
        self._emit(lines, order, with_faults=True)
        return "\n".join(lines) + "\n"

    def _emit(self, lines: List[str], order: Sequence[Any],
              with_faults: bool) -> None:
        index = self.net_index
        if with_faults:
            lines.append("def run_fault(iv, ic, fm, fv):")
        else:
            lines.append("def run_good(iv, ic):")
        body: List[str] = []
        for position, net in enumerate(self.inputs):
            i = index[net]
            body.append(f"v{i} = iv[{position}]")
            body.append(f"c{i} = ic[{position}]")
            if with_faults:
                body.append(_force(self.stem_site[net], f"v{i}", f"c{i}"))
        for gate in order:
            vs: List[str] = []
            cs: List[str] = []
            for pin, source in enumerate(gate.inputs):
                s = index[source]
                site = self.branch_site.get((gate.name, pin))
                if with_faults and site is not None:
                    body.append(f"b{pin}v = v{s}")
                    body.append(f"b{pin}c = c{s}")
                    body.append(_force(site, f"b{pin}v", f"b{pin}c"))
                    vs.append(f"b{pin}v")
                    cs.append(f"b{pin}c")
                else:
                    vs.append(f"v{s}")
                    cs.append(f"c{s}")
            out = index[gate.output]
            body.extend(_gate_lines(gate.cell.name, f"v{out}", f"c{out}",
                                    vs, cs))
            if with_faults:
                body.append(_force(self.stem_site[gate.output],
                                   f"v{out}", f"c{out}"))
        terms = ", ".join(f"v{i}, c{i}" for i in range(len(self.nets)))
        body.append(f"return ({terms})")
        lines.extend(f"    {line}" for line in body)


_KERNEL_CACHE: Dict[str, CompiledKernel] = {}
_KERNEL_LOCK = threading.Lock()


def compile_netlist(netlist: Netlist) -> CompiledKernel:
    """Compile a netlist, reusing the process-wide kernel cache.

    Concurrent server sessions compile against the same cache, so the
    lookup and the insert are serialized; compilation itself runs
    outside the lock, and on a losing race the first kernel in wins
    (identical fingerprints compile to identical kernels, so either
    copy serves both callers).
    """
    key = netlist_fingerprint(netlist)
    with _KERNEL_LOCK:
        kernel = _KERNEL_CACHE.get(key)
    if kernel is not None:
        if TELEMETRY.enabled:
            TELEMETRY.metrics.counter("compiled.cache.hits").inc()
        return kernel
    begin = time.perf_counter()
    kernel = CompiledKernel(netlist)
    elapsed = time.perf_counter() - begin
    with _KERNEL_LOCK:
        kernel = _KERNEL_CACHE.setdefault(key, kernel)
    if TELEMETRY.enabled:
        metrics = TELEMETRY.metrics
        metrics.counter("compiled.cache.misses").inc()
        metrics.counter("compiled.compile_seconds").inc(elapsed)
        metrics.counter("compiled.kernels").inc()
    return kernel


def clear_kernel_cache() -> None:
    """Drop every cached kernel (tests and memory-sensitive callers)."""
    with _KERNEL_LOCK:
        _KERNEL_CACHE.clear()


_BUILD_CACHE: Dict[Tuple[str, str], Tuple[Netlist, FaultList]] = {}
_BUILD_LOCK = threading.Lock()


def built_fault_list(netlist: Netlist, collapse: str = "equivalence"
                     ) -> Tuple[Netlist, FaultList]:
    """The process-wide ``(netlist, fault list)`` of a netlist's content.

    Keyed like the kernel cache plus the collapse mode; the first
    caller's netlist is kept and returned to every later caller of
    equal content, so its derived tables and levelized order are shared
    along with the list.  The build runs under the lock: concurrent
    first shards of one bench wait for one build instead of each doing
    their own (``faults.build_cache.misses`` counts builds).  Both
    values are shared, so callers must treat them as read-only.
    """
    key = (netlist_fingerprint(netlist), collapse)
    with _BUILD_LOCK:
        built = _BUILD_CACHE.get(key)
        hit = built is not None
        if built is None:
            built = _BUILD_CACHE[key] = (
                netlist, build_fault_list(netlist, collapse=collapse))
    if TELEMETRY.enabled:
        TELEMETRY.metrics.counter(
            "faults.build_cache.hits" if hit
            else "faults.build_cache.misses").inc()
    return built


def clear_build_cache() -> None:
    """Drop every memoized fault-list build (cold set-ups, tests)."""
    with _BUILD_LOCK:
        _BUILD_CACHE.clear()
