"""Netlist-to-Python compiler for pattern-packed simulation.

The compiler levelizes a netlist once and emits Python containing one
bitwise expression per gate, working on whole machine words of packed
test patterns.  Three-valued logic uses a two-word encoding per net --
a *value* word ``v`` and a *care* word ``c`` -- with the canonical
invariant ``v & ~c == 0``:

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

Two entry points run the generated code:

* ``run_good(iv, ic)`` -- fault-free evaluation; returns two planes,
  ``(values, cares)``: every net's value word and every net's care
  word, each in net order.  It is a chain of chunk functions of
  :data:`GOOD_CHUNK_GATES` gates each, all writing one list per
  plane: CPython's compiler holds a whole function's syntax tree at
  once, so a straight line of a few thousand gates costs tens of
  megabytes to compile.
* ``run_fault(iv, ic, fm, fv, lanes)`` -- one straight line (chunking it
  costs a quarter of a campaign's speed) with a mask-based *injection
  hook* at every fault site: ``fm`` holds one mask word per site (zero
  wherever no fault is active; a hook whose mask is zero is skipped)
  and ``fv`` the stuck value word, so activating a fault is two word
  writes, not a recompile.  Every statement is a pure bitwise
  operation -- no shift, no add -- so bit positions never interact and
  the words may be as wide as the caller likes: the runners give every
  fault its own lane of patterns, and ``lanes`` is the word of every
  bit of the lanes a run fills, every mask inside it.

Each comes in two flavours generated from one gate walk, and each
flavour is compiled on first use (a kernel that only ever runs
fault-free -- power estimation -- never builds ``run_fault``).  The
*three-valued* flavour computes both words of every net.  The
*two-valued* one computes value words only and serves a block whose
inputs are all known: when every input's care word is the same word
``k``, every net's care word is ``k`` too (lanes in ``k`` see only 0/1
inputs; lanes outside it see all-X inputs, so every net there is X),
so a gate is one statement on value words, with an inverting cell
complemented inside the known lanes (``... ^ k``), and its care plane
is the one int ``k`` standing for every net's care word (``k`` may
have holes: lanes outside it are X on every net).  The kernel picks
the flavour from the words it is given; nothing else chooses, and a
consumer reads ``type(cares) is int`` as that fact rather than
re-deriving it (:func:`care_word`).

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
from functools import cached_property
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

from ..core.errors import FaultSimulationError
from ..faults.faultlist import FaultList, build_fault_list
from ..gates.netlist import Netlist
from ..telemetry.runtime import TELEMETRY

Planes = Tuple[Tuple[int, ...], Any]
"""A kernel result: every net's value word, and its care words -- a
tuple in net order, or one int that is every net's care word."""

_GoodFn = Callable[[Sequence[int], Any], Planes]
_FaultFn = Callable[[Sequence[int], Any, Sequence[int], int], Planes]

GOOD_CHUNK_GATES = 100
"""Gates per chunk function of ``run_good``.  A constant, not a knob:
on ``mult16`` the chunked kernel runs as fast as one straight line and
compiles in a tenth of the memory."""


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


_VALUE_OPS = {"BUF": "", "NOT": "", "AND": " & ", "NAND": " & ",
              "OR": " | ", "NOR": " | ", "XOR": " ^ ", "XNOR": " ^ "}
"""Per cell: the operator joining its inputs' value words in a
two-valued run (none for the one-input cells)."""

_INVERTING = frozenset({"NOT", "NAND", "NOR", "XNOR"})


def _value_line(cell_name: str, out_v: str, vs: Sequence[str]) -> str:
    """The one statement computing a gate's value word in a two-valued
    run: inputs are 0/1 inside ``k`` and 0 outside it, so ``... ^ k``
    is the complement that keeps the lanes outside ``k`` at 0."""
    op = _VALUE_OPS.get(cell_name)
    if op is None:
        raise FaultSimulationError(
            f"cannot compile cell type {cell_name!r}")
    term = f"({op.join(vs)})" if op else vs[0]
    if cell_name in _INVERTING:
        return f"{out_v} = {term} ^ k"
    return f"{out_v} = {term}"


def _force(site: int, v: str, c: Optional[str]) -> str:
    """The injection hook of one site: override the (value, care) pair
    ``v``, ``c`` where the site's mask is set, and skip the hook where
    no fault is active (all but the live faults' sites in any one run).
    A two-valued run (``c`` None) has every mask inside its known
    lanes, so the care word stays ``k``."""
    hook = f"if m := fm[{site}]: {v} = {v} & ~m | fv & m"
    return hook if c is None else f"{hook}; {c} |= m"


def care_word(cares: Any, index: int) -> int:
    """Net ``index``'s care word in the care plane of a kernel result
    (a two-valued run's plane is one word for every net)."""
    return cares if type(cares) is int else cares[index]


def _known_lanes(ic: Sequence[int]) -> int:
    """The care word every input shares, or 0 when they differ."""
    if not ic:
        return 0
    known = ic[0]
    return known if ic.count(known) == len(ic) else 0


def _count_two_valued() -> None:
    if TELEMETRY.enabled:
        TELEMETRY.metrics.counter("compiled.two_valued_runs").inc()


def _exec(sources: Iterable[str], name: str, label: str) -> Any:
    """Compile each function on its own -- one syntax tree alive at a
    time -- into one namespace, and return the one called ``name``."""
    namespace: Dict[str, Any] = {}
    for source in sources:
        exec(compile(source, label, "exec"), namespace)
    return namespace[name]


class CompiledKernel:
    """One netlist compiled to word-op Python.

    Attributes are all derived once at compile time and each entry
    point's flavours are compiled on first use; the kernel itself is
    immutable and safe to share between simulators (and across
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
        # Fault sites, numbered stems first (a stem's site is its net's
        # index) then branch pins, mirroring enumerate_faults (branch
        # sites only where fanout > 1).
        self.stem_site: Dict[str, int] = self.net_index
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
        self._order = order
        self._label = f"<compiled:{netlist.name}>"

    def run_good(self, iv: Sequence[int], ic: Sequence[int]) -> Planes:
        """Fault-free evaluation of one block of packed patterns: the
        ``(values, cares)`` planes, one word per net in net order.

        ``iv`` / ``ic`` hold one value and one care word per input and
        obey the canonical invariant.  When every care word is one
        nonzero word ``k`` the two-valued flavour runs and ``cares`` is
        ``k`` itself, every net's care word; otherwise the three-valued
        one does and ``cares`` is a tuple.  Both state the same words.
        """
        known = _known_lanes(ic)
        if known:
            _count_two_valued()
            return self._good2(iv, known)
        return self._good3(iv, ic)

    def run_fault(self, iv: Sequence[int], ic: Sequence[int],
                  fm: Sequence[int], fv: int, lanes: int) -> Planes:
        """:meth:`run_good` with the hooks of ``fm`` / ``fv`` forcing
        their sites.

        Every mask lies inside ``lanes``, the word of every bit of the
        lanes the run fills (``ppsfp._fault_lanes`` builds them so).
        The two-valued flavour runs when every input's care word is
        ``lanes`` itself: every pattern is known in every lane, so a
        forced lane is a known lane and no care word moves.  Anything
        else takes the three-valued body.  A care word that is all-ones
        from bit 0 is not enough: a block whose last pattern is all
        ``X``, copied into one lane, has such a word, and its lane mask
        reaches the unknown bit.  Checking ``lanes`` rather than every
        mask keeps a scan of ``fm`` (one word per site, thousands of
        them) out of every run.
        """
        if _known_lanes(ic) == lanes:
            _count_two_valued()
            return self._fault2(iv, lanes, fm, fv)
        return self._fault3(iv, ic, fm, fv)

    @cached_property
    def _good3(self) -> _GoodFn:
        return self._build(self._emit_good(self._order, False), "run_good")

    @cached_property
    def _good2(self) -> _GoodFn:
        return self._build(self._emit_good(self._order, True), "run_good2")

    @cached_property
    def _fault3(self) -> _FaultFn:
        return self._build([self._emit_fault(self._order, False)],
                           "run_fault")

    @cached_property
    def _fault2(self) -> _FaultFn:
        return self._build([self._emit_fault(self._order, True)],
                           "run_fault2")

    def _build(self, sources: Iterable[str], name: str) -> Any:
        """One flavour's functions, compiled on first use.  Two threads
        racing here both compile it and either copy serves."""
        begin = time.perf_counter()
        function = _exec(sources, name, self._label)
        if TELEMETRY.enabled:
            TELEMETRY.metrics.counter("compiled.compile_seconds").inc(
                time.perf_counter() - begin)
        return function

    @property
    def source(self) -> str:
        """Every entry point's text (three-valued, then two-valued),
        generated again on each read."""
        return "\n".join("".join(self._emit_good(self._order, two_valued))
                         + "\n" + self._emit_fault(self._order, two_valued)
                         for two_valued in (False, True))

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

    def _emit_good(self, order: Sequence[Any], two_valued: bool
                   ) -> Iterator[str]:
        """``run_good``'s chunks and then ``run_good``, one function's
        text at a time: the inputs go into one word list per plane
        (``wv``, ``wc``), then one call per chunk; a chunk loads the
        words it reads from earlier chunks and stores every word it
        computes.  The two-valued flavour (``run_good2``) computes value
        words only and returns ``k`` as the care plane."""
        index = self.net_index
        inputs = len(self.inputs)
        nets = len(self.nets)
        if two_valued:
            chunk, args = "_good2_", "wv, k"
            head = ["def run_good2(iv, k):",
                    f"    wv = [0] * {nets}",
                    f"    wv[0:{inputs}] = iv"]
        else:
            chunk, args = "_good", "wv, wc"
            head = ["def run_good(iv, ic):",
                    f"    wv = [0] * {nets}",
                    f"    wc = [0] * {nets}",
                    f"    wv[0:{inputs}] = iv",
                    f"    wc[0:{inputs}] = ic"]
        for first in range(0, len(order), GOOD_CHUNK_GATES):
            name = f"{chunk}{first // GOOD_CHUNK_GATES}"
            head.append(f"    {name}({args})")
            gates = order[first:first + GOOD_CHUNK_GATES]
            made = {index[gate.output] for gate in gates}
            loads = dict.fromkeys(index[source] for gate in gates
                                  for source in gate.inputs
                                  if index[source] not in made)
            body = [f"v{i} = wv[{i}]" if two_valued
                    else f"v{i} = wv[{i}]; c{i} = wc[{i}]"
                    for i in loads]
            for gate in gates:
                out = index[gate.output]
                vs = [f"v{index[s]}" for s in gate.inputs]
                if two_valued:
                    body.append(_value_line(gate.cell.name, f"v{out}", vs))
                    body.append(f"wv[{out}] = v{out}")
                    continue
                body.extend(_gate_lines(
                    gate.cell.name, f"v{out}", f"c{out}", vs,
                    [f"c{index[s]}" for s in gate.inputs]))
                body.append(f"wv[{out}] = v{out}; wc[{out}] = c{out}")
            yield "\n".join([f"def {name}({args}):"] + [
                f"    {line}" for line in body]) + "\n"
        head.append("    return tuple(wv), k" if two_valued
                    else "    return tuple(wv), tuple(wc)")
        yield "\n".join(head) + "\n"

    def _emit_fault(self, order: Sequence[Any], two_valued: bool) -> str:
        """``run_fault``'s straight line; the two-valued flavour
        (``run_fault2``) carries value words only and returns ``k`` as
        the care plane."""
        index = self.net_index
        body: List[str] = []

        def load(v: str, c: str, source_v: str, source_c: str,
                 site: int) -> None:
            body.append(f"{v} = {source_v}")
            if two_valued:
                body.append(_force(site, v, None))
            else:
                body.append(f"{c} = {source_c}")
                body.append(_force(site, v, c))

        for position, net in enumerate(self.inputs):
            i = index[net]
            load(f"v{i}", f"c{i}", f"iv[{position}]", f"ic[{position}]",
                 self.stem_site[net])
        for gate in order:
            vs: List[str] = []
            cs: List[str] = []
            for pin, source in enumerate(gate.inputs):
                s = index[source]
                site = self.branch_site.get((gate.name, pin))
                if site is None:
                    vs.append(f"v{s}")
                    cs.append(f"c{s}")
                    continue
                load(f"b{pin}v", f"b{pin}c", f"v{s}", f"c{s}", site)
                vs.append(f"b{pin}v")
                cs.append(f"b{pin}c")
            out = index[gate.output]
            if two_valued:
                body.append(_value_line(gate.cell.name, f"v{out}", vs))
            else:
                body.extend(_gate_lines(gate.cell.name, f"v{out}",
                                        f"c{out}", vs, cs))
            body.append(_force(self.stem_site[gate.output], f"v{out}",
                               None if two_valued else f"c{out}"))
        values = "".join(f"v{i}, " for i in range(len(self.nets)))
        cares = "k" if two_valued else "(" + "".join(
            f"c{i}, " for i in range(len(self.nets))) + ")"
        body.append(f"return ({values}), {cares}")
        signature = "run_fault2(iv, k, fm, fv)" if two_valued \
            else "run_fault(iv, ic, fm, fv)"
        return "\n".join([f"def {signature}:"] + [
            f"    {line}" for line in body]) + "\n"


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


_BENCH_CACHE: Dict[Tuple[str, Optional[str]], Netlist] = {}


def built_bench(key: Tuple[str, Optional[str]],
                build: Callable[[], Netlist]) -> Netlist:
    """The process-wide netlist of a bench spec, built once per ``key``.

    ``key`` is ``(spec, sha256 of the file's bytes)`` for a file bench
    and ``(spec, None)`` for a builtin, so an edited file is a new key
    and rebuilt.  Like :func:`built_fault_list` the build runs under
    the lock and its netlist is shared with every later caller (its
    fingerprint stays cached on it, so the build memo then hits in
    O(1)); callers must treat it as read-only.  A failing ``build``
    stores nothing.
    """
    with _BUILD_LOCK:
        netlist = _BENCH_CACHE.get(key)
        hit = netlist is not None
        if netlist is None:
            netlist = _BENCH_CACHE[key] = build()
    if TELEMETRY.enabled:
        TELEMETRY.metrics.counter(
            "faults.bench_cache.hits" if hit
            else "faults.bench_cache.misses").inc()
    return netlist


def clear_build_cache() -> None:
    """Drop every memoized bench and fault-list build (cold set-ups,
    tests)."""
    with _BUILD_LOCK:
        _BENCH_CACHE.clear()
        _BUILD_CACHE.clear()
