"""The builtin benchmark corpus: ISCAS-class circuits by name.

One registry serves every subsystem that accepts a bench *name*
instead of a file -- the CLI's ``faultsim``/``atpg``/``lint``/``table2``
commands, the remote fault farm's server-side bench resolution
(netlists never cross the wire, only their names do) and the
documentation generator.  Combinational entries build a
:class:`~repro.gates.netlist.Netlist`; sequential entries build a
:class:`~repro.gates.io.SequentialBench` (combinational core plus
flip-flop boundary).

The parameterized generators are calibrated against the classic ISCAS
size classes::

    alu8    ~100 gates   c432 class      8-bit 74181-style ALU
    ecc32   ~370 gates   c499/c1355      Hamming SECDED encode/correct
    alu32   ~390 gates   c880 class      32-bit ALU
    mult8   ~340 gates   c1908 class     8x8 array multiplier
    mult16  ~1450 gates  c6288 class     16x16 array multiplier
    s27     10 gates/3 FF   ISCAS-89 s27 (verbatim)
    salu8   ~130 gates/10 FF  s344 class  registered alu8
    secc32  ~440 gates/39 FF  s1196 class registered ecc32
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from ..core.errors import DesignError
from .io import (SequentialBench, read_bench, read_sequential_bench, s27)
from .netlist import Netlist

Bench = Union[Netlist, SequentialBench]


@dataclass(frozen=True)
class CorpusEntry:
    """One builtin bench: a name, a size class and a factory."""

    name: str
    kind: str  # "combinational" | "sequential"
    build: Callable[[], Bench]
    description: str
    size_class: str = ""

    @property
    def sequential(self) -> bool:
        return self.kind == "sequential"


def _figure4() -> Netlist:
    from ..bench.faultbench import figure4_flat_netlist
    return figure4_flat_netlist()


def _chatty() -> Netlist:
    from ..bench.faultbench import chatty_fault_bench
    return chatty_fault_bench()


def _c17() -> Netlist:
    from .io import c17
    return c17()


def _alu(width: int) -> Callable[[], Netlist]:
    def build() -> Netlist:
        from .generators import alu
        return alu(width, name=f"alu{width}")
    return build


def _ecc(width: int) -> Callable[[], Netlist]:
    def build() -> Netlist:
        from .generators import secded
        return secded(width, name=f"ecc{width}")
    return build


def _mult(width: int) -> Callable[[], Netlist]:
    def build() -> Netlist:
        from .generators import array_multiplier
        return array_multiplier(width, name=f"mult{width}")
    return build


def _wrapped(factory: Callable[[], Netlist],
             name: str) -> Callable[[], SequentialBench]:
    def build() -> SequentialBench:
        from .generators import sequential_wrap
        return sequential_wrap(factory(), name=name)
    return build


_CORPUS: Dict[str, CorpusEntry] = {}


def _register(entry: CorpusEntry) -> None:
    _CORPUS[entry.name] = entry


_register(CorpusEntry("c17", "combinational", _c17,
                      "smallest ISCAS-85 benchmark (6 NAND)", "c17"))
_register(CorpusEntry("figure4", "combinational", _figure4,
                      "the paper's Figure 4 worked example", "toy"))
_register(CorpusEntry("chatty", "combinational", _chatty,
                      "random 168-gate netlist (wire-layer showcase)",
                      "toy"))
_register(CorpusEntry("alu8", "combinational", _alu(8),
                      "8-bit 74181-style ALU (AND/OR/XOR/ADD + flags)",
                      "c432"))
_register(CorpusEntry("ecc32", "combinational", _ecc(32),
                      "32-bit Hamming SECDED encode-check-correct",
                      "c499/c1355"))
_register(CorpusEntry("alu32", "combinational", _alu(32),
                      "32-bit 74181-style ALU", "c880"))
_register(CorpusEntry("mult8", "combinational", _mult(8),
                      "8x8 unsigned array multiplier", "c1908"))
_register(CorpusEntry("mult16", "combinational", _mult(16),
                      "16x16 unsigned array multiplier", "c6288"))
_register(CorpusEntry("s27", "sequential", s27,
                      "ISCAS-89 s27 (verbatim bench text)", "s27"))
_register(CorpusEntry("salu8", "sequential",
                      _wrapped(_alu(8), "salu8"),
                      "alu8 behind a registered boundary", "s344"))
_register(CorpusEntry("secc32", "sequential",
                      _wrapped(_ecc(32), "secc32"),
                      "ecc32 behind a registered boundary", "s1196"))


def corpus_names(kind: Optional[str] = None) -> Tuple[str, ...]:
    """All builtin bench names, optionally filtered by kind."""
    return tuple(name for name, entry in _CORPUS.items()
                 if kind is None or entry.kind == kind)


def corpus_entries() -> Tuple[CorpusEntry, ...]:
    """Every registry entry, in registration order."""
    return tuple(_CORPUS.values())


def corpus_entry(name: str) -> CorpusEntry:
    """The registry entry for one builtin bench name."""
    try:
        return _CORPUS[name]
    except KeyError:
        raise DesignError(
            f"unknown builtin bench {name!r} (available: "
            f"{', '.join(_CORPUS)})") from None


def _looks_sequential(text: str) -> bool:
    """Whether bench text contains a ``DFF`` cell line."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        if "=" in line and line.split("=", 1)[1].strip() \
                .upper().startswith("DFF"):
            return True
    return False


def parse_bench(text: str, name: str, validate: bool = True) -> Bench:
    """Parse ``.bench`` text: sequential if it has ``DFF`` lines."""
    if _looks_sequential(text):
        return read_sequential_bench(text, name=name, validate=validate)
    return read_bench(text, name=name, validate=validate)


def load_bench(spec: str, validate: bool = True) -> Bench:
    """Resolve a bench spec: a ``.bench`` file path or a builtin name.

    Files are sniffed for ``DFF`` lines: sequential text parses into a
    :class:`SequentialBench`, everything else into a plain
    :class:`Netlist`.  Unknown names raise :class:`DesignError` listing
    the corpus.
    """
    import os
    if os.path.exists(spec):
        with open(spec) as handle:
            return parse_bench(handle.read(), spec, validate=validate)
    if spec not in _CORPUS:
        raise DesignError(
            f"cannot resolve bench {spec!r}: neither a file nor a "
            f"builtin bench (available: {', '.join(_CORPUS)})")
    return corpus_entry(spec).build()
