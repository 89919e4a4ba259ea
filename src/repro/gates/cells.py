"""Standard-cell library for gate-level netlists.

Each :class:`CellType` bundles a logic function with the physical data
the estimation framework needs: area (equivalent-gate units), pin-to-pin
propagation delay (ns) and switched energy per output toggle (fJ).  The
numbers are representative of a late-1990s standard-cell process; only
their relative magnitudes matter for the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..core.signal import (Logic, logic_and, logic_buf, logic_nand,
                           logic_nor, logic_not, logic_or, logic_xnor,
                           logic_xor)


@dataclass(frozen=True)
class CellType:
    """An available gate type with its logic function and cost data."""

    name: str
    evaluate: Callable[..., Logic]
    arity: Optional[int]
    """Required input count; None means variadic (two or more)."""

    area: float
    """Cell area in equivalent-gate units."""

    delay: float
    """Input-to-output propagation delay, ns."""

    energy: float
    """Energy switched per output toggle, fJ."""

    inverting: bool
    """Whether the cell logically inverts (drives fault equivalences)."""

    truth_table: Optional[tuple] = field(init=False, compare=False,
                                         repr=False)
    """``evaluate`` tabulated over all four :class:`Logic` values:
    ``table[a]`` for a one-pin cell, ``table[a][b]`` for a two-pin
    instance; None for a cell that never has one or two pins."""

    def __post_init__(self) -> None:
        pins, table = self.arity or 2, None
        if pins == 1:
            table = tuple(self.evaluate(a) for a in Logic)
        elif pins == 2:
            table = tuple(tuple(self.evaluate(a, b) for b in Logic)
                          for a in Logic)
        object.__setattr__(self, "truth_table", table)

    def table_for(self, n_inputs: int) -> Optional[tuple]:
        """The truth table of an ``n_inputs``-pin instance, or None when
        only ``evaluate`` covers it (three pins and up)."""
        return self.truth_table if n_inputs == (self.arity or 2) else None

    def check_arity(self, n_inputs: int) -> bool:
        """Whether this cell accepts ``n_inputs`` input pins."""
        if self.arity is not None:
            return n_inputs == self.arity
        return n_inputs >= 2


AND = CellType("AND", logic_and, None, area=1.25, delay=0.30, energy=9.0,
               inverting=False)
OR = CellType("OR", logic_or, None, area=1.25, delay=0.32, energy=9.5,
              inverting=False)
NAND = CellType("NAND", logic_nand, None, area=1.00, delay=0.22, energy=7.0,
                inverting=True)
NOR = CellType("NOR", logic_nor, None, area=1.00, delay=0.26, energy=7.5,
               inverting=True)
XOR = CellType("XOR", logic_xor, None, area=2.25, delay=0.45, energy=14.0,
               inverting=False)
XNOR = CellType("XNOR", logic_xnor, None, area=2.25, delay=0.47, energy=14.5,
                inverting=True)
NOT = CellType("NOT", logic_not, 1, area=0.50, delay=0.12, energy=4.0,
               inverting=True)
BUF = CellType("BUF", logic_buf, 1, area=0.75, delay=0.18, energy=5.0,
               inverting=False)

CELLS: Dict[str, CellType] = {
    cell.name: cell
    for cell in (AND, OR, NAND, NOR, XOR, XNOR, NOT, BUF)
}
"""All available cell types, by name."""


def cell(name: str) -> CellType:
    """Look up a cell type by (case-insensitive) name."""
    try:
        return CELLS[name.upper()]
    except KeyError:
        raise KeyError(f"unknown cell type: {name!r}") from None
