"""Behavioural RT-level combinational modules.

These word-level modules are the "abstract functional models" of the
paper: they implement functionality (e.g. multiplication as ``a * b``)
without any structural information, and therefore can be distributed as
the *public part* of an IP component and run on the user's machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from ..core.connector import Connector
from ..core.errors import check_positive
from ..core.module import ModuleSkeleton
from ..core.port import PortDirection
from ..core.signal import Logic, Word
from ..core.token import SignalToken, Token

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.controller import SimulationContext


class BinaryWordOp(ModuleSkeleton):
    """Base class: combinational two-operand word operator.

    Ports ``a``/``b`` (inputs, ``width`` bits) and ``o`` (output,
    ``out_width`` bits).  The output is re-emitted whenever either input
    changes and both operands have been seen; unknown operands yield an
    unknown output.
    """

    def __init__(self, width: int, a: Connector, b: Connector, o: Connector,
                 out_width: Optional[int] = None, delay: float = 0.0,
                 name: Optional[str] = None):
        super().__init__(name=name)
        check_positive(f"module {self.name!r}: delay", delay, zero=True)
        self.width = width
        self.out_width = out_width or width
        self.delay = delay
        self.add_port("a", PortDirection.IN, width, connector=a)
        self.add_port("b", PortDirection.IN, width, connector=b)
        self.add_port("o", PortDirection.OUT, self.out_width, connector=o)

    def compute(self, a: Word, b: Word) -> Word:
        """The word function; override in subclasses."""
        raise NotImplementedError

    def process_input_event(self, token: SignalToken,
                            ctx: "SimulationContext") -> None:
        a = self.read("a", ctx)
        b = self.read("b", ctx)
        if not (isinstance(a, Word) and isinstance(b, Word)):
            return
        if not (a.known and b.known):
            result: Word = Word.unknown(self.out_width)
        else:
            result = self.compute(a, b).resize(self.out_width)
        self.emit("o", result, ctx, delay=self.delay)

    def event_cost(self, cost_model: Any, token: Token) -> float:
        return cost_model.word_op


class WordAdder(BinaryWordOp):
    """``o = (a + b) mod 2**out_width``."""

    def compute(self, a: Word, b: Word) -> Word:
        return a + b


class WordSubtractor(BinaryWordOp):
    """``o = (a - b) mod 2**out_width``."""

    def compute(self, a: Word, b: Word) -> Word:
        return a - b


class WordMultiplier(BinaryWordOp):
    """Behavioural multiplier: the IP component's public functional model.

    The default output width is ``2 * width``, matching the paper's
    Figure 2 where the product connector is ``2 * width`` bits wide.
    """

    def __init__(self, width: int, a: Connector, b: Connector, o: Connector,
                 delay: float = 0.0, name: Optional[str] = None):
        super().__init__(width, a, b, o, out_width=2 * width, delay=delay,
                         name=name)

    def compute(self, a: Word, b: Word) -> Word:
        return a * b


class BitwiseAnd(BinaryWordOp):
    """``o = a & b``."""

    def compute(self, a: Word, b: Word) -> Word:
        return a & b


class BitwiseOr(BinaryWordOp):
    """``o = a | b``."""

    def compute(self, a: Word, b: Word) -> Word:
        return a | b


class BitwiseXor(BinaryWordOp):
    """``o = a ^ b``."""

    def compute(self, a: Word, b: Word) -> Word:
        return a ^ b


class WordFunction(BinaryWordOp):
    """A combinational operator defined by an arbitrary Python callable.

    Convenient for quick behavioural models::

        WordFunction(8, a, b, o, fn=lambda x, y: Word(x.value % 7, 8))
    """

    def __init__(self, width: int, a: Connector, b: Connector, o: Connector,
                 fn: Callable[[Word, Word], Word],
                 out_width: Optional[int] = None, delay: float = 0.0,
                 name: Optional[str] = None):
        super().__init__(width, a, b, o, out_width=out_width, delay=delay,
                         name=name)
        self._fn = fn

    def compute(self, a: Word, b: Word) -> Word:
        return self._fn(a, b)


class WordMux(ModuleSkeleton):
    """Two-way word multiplexer: ``o = a`` when ``sel`` is 0, else ``b``."""

    def __init__(self, width: int, sel: Connector, a: Connector,
                 b: Connector, o: Connector, delay: float = 0.0,
                 name: Optional[str] = None):
        super().__init__(name=name)
        check_positive(f"mux {self.name!r}: delay", delay, zero=True)
        self.width = width
        self.delay = delay
        self.add_port("sel", PortDirection.IN, 1, connector=sel)
        self.add_port("a", PortDirection.IN, width, connector=a)
        self.add_port("b", PortDirection.IN, width, connector=b)
        self.add_port("o", PortDirection.OUT, width, connector=o)

    def process_input_event(self, token: SignalToken,
                            ctx: "SimulationContext") -> None:
        sel = self.read("sel", ctx)
        if not isinstance(sel, Logic) or not sel.is_known:
            self.emit("o", Word.unknown(self.width), ctx, delay=self.delay)
            return
        source = "b" if sel.to_bool() else "a"
        value = self.read(source, ctx)
        if isinstance(value, Word):
            self.emit("o", value, ctx, delay=self.delay)

    def event_cost(self, cost_model: Any, token: Token) -> float:
        return cost_model.word_op
