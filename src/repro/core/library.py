"""Standard module library: stimulus sources, sinks, registers, clocks.

These are the "standard JavaCAD packages" modules of the paper's
Figure 2: random primary inputs, primary outputs, registers and clock
generators, usable at both the bit and the word level.
"""

from __future__ import annotations

import random
from typing import (TYPE_CHECKING, Any, List, Optional, Sequence, Tuple,
                    Union)

from .connector import Connector
from .errors import DesignError, SimulationError, check_positive
from .module import ModuleSkeleton
from .port import PortDirection
from .signal import Logic, SignalValue, Word
from .token import SelfTriggerToken, SignalToken, Token

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .controller import SimulationContext


def _coerce(raw: Union[int, Logic, Word], width: int) -> SignalValue:
    """Turn a raw pattern entry into the right signal value for a width."""
    if width == 1:
        if isinstance(raw, Logic):
            return raw
        if isinstance(raw, Word):
            return Logic(raw.value & 1)
        return Logic(int(raw) & 1)
    if isinstance(raw, Word):
        return raw.resize(width)
    if isinstance(raw, Logic):
        return Word(int(raw), width)
    return Word(int(raw), width)


class PatternPrimaryInput(ModuleSkeleton):
    """Drives one or more connectors with a fixed pattern sequence.

    Pattern ``i`` is emitted at simulated time ``i * period``.  The module
    is autonomous: it self-triggers through the scheduler, one token per
    pattern, so different schedulers replay the sequence independently.
    """

    def __init__(self, width: int, patterns: Sequence[Union[int, Logic, Word]],
                 *connectors: Connector, period: float = 1.0,
                 name: Optional[str] = None):
        super().__init__(name=name)
        if not connectors:
            raise DesignError(f"input {self.name!r} drives no connector")
        check_positive(f"input {self.name!r}: period", period)
        self.width = width
        self.period = period
        self._patterns: Tuple[SignalValue, ...] = tuple(
            _coerce(p, width) for p in patterns)
        for index, connector in enumerate(connectors):
            self.add_port(f"out{index}", PortDirection.OUT, width,
                          connector=connector)

    @property
    def patterns(self) -> Tuple[SignalValue, ...]:
        """The coerced pattern sequence this source emits."""
        return self._patterns

    def initialize(self, ctx: "SimulationContext") -> None:
        if self._patterns:
            self.self_trigger(ctx, 0.0, tag="pattern", payload=0)

    def process_self_trigger(self, token: SelfTriggerToken,
                             ctx: "SimulationContext") -> None:
        index = token.payload
        value = self._patterns[index]
        for port in self.output_ports():
            self.emit(port.name, value, ctx)
        if index + 1 < len(self._patterns):
            self.self_trigger(ctx, self.period, tag="pattern",
                              payload=index + 1)

    def event_cost(self, cost_model: Any, token: Token) -> float:
        return cost_model.word_op


class RandomPrimaryInput(PatternPrimaryInput):
    """Drives connectors with uniformly random patterns (paper Figure 2).

    The sequence is generated once, deterministically from ``seed``, so
    concurrent schedulers and repeated runs all see the same stimulus.
    """

    def __init__(self, width: int, *connectors: Connector,
                 patterns: int = 100, seed: int = 0, period: float = 1.0,
                 name: Optional[str] = None):
        rng = random.Random(seed)
        values = [rng.getrandbits(width) for _ in range(patterns)]
        super().__init__(width, values, *connectors, period=period,
                         name=name)


class PrimaryOutput(ModuleSkeleton):
    """Observes a connector, recording ``(time, value)`` per scheduler."""

    def __init__(self, width: int, connector: Connector,
                 name: Optional[str] = None):
        super().__init__(name=name)
        self.width = width
        self.add_port("in", PortDirection.IN, width, connector=connector)

    def process_input_event(self, token: SignalToken,
                            ctx: "SimulationContext") -> None:
        trace = self.state(ctx).setdefault("trace", [])
        trace.append((ctx.now, token.value))

    def trace(self, ctx: "SimulationContext") -> List[Tuple[float,
                                                            SignalValue]]:
        """The recorded ``(time, value)`` trace for the context's run."""
        return self.state(ctx).get("trace", [])

    def last_value(self, ctx: "SimulationContext") -> Optional[SignalValue]:
        """Most recent observed value, or None before any event."""
        trace = self.trace(ctx)
        return trace[-1][1] if trace else None


class Register(ModuleSkeleton):
    """A word/bit register.

    Two operating modes, selected by whether a clock connector is given:

    * *transparent* (default): every input event is stored and forwarded
      to the output after ``delay`` time units -- the mode used by the
      Figure 2 example where registers act as proprietary user macros;
    * *clocked*: input events only update the pending value; the stored
      value is sampled and emitted on each rising edge of the clock.
    """

    def __init__(self, width: int, data_in: Connector, data_out: Connector,
                 clock: Optional[Connector] = None, delay: float = 0.0,
                 name: Optional[str] = None):
        super().__init__(name=name)
        check_positive(f"register {self.name!r}: delay", delay, zero=True)
        self.width = width
        self.delay = delay
        self.add_port("d", PortDirection.IN, width, connector=data_in)
        self.add_port("q", PortDirection.OUT, width, connector=data_out)
        self.clocked = clock is not None
        if clock is not None:
            self.add_port("clk", PortDirection.IN, 1, connector=clock)

    def process_input_event(self, token: SignalToken,
                            ctx: "SimulationContext") -> None:
        state = self.state(ctx)
        if token.port.name == "d":
            if self.clocked:
                state["pending"] = token.value
            else:
                state["stored"] = token.value
                self.emit("q", token.value, ctx, delay=self.delay)
        elif token.port.name == "clk":
            if not isinstance(token.value, Logic):
                raise SimulationError(
                    f"register {self.name!r}: clock must be a Logic value")
            previous = state.get("clk", Logic.X)
            state["clk"] = token.value
            rising = previous is not Logic.ONE and token.value is Logic.ONE
            if rising and "pending" in state:
                state["stored"] = state["pending"]
                self.emit("q", state["pending"], ctx, delay=self.delay)

    def stored_value(self, ctx: "SimulationContext") -> Optional[SignalValue]:
        """The currently latched value for this context's run."""
        return self.state(ctx).get("stored")

    def event_cost(self, cost_model: Any, token: Token) -> float:
        return cost_model.word_op


class ClockGenerator(ModuleSkeleton):
    """An autonomous square-wave clock source (a self-trigger example).

    Emits ``ONE``/``ZERO`` alternately on its output every half period,
    for ``cycles`` full periods (or forever if ``cycles`` is None and a
    ``max_time`` bound stops the run).
    """

    def __init__(self, connector: Connector, period: float = 2.0,
                 cycles: Optional[int] = None, start_high: bool = True,
                 name: Optional[str] = None):
        super().__init__(name=name)
        check_positive(f"clock {self.name!r}: period", period)
        self.period = period
        self.cycles = cycles
        self.start_high = start_high
        self.add_port("clk", PortDirection.OUT, 1, connector=connector)

    def initialize(self, ctx: "SimulationContext") -> None:
        self.self_trigger(ctx, 0.0, tag="edge", payload=0)

    def process_self_trigger(self, token: SelfTriggerToken,
                             ctx: "SimulationContext") -> None:
        edge_index = token.payload
        high = (edge_index % 2 == 0) == self.start_high
        self.emit("clk", Logic.from_bool(high), ctx)
        if self.cycles is not None and edge_index + 1 >= 2 * self.cycles:
            return
        self.self_trigger(ctx, self.period / 2.0, tag="edge",
                          payload=edge_index + 1)
