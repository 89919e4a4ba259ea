"""Behavioural DSP modules operating on sample streams.

A small processing library at the paper's behavioural level: sources,
FIR filtering, decimation, gain and probes, all frame-at-a-time over
:class:`~repro.behav.stream.StreamConnector`.  Filter state (the
convolution tail) lives in the per-scheduler LUT, so concurrent
simulations of one pipeline stay independent.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, List, Optional,
                    Sequence, Tuple)

from ..core.errors import DesignError, check_positive
from ..core.module import ModuleSkeleton
from ..core.port import PortDirection
from ..core.token import SelfTriggerToken, SignalToken, Token
from .stream import Frame, StreamConnector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.controller import SimulationContext


class StreamSource(ModuleSkeleton):
    """Emits a sequence of frames, one per ``period`` time units."""

    def __init__(self, frames: Sequence[Frame], out: StreamConnector,
                 period: float = 1.0, name: Optional[str] = None):
        super().__init__(name=name)
        check_positive(f"source {self.name!r}: period", period)
        self.frames = tuple(frames)
        self.period = period
        self.add_port("out", PortDirection.OUT, 1, connector=out)

    def initialize(self, ctx: "SimulationContext") -> None:
        if self.frames:
            self.self_trigger(ctx, 0.0, tag="frame", payload=0)

    def process_self_trigger(self, token: SelfTriggerToken,
                             ctx: "SimulationContext") -> None:
        index = token.payload
        self.emit("out", self.frames[index], ctx)
        if index + 1 < len(self.frames):
            self.self_trigger(ctx, self.period, tag="frame",
                              payload=index + 1)


class StreamProbe(ModuleSkeleton):
    """Records every received frame per scheduler (the stream sink)."""

    def __init__(self, source: StreamConnector,
                 name: Optional[str] = None):
        super().__init__(name=name)
        self.add_port("in", PortDirection.IN, 1, connector=source)

    def process_input_event(self, token: SignalToken,
                            ctx: "SimulationContext") -> None:
        self.state(ctx).setdefault("frames", []).append(token.value)

    def frames(self, ctx: "SimulationContext") -> List[Frame]:
        """All frames observed in this run."""
        return self.state(ctx).get("frames", [])

    def samples(self, ctx: "SimulationContext") -> List[int]:
        """The concatenated sample stream observed in this run."""
        flat: List[int] = []
        for frame in self.frames(ctx):
            flat.extend(frame.samples)
        return flat


class FIRFilter(ModuleSkeleton):
    """A streaming FIR filter: ``y[n] = sum(c[k] * x[n-k])``.

    The convolution tail carries over between frames (per scheduler),
    so frame boundaries are transparent to the filtered signal.
    """

    def __init__(self, coefficients: Sequence[int],
                 source: StreamConnector, sink: StreamConnector,
                 name: Optional[str] = None):
        super().__init__(name=name)
        if not coefficients:
            raise DesignError(f"filter {self.name!r}: need coefficients")
        self.coefficients = tuple(int(c) for c in coefficients)
        self.add_port("in", PortDirection.IN, 1, connector=source)
        self.add_port("out", PortDirection.OUT, 1, connector=sink)

    def process_input_event(self, token: SignalToken,
                            ctx: "SimulationContext") -> None:
        frame: Frame = token.value
        state = self.state(ctx)
        tail: Tuple[int, ...] = state.get(
            "tail", (0,) * (len(self.coefficients) - 1))
        history = list(tail) + list(frame.samples)
        taps = len(self.coefficients)
        outputs = []
        for position in range(len(frame.samples)):
            window = history[position:position + taps]
            outputs.append(sum(c * x for c, x
                               in zip(reversed(self.coefficients),
                                      window)))
        if taps > 1:
            state["tail"] = tuple(history[-(taps - 1):])
        self.emit("out", Frame(outputs, frame.rate), ctx)

    def event_cost(self, cost_model: Any, token: Token) -> float:
        frame = getattr(token, "value", None)
        samples = len(frame) if isinstance(frame, Frame) else 1
        return cost_model.word_op * samples * len(self.coefficients) \
            / 16.0


class Decimator(ModuleSkeleton):
    """Keeps every N-th sample of the stream."""

    def __init__(self, factor: int, source: StreamConnector,
                 sink: StreamConnector, name: Optional[str] = None):
        super().__init__(name=name)
        if factor < 1:
            raise DesignError(f"decimator {self.name!r}: factor >= 1")
        self.factor = factor
        self.add_port("in", PortDirection.IN, 1, connector=source)
        self.add_port("out", PortDirection.OUT, 1, connector=sink)

    def process_input_event(self, token: SignalToken,
                            ctx: "SimulationContext") -> None:
        frame: Frame = token.value
        state = self.state(ctx)
        offset = state.get("offset", 0)
        kept = [sample for index, sample in enumerate(frame.samples)
                if (index + offset) % self.factor == 0]
        state["offset"] = (offset + len(frame.samples)) % self.factor
        self.emit("out", Frame(kept, frame.rate / self.factor), ctx)


class SampleMap(ModuleSkeleton):
    """Applies a per-sample function (gain, clipping, companding...)."""

    def __init__(self, fn: Callable[[int], int], source: StreamConnector,
                 sink: StreamConnector, name: Optional[str] = None):
        super().__init__(name=name)
        self._fn = fn
        self.add_port("in", PortDirection.IN, 1, connector=source)
        self.add_port("out", PortDirection.OUT, 1, connector=sink)

    def process_input_event(self, token: SignalToken,
                            ctx: "SimulationContext") -> None:
        self.emit("out", token.value.map(self._fn), ctx)
