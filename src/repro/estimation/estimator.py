"""Estimators: named, characterized evaluators of parameters.

Estimators have a unique name, an expected accuracy (declared as an
expected error percentage), a monetary cost per invocation, and an
expected CPU time.  A given design component can have more than one
estimator for the same parameter, letting users trade accuracy against
cost and speed -- the paper's Table 1 compares three such estimators for
the power of a multiplier.

Estimators can be *local* (running on the user's client) or *remote*
(running on the provider's server); remote estimators additionally carry
the paper's flag warning that communicating with the remote server can
take an additional, unpredictable amount of time.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Tuple

from ..core.errors import check_positive
from ..core.module import ModuleSkeleton
from ..telemetry.runtime import TELEMETRY
from .parameter import NullValue, ParamValue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.controller import SimulationContext


class EstimatorSkeleton:
    """Base class for all estimators (the paper's EstimatorSkeleton).

    Providers subclass it and override :meth:`estimation`; everything
    else (characterization metadata, invocation protocol) is inherited.
    """

    def __init__(self, parameter: str, name: str,
                 expected_error: float = 0.0, cost: float = 0.0,
                 cpu_time: float = 0.0, units: str = ""):
        check_positive("expected_error", expected_error, zero=True)
        check_positive("cost", cost, zero=True)
        check_positive("cpu_time", cpu_time, zero=True)
        self.parameter = parameter
        self.name = name
        self.expected_error = expected_error
        """Expected estimation error, percent (lower is more accurate)."""
        self.cost = cost
        """Monetary cost per invocation (cents)."""
        self.cpu_time = cpu_time
        """Expected CPU seconds per invocation."""
        self.units = units

    @property
    def remote(self) -> bool:
        """Whether this estimator runs on the provider's server."""
        return False

    @property
    def unpredictable_time(self) -> bool:
        """Paper's Table 1 flag: remote communication can take an
        additional, unpredictable amount of time."""
        return self.remote

    # -- invocation protocol -------------------------------------------------

    def estimate(self, module: ModuleSkeleton,
                 ctx: "SimulationContext") -> ParamValue:
        """Evaluate the parameter for ``module`` and wrap the result."""
        if TELEMETRY.enabled:
            value = self._traced_estimation(module, ctx)
        else:
            value = self.estimation(module, ctx)
        if isinstance(value, ParamValue):
            return value
        return ParamValue(self.parameter, value, self.units,
                          self.expected_error, self.name)

    def _traced_estimation(self, module: ModuleSkeleton,
                           ctx: "SimulationContext") -> Any:
        """The evaluation wrapped in a span, comparing measured CPU
        time against the estimator's declared ``cpu_time`` metadata."""
        with TELEMETRY.tracer.span(
                f"estimate:{self.name}", category="estimator",
                clock=getattr(ctx, "clock", None),
                args={"estimator": self.name,
                      "parameter": self.parameter,
                      "module": module.name,
                      "declared_cpu_s": self.cpu_time,
                      "declared_cost_cents": self.cost,
                      "remote": self.remote}) as span:
            cpu_begin = time.process_time()
            value = self.estimation(module, ctx)
            measured_cpu = time.process_time() - cpu_begin
            span.set("measured_cpu_s", measured_cpu)
            metrics = TELEMETRY.metrics
            labels = {"estimator": self.name}
            metrics.counter("estimator.invocations", labels=labels).inc()
            metrics.histogram("estimator.cpu_seconds",
                              labels=labels).observe(measured_cpu)
            metrics.counter("estimator.measured_cpu_seconds",
                            labels=labels).inc(measured_cpu)
            metrics.counter("estimator.declared_cpu_seconds",
                            labels=labels).inc(self.cpu_time)
        return value

    def estimation(self, module: ModuleSkeleton,
                   ctx: "SimulationContext") -> Any:
        """The actual evaluation; override in subclasses."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = "remote" if self.remote else "local"
        return (f"{type(self).__name__}({self.name!r} -> {self.parameter}, "
                f"err={self.expected_error}%, cost={self.cost}, "
                f"cpu={self.cpu_time}s, {where})")


class NullEstimator(EstimatorSkeleton):
    """The default estimator: always returns a proper null value.

    Associated automatically with any parameter whose setup requirements
    cannot be satisfied, so that simulation remains possible even when
    no estimators are available for some modules.
    """

    def __init__(self, parameter: str):
        super().__init__(parameter, name="null", expected_error=100.0,
                         cost=0.0, cpu_time=0.0)

    def estimation(self, module: ModuleSkeleton,
                   ctx: "SimulationContext") -> ParamValue:
        return NullValue(self.parameter)


class ConstantEstimator(EstimatorSkeleton):
    """A static, precharacterized estimate (a data-sheet number)."""

    def __init__(self, parameter: str, value: Any, name: str = "constant",
                 expected_error: float = 25.0, cost: float = 0.0,
                 cpu_time: float = 0.0, units: str = ""):
        super().__init__(parameter, name, expected_error, cost, cpu_time,
                         units)
        self._value = value

    def estimation(self, module: ModuleSkeleton,
                   ctx: "SimulationContext") -> Any:
        return self._value


class CallableEstimator(EstimatorSkeleton):
    """An estimator defined by an arbitrary ``fn(module, ctx)``."""

    def __init__(self, parameter: str, name: str,
                 fn: Callable[[ModuleSkeleton, Any], Any],
                 expected_error: float = 0.0, cost: float = 0.0,
                 cpu_time: float = 0.0, units: str = ""):
        super().__init__(parameter, name, expected_error, cost, cpu_time,
                         units)
        self._fn = fn

    def estimation(self, module: ModuleSkeleton,
                   ctx: "SimulationContext") -> Any:
        return self._fn(module, ctx)


class RemoteEstimator(EstimatorSkeleton):
    """An estimator whose evaluation happens on the provider's server.

    The client-side half assembles the call arguments exclusively from
    information available at the module's own ports (``arg_builder``),
    then invokes the provider-side servant through the stub.  When
    ``oneway`` is set the call is non-blocking (the paper's threaded
    gate-level runs): the result is accumulated server-side and fetched
    later, so :meth:`estimate` returns a null value.
    """

    def __init__(self, parameter: str, name: str, stub: Any, method: str,
                 arg_builder: Callable[[ModuleSkeleton, Any],
                                       Tuple[Any, ...]],
                 expected_error: float = 0.0, cost: float = 0.0,
                 cpu_time: float = 0.0, units: str = "",
                 oneway: bool = False):
        super().__init__(parameter, name, expected_error, cost, cpu_time,
                         units)
        self.stub = stub
        self.method = method
        self.arg_builder = arg_builder
        self.oneway = oneway

    @property
    def remote(self) -> bool:
        return True

    def estimation(self, module: ModuleSkeleton,
                   ctx: "SimulationContext") -> Any:
        args = self.arg_builder(module, ctx)
        if self.oneway:
            self.stub.invoke(self.method, *args, oneway=True)
            return NullValue(self.parameter)
        return self.stub.invoke(self.method, *args)
