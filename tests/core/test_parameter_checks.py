"""Numeric parameters are refused where they enter: NaN and the
infinities as well as zero and negatives, by one checker that names the
parameter (``repro.core.errors.check_positive``; integer counts go
through ``check_count``, which refuses fractions and bools as well)."""

import math
from dataclasses import fields

import pytest

from repro.behav.dsp import StreamSource
from repro.behav.stream import Frame, StreamConnector
from repro.cache.response import ResponseCache
from repro.core import (BitConnector, ClockGenerator, Delay, DesignError,
                        EstimationError, Fanout, ParameterError,
                        PatternPrimaryInput, Register, WordConnector)
from repro.core.errors import BillingError, ParallelExecutionError
from repro.estimation import EstimatorSkeleton
from repro.gates import parity_tree
from repro.ip import BillingAccount, NegotiationServant
from repro.net import LOCALHOST, CostModel, NetworkModel, VirtualClock
from repro.core.errors import RemoteError
from repro.parallel import WorkerPool, resolve_workers
from repro.parallel.sharding import weighted_shards
from repro.power import SiliconReference, ToggleCountModel
from repro.power.montecarlo import monte_carlo_power
from repro.power.toggle import PowerModel
from repro.rmi import BatchingTransport, JavaCADServer
from repro.rtl import WordAdder, WordMux
from repro.server import AsyncRMIServer
from repro.telemetry.metrics import Counter

VALUES = [math.nan, math.inf, -math.inf, 0, -1]


def words(count):
    return [WordConnector(8) for _ in range(count)]


#: (what is called, the parameter its message names, values it
#: allows among VALUES).  Zero is allowed for a delay (the value moves
#: in the same instant) and for an estimator's error, cost and CPU time;
#: it is their default everywhere but ``Delay``.
CALLS = {
    "ResponseCache.ttl": (lambda v: ResponseCache(ttl=v), "ttl", ()),
    "ResponseCache.put.ttl": (
        lambda v: ResponseCache().put("o.m:k", b"v", ttl=v), "ttl", ()),
    "Frame.rate": (lambda v: Frame([1], rate=v), "rate", ()),
    "StreamSource.period": (
        lambda v: StreamSource([], StreamConnector(), period=v), "period",
        ()),
    "PatternPrimaryInput.period": (
        lambda v: PatternPrimaryInput(1, [0], BitConnector(), period=v),
        "period", ()),
    "Register.delay": (
        lambda v: Register(8, *words(2), delay=v), "delay", (0,)),
    "WordAdder.delay": (
        lambda v: WordAdder(8, *words(3), delay=v), "delay", (0,)),
    "WordMux.delay": (
        lambda v: WordMux(8, BitConnector(), *words(3), delay=v), "delay",
        (0,)),
    "Fanout.delays": (
        lambda v: Fanout(8, *words(1), words(2), delays=[0.0, v]),
        "branch delay", (0,)),
    "Delay.delay": (
        lambda v: Delay(8, *words(2), delay=v), "delay", (0,)),
    "EstimatorSkeleton.expected_error": (
        lambda v: EstimatorSkeleton("p", "e", expected_error=v),
        "expected_error", (0,)),
    "EstimatorSkeleton.cost": (
        lambda v: EstimatorSkeleton("p", "e", cost=v), "cost", (0,)),
    "EstimatorSkeleton.cpu_time": (
        lambda v: EstimatorSkeleton("p", "e", cpu_time=v), "cpu_time",
        (0,)),
    "ClockGenerator.period": (
        lambda v: ClockGenerator(BitConnector(), period=v), "period", ()),
    "monte_carlo_power.relative_tolerance": (
        lambda v: monte_carlo_power(ToggleCountModel(parity_tree(4)),
                                    ("i",), (4,), relative_tolerance=v),
        "relative_tolerance", ()),
    "PowerModel.frequency": (
        lambda v: PowerModel(parity_tree(4), frequency=v), "frequency", ()),
    **{f"SiliconReference.{name}": (
        lambda v, name=name: SiliconReference(parity_tree(4),
                                              **{name: v}), name, (0,))
       for name in ("variation", "short_circuit", "glitch",
                    "transition_jitter", "leakage_fj")},
    "NetworkModel.latency": (
        lambda v: NetworkModel("x", latency=v, bandwidth=1.0), "latency",
        (0,)),
    "NetworkModel.bandwidth": (
        lambda v: NetworkModel("x", latency=0.0, bandwidth=v),
        "bandwidth", ()),
    # A NaN budget was accepted and then never enforced: every
    # ``total + amount > nan`` is false.
    "BillingAccount.budget": (
        lambda v: BillingAccount(budget=v), "budget", (0,)),
    "NegotiationServant.list_price": (
        lambda v: NegotiationServant(list_price=v), "list_price", (0,)),
    # ``amount < 0`` alone let a NaN or an infinity into the total.
    "Counter.inc": (lambda v: Counter("c").inc(v), "amount", (0,)),
    "weighted_shards.weight_of": (
        lambda v: weighted_shards(["a", "b"], 2, lambda name: v), "weight",
        (0,)),
}
# Integer counts.  ``workers`` 0 (like None) means one per usable CPU.
COUNTS = {
    "ResponseCache.max_entries": (
        lambda v: ResponseCache(max_entries=v), "max_entries", ()),
    "BatchingTransport.max_batch": (
        lambda v: BatchingTransport(JavaCADServer("x").connect(LOCALHOST),
                                    max_batch=v), "max_batch", ()),
    "WorkerPool.workers": (
        lambda v: WorkerPool(workers=v), "workers", (0,)),
    "resolve_workers": (resolve_workers, "workers", (0,)),
    "AsyncRMIServer.dispatch_workers": (
        lambda v: AsyncRMIServer(JavaCADServer("x"), dispatch_workers=v),
        "dispatch_workers", ()),
    "AsyncRMIServer.max_connections": (
        lambda v: AsyncRMIServer(JavaCADServer("x"), max_connections=v),
        "max_connections", ()),
}
CALLS.update(COUNTS)
# Every cost may be zero (a free operation); the wire bytes per
# payload byte may not.
CALLS.update({
    f"CostModel.{field.name}": (
        lambda v, name=field.name: CostModel(**{name: v}), field.name,
        () if field.name == "wire_overhead_factor" else (0,))
    for field in fields(CostModel)})


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("call", list(CALLS))
def test_out_of_range_values_are_refused_by_name(call, value):
    build, parameter, allowed = CALLS[call]
    if value in allowed:
        build(value)  # documented as allowed
        return
    with pytest.raises(ParameterError, match=parameter):
        build(value)


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"], ids=repr)
@pytest.mark.parametrize("call", list(COUNTS))
def test_a_count_refuses_what_is_not_an_integer(call, value):
    """``value < minimum`` alone let a fraction through: a cache of 2.5
    entries, a batch of 2.0 calls."""
    build, parameter, _allowed = COUNTS[call]
    with pytest.raises(ParameterError, match=parameter):
        build(value)


@pytest.mark.parametrize("value", VALUES + [2.5, True], ids=repr)
def test_a_remote_volume_is_refused_by_name(value):
    """``volume <= 0`` alone opened a session for NaN, 2.5 or True
    patterns."""
    server = JavaCADServer("x")
    server.bind("negotiation", NegotiationServant(list_price=1.0),
                NegotiationServant.REMOTE_METHODS)
    with pytest.raises(RemoteError, match="volume"):
        server.connect(LOCALHOST).invoke("negotiation", "open_session",
                                         (value,))
    with pytest.raises(RemoteError, match="volume"):
        NegotiationServant(list_price=1.0).open_session(value)


def test_the_refusal_is_every_error_the_constructors_raised_before():
    assert issubclass(ParameterError, ValueError)
    assert issubclass(ParameterError, DesignError)
    assert issubclass(ParameterError, EstimationError)
    assert issubclass(ParameterError, ParallelExecutionError)
    assert issubclass(ParameterError, BillingError)


def test_an_in_range_value_passes_through():
    assert Frame([1], rate=0.5).rate == 0.5
    assert Register(8, WordConnector(8), WordConnector(8),
                    delay=0.25).delay == 0.25



@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0],
                         ids=repr)
@pytest.mark.parametrize("method", ["charge_cpu", "charge_server_cpu",
                                    "wait", "begin_async"])
def test_the_clock_refuses_time_that_is_not_finite(method, value):
    """An infinite charge would leave every later reading infinite, as
    a NaN would leave it NaN: both are refused and the clock keeps the
    readings it had."""
    clock = VirtualClock()
    clock.charge_cpu(1.0)
    before = clock.snapshot()
    with pytest.raises(ValueError, match="non-finite"):
        getattr(clock, method)(value)
    assert clock.snapshot() == before
    getattr(clock, method)(0.0)  # zero is a legal amount


def test_a_network_model_with_no_bandwidth_is_refused_at_construction():
    """It used to construct and raise ZeroDivisionError on its first
    call_time."""
    with pytest.raises(ParameterError, match="bandwidth"):
        NetworkModel("x", latency=0.1, bandwidth=0.0)
