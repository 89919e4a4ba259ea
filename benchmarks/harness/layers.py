"""Per-layer microbenchmarks: each layer timed from outside.

Every function here calls one layer's public entry points on inputs
the caller hands it -- the workloads pass the very payloads, netlists
and reports their timed reps use -- and returns plain numbers.  They
run only in the traced pass, after the timed reps, so they never sit
inside an end-to-end measurement.  Like the end-to-end timings, every
time here is reported at reference speed (``hostspeed.py``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.compiled import (WORD_BITS, CompiledSimulator,
                            clear_kernel_cache, compile_netlist,
                            pack_patterns)
from repro.core.signal import Logic
from repro.faults import build_fault_list
from repro.faults.detection import build_detection_table
from repro.gates.simulator import NetlistSimulator
from repro.net.model import LOCALHOST
from repro.parallel import (merge_reports, parallel_fault_simulate,
                            shard_fault_list)
from repro.parallel.remote import report_from_wire, report_to_wire
from repro.power.toggle import ToggleCountModel
from repro.rmi import (CallReply, CallRequest, InProcessTransport,
                       TcpTransport, decode_request, marshal, unmarshal)

from child_server import probe_session
from hostspeed import Bracket
from stats import median

BATCHES = 5


def seconds_per_call(fn: Callable[[], Any], calls: int) -> float:
    """Median over ``BATCHES`` batches of the mean seconds per call."""
    batches: List[float] = []
    with Bracket() as bracket:
        for _ in range(BATCHES):
            begin = time.perf_counter()
            for _ in range(calls):
                fn()
            batches.append((time.perf_counter() - begin) / calls)
    return median(batches) * bracket.speed.wall_factor


def seconds_once(fn: Callable[[], Any]) -> float:
    """One call of ``fn``, for work that cannot be repeated warm."""
    with Bracket() as bracket:
        begin = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - begin
    return elapsed * bracket.speed.wall_factor


# -- rmi ----------------------------------------------------------------

def marshal_rates(value: Any, calls: int) -> Tuple[float, float]:
    """(encode, decode) microseconds per marshalled kilobyte of ``value``."""
    data = marshal(value)
    kilobytes = len(data) / 1024.0
    encode = seconds_per_call(lambda: marshal(value), calls)
    decode = seconds_per_call(lambda: unmarshal(data), calls)
    return encode * 1e6 / kilobytes, decode * 1e6 / kilobytes


def small_frame_us(calls: int) -> float:
    """Protocol cost of one ``ping``: both frames, both directions."""
    def round_trip() -> None:
        request = decode_request(
            CallRequest("probe", "ping", (7,)).encode())
        CallReply.decode(CallReply(request.call_id, True, 8).encode())
    return seconds_per_call(round_trip, calls) * 1e6


def inproc_call_us(calls: int) -> float:
    """One ``ping`` through :class:`InProcessTransport` (LOCALHOST)."""
    transport = InProcessTransport(probe_session(), LOCALHOST)
    return seconds_per_call(
        lambda: transport.invoke("probe", "ping", (7,), {}), calls) * 1e6


def tcp_call_us(host: str, port: int, token: str,
                calls: int) -> Tuple[float, int]:
    """One ``ping`` over one idle TCP session; also the calls it sent."""
    transport = TcpTransport(host, port, token=token)
    transport.connect()
    try:
        cost = seconds_per_call(
            lambda: transport.invoke("probe", "ping", (7,), {}), calls)
    finally:
        transport.close()
    return cost * 1e6, calls * BATCHES


def connect_auth_ms(host: str, port: int, token: str,
                    connects: int) -> float:
    """Median milliseconds to connect and pass AUTH on loopback."""
    samples: List[float] = []
    with Bracket() as bracket:
        for _ in range(connects):
            transport = TcpTransport(host, port, token=token)
            begin = time.perf_counter()
            transport.connect()
            samples.append(time.perf_counter() - begin)
            transport.close()
    return median(samples) * bracket.speed.wall_factor * 1e3


# -- gates / power ------------------------------------------------------

def toggle_model_times(netlist, patterns: Sequence[Mapping[str, Logic]]
                       ) -> Tuple[float, float]:
    """(first pattern incl. state build, steady-state pattern) in ms."""
    model = ToggleCountModel(netlist)
    first = seconds_once(lambda: model.power_of_pattern(dict(patterns[0])))
    steady: List[float] = []
    with Bracket() as bracket:
        for pattern in patterns[1:]:
            begin = time.perf_counter()
            model.power_of_pattern(dict(pattern))
            steady.append(time.perf_counter() - begin)
    return first * 1e3, median(steady) * bracket.speed.wall_factor * 1e3


def event_evaluate_us(netlist,
                      patterns: Sequence[Mapping[str, Logic]]) -> float:
    """Median microseconds of one ``NetlistSimulator.evaluate``."""
    simulator = NetlistSimulator(netlist)
    samples: List[float] = []
    with Bracket() as bracket:
        for pattern in patterns:
            begin = time.perf_counter()
            simulator.evaluate(pattern)
            samples.append(time.perf_counter() - begin)
    return median(samples) * bracket.speed.wall_factor * 1e6


# -- compiled / faults --------------------------------------------------

def compile_times(netlist, cached_calls: int) -> Tuple[float, float]:
    """(cold compile seconds, cached lookup microseconds)."""
    clear_kernel_cache()
    cold = seconds_once(lambda: compile_netlist(netlist))
    cached = seconds_per_call(lambda: compile_netlist(netlist),
                              cached_calls)
    return cold, cached * 1e6


def good_patterns_per_s(netlist, patterns: Sequence[Mapping[str, Logic]],
                        calls: int) -> float:
    """Fault-free patterns per second, one 64-pattern word per run."""
    kernel = CompiledSimulator(netlist).kernel
    block = patterns[:WORD_BITS]
    iv, ic = pack_patterns(kernel.inputs, block)
    cost = seconds_per_call(lambda: kernel.run_good(iv, ic), calls)
    return len(block) / cost


def detection_table_ms(netlist, fault_list, simulator,
                       input_values: Mapping[str, Logic],
                       calls: int) -> float:
    """One full-list ``build_detection_table`` in milliseconds."""
    return seconds_per_call(
        lambda: build_detection_table(netlist, fault_list, input_values,
                                      simulator=simulator), calls) * 1e3


def build_fault_list_s(netlist, collapse: str) -> float:
    return seconds_once(lambda: build_fault_list(netlist,
                                                 collapse=collapse))


# -- parallel -----------------------------------------------------------

def parallel_costs(netlist, fault_list, patterns, shard_reports,
                   engine: str) -> Dict[str, float]:
    """Shard, merge and report-wire costs plus a local 2-worker run."""
    calls = 20
    shard = seconds_per_call(lambda: shard_fault_list(fault_list, 2), calls)
    merge = seconds_per_call(lambda: merge_reports(shard_reports), calls)
    merged = merge_reports(shard_reports)
    wire = seconds_per_call(
        lambda: report_from_wire(report_to_wire(merged)), calls)
    local2 = seconds_once(lambda: parallel_fault_simulate(
        netlist, patterns, fault_list, workers=2, shards=2, engine=engine))
    return {"parallel.shard_s": shard, "parallel.merge_s": merge,
            "parallel.report_wire_s": wire,
            "parallel.local2_wall_s": local2}
