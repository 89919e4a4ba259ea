"""Remote fault farm: shipping fault-list shards over RMI BATCH.

This is the multi-host half of the paper's concurrency story: the
local :class:`~repro.parallel.pool.WorkerPool` fans shards out to
*processes*; :class:`RemoteWorkerPool` fans the same shards out to
*machines*, over the same protected RMI channel the simulation traffic
already uses.  Both are driven by :func:`~repro.parallel.sharding.
run_sharded` and run :func:`~repro.parallel.faultsim.simulate_shard`
per shard, so serial, local-parallel and remote-farm runs of one
campaign produce byte-identical reports.

The unit an endpoint is told about is the *campaign*, not the shard:

* ``begin_campaign`` (oneway) names the bench, the collapse mode,
  ``drop_detected`` and the gate-simulation engine (event or compiled;
  the client always sends a resolved name) under a client-chosen id;
* ``add_patterns`` (oneway, chunked) streams the pattern set;
* ``run_shard`` (blocking) names a fault subset, runs it and answers
  with the marshalled report plus the worker's telemetry snapshot;
* ``end_campaign`` (oneway) drops the servant's campaign state.

All are issued through a :class:`~repro.rmi.batching.
BatchingTransport`, so the announcement queues client-side and rides in
the :class:`~repro.rmi.protocol.BatchRequest` frame of that endpoint's
first ``run_shard``; every later shard is one small call carrying fault
names only.  The campaign crosses the wire once per endpoint
connection: an endpoint that fails a shard attempt forgets what it
announced (its transport may have reconnected to a fresh servant) and
announces again with its next shard.

Only marshallable values cross the wire: bench *names*, fault *names*,
pattern dicts of :class:`~repro.core.signal.Logic`.  Netlists never
travel (the marshaller rejects them by design); each worker rebuilds
the bench from its name, which is deterministic, so client and farm
agree on fault names and simulation semantics.

Endpoint failure is handled with the same ``excluded`` bookkeeping the
local pool's docs describe for poison shards: a shard that fails on an
endpoint never returns to that endpoint.  If the endpoint is dead
(``ping`` refused) the shard is retried on a survivor; if the endpoint
is alive the failure is the shard's own, and once every live endpoint
has rejected it the run fails fast with a
:class:`~repro.core.errors.ParallelExecutionError` carrying the
shard's index.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple,
                    Union)

from ..core.errors import ParallelExecutionError, RemoteError
from ..core.ids import id_scope
from ..faults.faultlist import FaultList, build_fault_list
from ..compiled import built_fault_list, resolve_engine
from ..faults.serial import FaultSimReport
from ..gates.netlist import Netlist
from ..rmi.server import JavaCADServer
from ..rmi.stub import RemoteStub
from ..rmi.tlsconfig import client_ssl_context
from ..rmi.batching import DEFAULT_MAX_BATCH
from ..rmi.transport import (DEFAULT_CONNECT_TIMEOUT, DEFAULT_TCP_TIMEOUT,
                             TcpTransport, Transport)
from ..rmi.wire import wrap_transport
from ..telemetry.runtime import TELEMETRY
from .faultsim import simulate_shard
from .merge import merge_reports
from .pool import TaskOutcome, _TASK_WALL_BUCKETS, merge_worker_metrics
from .sharding import run_sharded

FAULT_FARM_OBJECT = "faultfarm"
"""The server-side name a fault-farm servant is bound under."""

DEFAULT_PATTERNS_PER_CALL = 32
"""Patterns per ``add_patterns`` oneway (BATCH frame-size bound)."""

# Pool nonces namespace *client-chosen* farm campaign ids ("farm7").
# They cross the wire inside begin_campaign, but the servant treats them
# as opaque keys: report bytes never depend on the nonce value, so two
# pools sharing the sequence cannot perturb each other's results
# (pinned by tests/differential/test_counter_adjudication.py).
_pool_nonces = itertools.count(1)


# ----------------------------------------------------------------------
# Wire form of a FaultSimReport
# ----------------------------------------------------------------------

def report_to_wire(report: FaultSimReport) -> Dict[str, Any]:
    """A report as a plain marshallable dict (no custom classes)."""
    return {
        "total_faults": report.total_faults,
        "detected": dict(report.detected),
        "per_pattern": [set(newly) for newly in report.per_pattern],
    }


def report_from_wire(wire: Mapping[str, Any]) -> FaultSimReport:
    """Rebuild a report from its wire dict.

    The marshaller decodes ``set`` tags as frozensets; the per-pattern
    entries are rebuilt as plain sets so the result is structurally
    identical to a locally produced report.
    """
    report = FaultSimReport(total_faults=int(wire["total_faults"]))
    report.detected.update({str(name): int(index)
                            for name, index in wire["detected"].items()})
    report.per_pattern.extend(set(newly) for newly in wire["per_pattern"])
    return report


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------

def resolve_bench(spec: str) -> Netlist:
    """Build the netlist a bench spec names (builtin name or file).

    This mirrors the CLI's netlist loader so a farm worker started with
    no arguments can serve any bench the client can name; both sides
    build the same netlist from the same spec, which is what makes the
    fault names agree.
    """
    from ..core.errors import DesignError
    from ..gates.corpus import load_bench
    from ..gates.io import SequentialBench

    try:
        bench = load_bench(spec)
    except DesignError as exc:
        raise ParallelExecutionError(
            f"unknown bench {spec!r}: neither a file on this worker nor "
            f"a builtin bench ({exc})") from None
    if isinstance(bench, SequentialBench):
        raise ParallelExecutionError(
            f"bench {spec!r} is sequential ({bench.ff_count()} "
            f"flip-flops): the fault farm shards combinational pattern "
            f"sets; load it with repro.gates.io.read_sequential_bench "
            f"and run it through repro.faults.sequential instead")
    return bench


class FaultFarmServant:
    """Provider-side worker: holds campaigns, simulates shards, replies.

    A campaign arrives in pieces -- ``begin_campaign`` then any number
    of ``add_patterns`` (both oneway, so they ride in the same BATCH
    frame as the first blocking call) -- and each ``run_shard`` runs one
    fault subset of it.  Campaigns are keyed by a client-chosen id, so
    one servant can serve several farms at once without mixing their
    state; ``end_campaign`` drops it.

    ``begin_campaign`` only stores: every error (unknown bench or
    engine, sequential bench, unknown fault name) surfaces on the
    blocking ``run_shard`` with its own cause.  The first shard of a
    campaign resolves the bench name and takes the netlist and fault
    list from the process-wide build memo
    (:func:`repro.compiled.built_fault_list`), so every session and
    servant of one worker process shares one build per
    (bench content, collapse) and a campaign resolves its bench once.
    """

    REMOTE_METHODS = ("ping", "begin_campaign", "add_patterns",
                      "run_shard", "end_campaign")

    def __init__(self, resolver=None):
        self.resolver = resolver or resolve_bench
        self.shards_served = 0
        self._lock = threading.Lock()
        self._campaigns: Dict[str, Dict[str, Any]] = {}

    def ping(self) -> str:
        """Liveness probe the client pool uses to triage failures."""
        return "pong"

    def begin_campaign(self, campaign_id: str, bench: str, collapse: str,
                       drop_detected: bool = True,
                       engine: Optional[str] = None) -> bool:
        """Store (or replace) a campaign; nothing is resolved yet."""
        with self._lock:
            self._campaigns[campaign_id] = {
                "bench": str(bench),
                "collapse": str(collapse),
                "drop_detected": bool(drop_detected),
                "engine": engine,
                "patterns": [],
                "built": None,
            }
        return True

    def add_patterns(self, campaign_id: str,
                     patterns: Sequence[Mapping[str, Any]]) -> bool:
        with self._lock:
            self._campaign(campaign_id, "add_patterns")["patterns"].extend(
                dict(pattern) for pattern in patterns)
        return True

    def run_shard(self, campaign_id: str, fault_names: Sequence[str],
                  collect_telemetry: bool = False) -> Dict[str, Any]:
        """Run one fault subset of the campaign: report + telemetry."""
        with self._lock:
            campaign = self._campaign(campaign_id, "run_shard")
        if collect_telemetry:
            TELEMETRY.reset()
            TELEMETRY.enable()
        try:
            # A nested fresh scope: every shard draws the ids of a
            # fresh process (repeated farm runs stay byte-identical)
            # without disturbing the session the shard arrived on.
            with id_scope():
                if campaign["built"] is None:
                    campaign["built"] = built_fault_list(
                        self.resolver(campaign["bench"]),
                        campaign["collapse"])
                netlist, fault_list = campaign["built"]
                report = simulate_shard(
                    netlist, fault_list, campaign["patterns"],
                    campaign["drop_detected"], campaign["engine"],
                    fault_names)
        finally:
            if collect_telemetry:
                TELEMETRY.disable()
        snapshot = TELEMETRY.metrics.snapshot() if collect_telemetry else {}
        with self._lock:
            self.shards_served += 1
        return {"report": report_to_wire(report), "metrics": snapshot}

    def end_campaign(self, campaign_id: str) -> bool:
        """Drop the campaign's state (a no-op for an unknown id)."""
        with self._lock:
            self._campaigns.pop(campaign_id, None)
        return True

    def _campaign(self, campaign_id: str, call: str) -> Dict[str, Any]:
        campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            raise ParallelExecutionError(
                f"{call} for unknown campaign {campaign_id!r} "
                f"(begin_campaign missing, ended, or sent on an earlier "
                f"connection)")
        return campaign


def register_fault_farm(server: JavaCADServer, resolver=None,
                        name: str = FAULT_FARM_OBJECT) -> FaultFarmServant:
    """Bind a fresh fault-farm servant on ``server`` and return it."""
    servant = FaultFarmServant(resolver=resolver)
    server.rebind(name, servant, FaultFarmServant.REMOTE_METHODS)
    return servant


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------

EndpointSpec = Union[str, Tuple[str, int]]


def parse_endpoint(spec: EndpointSpec) -> Tuple[str, int]:
    """Normalize an endpoint spec to ``(host, port)``."""
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        host, port = spec
        return str(host), int(port)
    text = str(spec)
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ParallelExecutionError(
            f"remote endpoint {text!r} is not of the form HOST:PORT")
    try:
        port = int(port_text)
    except ValueError:
        raise ParallelExecutionError(
            f"remote endpoint {text!r} has a non-numeric port") from None
    return host, port


@dataclass(frozen=True)
class RemoteCampaign:
    """What every shard of one farm run shares, fully marshallable.

    A shard is then just a tuple of fault names.
    """

    bench: str
    collapse: str
    patterns: Tuple[Mapping[str, Any], ...]
    drop_detected: bool = True
    engine: Optional[str] = None


class _Endpoint:
    """One remote worker: its transport stack and farm stub.

    The stack pins the wire options the farm depends on: BATCH on (the
    whole point -- the campaign rides in its first shard's frame) and
    cache *off* (a fault report is a function of servant state
    assembled by earlier oneways, not a pure call; replaying a cached
    reply for a different shard would be wrong).

    ``alive`` turns true once the connection is up; ``announced`` says
    this connection's servant has been told the campaign.
    """

    def __init__(self, index: int, host: str, port: int,
                 max_batch: int, timeout: float, connect_timeout: float,
                 ssl_context: Optional[Any] = None,
                 server_hostname: Optional[str] = None,
                 token: Optional[str] = None):
        self.index = index
        self.host = host
        self.port = port
        self.base = TcpTransport(
            host, port, timeout=timeout, connect_timeout=connect_timeout,
            ssl_context=ssl_context,
            server_hostname=server_hostname,
            token=token)
        self.transport: Transport = wrap_transport(
            self.base, batching=True, caching=False, max_batch=max_batch)
        self.stub = RemoteStub(self.transport, FAULT_FARM_OBJECT,
                               FaultFarmServant.REMOTE_METHODS)
        self.alive = False
        self.announced = False

    def probe(self) -> bool:
        """Can the worker still answer at all?"""
        try:
            return self.stub.ping() == "pong"
        except Exception:
            return False

    def close(self) -> None:
        try:
            self.transport.close()
        except Exception:  # pragma: no cover - close is best effort
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_Endpoint({self.index}, {self.host}:{self.port})"


class _RunState:
    """Shared bookkeeping for one ``RemoteWorkerPool.map`` run.

    ``excluded[i]`` is the set of endpoint indices shard ``i`` has
    already failed on; a shard is only handed to endpoints outside its
    excluded set.  ``take`` blocks while other endpoints still have
    shards in flight, because a dying sibling may requeue work that
    this endpoint can pick up.
    """

    def __init__(self, shards: Sequence[Sequence[str]],
                 endpoint_count: int):
        self.shards = list(shards)
        self.outcomes: List[Optional[TaskOutcome]] = [None] * len(shards)
        self.excluded: List[Set[int]] = [set() for _ in shards]
        self.failure: Optional[ParallelExecutionError] = None
        self.live: Set[int] = set(range(endpoint_count))
        self.retries = 0
        self.connect_retries = 0
        self.endpoint_failures = 0
        self._pending: List[int] = list(range(len(shards)))
        self._inflight = 0
        self._cond = threading.Condition()

    def take(self, endpoint_index: int) -> Optional[int]:
        with self._cond:
            while True:
                if self.failure is not None:
                    return None
                if endpoint_index not in self.live:
                    return None
                eligible = next(
                    (index for index in self._pending
                     if endpoint_index not in self.excluded[index]), None)
                if eligible is not None:
                    self._pending.remove(eligible)
                    self._inflight += 1
                    return eligible
                if not self._inflight:
                    # Every pending shard has already failed here and
                    # nothing in flight can requeue new work for us.
                    return None
                self._cond.wait(timeout=0.05)

    def complete(self, index: int, outcome: TaskOutcome) -> None:
        with self._cond:
            self.outcomes[index] = outcome
            self._inflight -= 1
            self._cond.notify_all()

    def shard_failed(self, index: int, endpoint_index: int,
                     endpoint_alive: bool,
                     cause: Exception) -> None:
        """Triage one failed shard attempt and decide its future."""
        with self._cond:
            self._inflight -= 1
            self.excluded[index].add(endpoint_index)
            if not endpoint_alive:
                self.live.discard(endpoint_index)
                self.endpoint_failures += 1
            if not self.live:
                self._fail_locked(ParallelExecutionError(
                    f"all remote endpoints died with shard {index} (and "
                    f"{len(self._pending)} more) unfinished: {cause}",
                    shard_index=index), cause)
            elif not (self.live - self.excluded[index]):
                # Poison shard: every endpoint still standing has
                # already rejected it -- fail fast instead of cycling.
                self._fail_locked(ParallelExecutionError(
                    f"shard {index} failed on every remaining endpoint: "
                    f"{cause}", shard_index=index), cause)
            else:
                self._pending.append(index)
                if endpoint_alive:
                    self.retries += 1
            self._cond.notify_all()

    def note_connect_retry(self) -> None:
        """Count one failed connect attempt that will be retried."""
        with self._cond:
            self.connect_retries += 1

    def endpoint_lost(self, endpoint_index: int,
                      cause: Optional[Exception]) -> None:
        """An endpoint never became usable (connect/auth failure).

        Unlike :meth:`shard_failed` no shard is implicated: the dead
        endpoint simply leaves the live set and the survivors absorb
        its share of the queue.  Only when *no* endpoint remains does
        the run fail.
        """
        with self._cond:
            self.live.discard(endpoint_index)
            self.endpoint_failures += 1
            if not self.live:
                self._fail_locked(ParallelExecutionError(
                    f"no remote endpoint could be reached "
                    f"({len(self._pending)} shards unserved): {cause}"),
                    cause)
            self._cond.notify_all()

    def _fail_locked(self, failure: ParallelExecutionError,
                     cause: Optional[Exception]) -> None:
        if self.failure is None:
            if cause is not None:
                failure.__cause__ = cause
            self.failure = failure

    def unfinished(self) -> List[int]:
        return [index for index, outcome in enumerate(self.outcomes)
                if outcome is None]


class RemoteWorkerPool:
    """Ordered fan-out of fault-sim shards over remote farm workers.

    Satisfies the local pool's contract -- told the campaign once,
    disjoint shards of fault names in, submission-order outcomes out --
    but each shard crosses the wire as one call to a
    :class:`FaultFarmServant`.
    ``TaskOutcome.worker_pid`` carries the *endpoint index* that served
    the shard (there is no meaningful remote pid on this side of the
    wire).

    One transport stack (socket + batching layer) is opened per
    endpoint and one client thread drives it; shards are pulled from a
    shared queue, so a fast endpoint steals a slow one's backlog
    exactly like local workers steal shards.
    """

    DEFAULT_CONNECT_RETRIES = 3
    DEFAULT_CONNECT_BACKOFF = 0.1

    def __init__(self, endpoints: Sequence[EndpointSpec],
                 max_batch: int = DEFAULT_MAX_BATCH,
                 timeout: float = DEFAULT_TCP_TIMEOUT,
                 connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
                 token: Optional[str] = None,
                 tls_ca: Optional[str] = None,
                 server_hostname: Optional[str] = None,
                 connect_retries: int = DEFAULT_CONNECT_RETRIES,
                 connect_backoff: float = DEFAULT_CONNECT_BACKOFF):
        specs = [parse_endpoint(spec) for spec in endpoints]
        if not specs:
            raise ParallelExecutionError(
                "a remote pool needs at least one endpoint")
        if connect_retries < 0:
            raise ParallelExecutionError(
                f"connect_retries must be >= 0, got {connect_retries}")
        if connect_backoff <= 0:
            raise ParallelExecutionError(
                f"connect_backoff must be positive, got {connect_backoff}")
        if timeout <= 0 or connect_timeout <= 0:
            raise ParallelExecutionError(
                f"timeouts must be positive, got timeout={timeout}, "
                f"connect_timeout={connect_timeout}")
        self.endpoints = specs
        self.max_batch = max_batch
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.token = token
        self.server_hostname = server_hostname
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self.ssl_context = (client_ssl_context(cafile=tls_ca)
                            if tls_ca is not None else None)

    @property
    def workers(self) -> int:
        """Endpoint count (the local pool's ``workers`` analogue)."""
        return len(self.endpoints)

    def map(self, campaign: RemoteCampaign,
            shards: Sequence[Sequence[str]]) -> List[TaskOutcome]:
        """Run ``campaign`` on every shard; outcomes in submission order.

        A shard is a sequence of fault names.
        """
        shards = list(shards)
        if not shards:
            return []
        collect = TELEMETRY.enabled
        pool_begin = time.perf_counter()
        campaign_id = f"farm{next(_pool_nonces)}"
        endpoints = [
            _Endpoint(index, host, port, self.max_batch, self.timeout,
                      self.connect_timeout, ssl_context=self.ssl_context,
                      server_hostname=self.server_hostname,
                      token=self.token)
            for index, (host, port) in enumerate(self.endpoints)]
        state = _RunState(shards, len(endpoints))
        threads = [
            threading.Thread(
                target=self._serve_endpoint,
                args=(endpoint, state, campaign, campaign_id, collect),
                name=f"remote-farm-{endpoint.host}:{endpoint.port}",
                daemon=True)
            for endpoint in endpoints]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            for endpoint in endpoints:
                if endpoint.alive:
                    # Drained by close(); a servant that outlives this
                    # connection must not keep the campaign.
                    endpoint.stub.invoke_oneway("end_campaign", campaign_id)
                endpoint.close()
        if state.failure is not None:
            raise state.failure
        unfinished = state.unfinished()
        if unfinished:
            raise ParallelExecutionError(
                f"remote farm finished with shards {unfinished} unserved "
                f"(no endpoint would accept them)",
                shard_index=unfinished[0])
        outcomes = [outcome for outcome in state.outcomes
                    if outcome is not None]
        if collect:
            self._account(outcomes, endpoints, state,
                          time.perf_counter() - pool_begin)
        return outcomes

    # ------------------------------------------------------------------

    def _connect_endpoint(self, endpoint: _Endpoint,
                          state: _RunState) -> bool:
        """Open the endpoint's connection with bounded backoff.

        Socket-level failures (refused, unroutable, reset during the
        handshake) are transient-by-assumption and retried up to
        ``connect_retries`` times with exponential backoff; an AUTH or
        TLS *rejection* is deterministic and fails the endpoint
        immediately -- retrying a wrong token only hammers the server's
        auth-failure counter.
        """
        delay = self.connect_backoff
        last: Optional[Exception] = None
        for attempt in range(self.connect_retries + 1):
            if state.failure is not None:
                return False
            try:
                endpoint.base.connect()
                endpoint.alive = True
                return True
            except (RemoteError, OSError) as exc:
                last = exc
                # A bare OSError (ConnectionRefusedError and friends
                # escaping the eager connect() path unwrapped) is just
                # as transient as one wrapped in a RemoteError; only a
                # RemoteError with a non-socket cause is a
                # deterministic refusal.
                transient = (isinstance(exc, OSError)
                             or isinstance(exc.__cause__, OSError))
                if not transient:
                    break  # deterministic refusal (auth/TLS): no retry
                if attempt < self.connect_retries:
                    state.note_connect_retry()
                    time.sleep(delay)
                    delay *= 2
        state.endpoint_lost(endpoint.index, last)
        return False

    def _serve_endpoint(self, endpoint: _Endpoint, state: _RunState,
                        campaign: RemoteCampaign, campaign_id: str,
                        collect: bool) -> None:
        if not self._connect_endpoint(endpoint, state):
            return
        while True:
            index = state.take(endpoint.index)
            if index is None:
                return
            begin = time.perf_counter()
            try:
                report, metrics = self._run_shard(
                    endpoint, campaign, campaign_id, state.shards[index],
                    collect)
            except Exception as exc:
                # The transport may have dropped its socket and will
                # reconnect to a fresh servant: announce again.
                endpoint.announced = False
                alive = endpoint.probe()
                endpoint.alive = alive
                state.shard_failed(index, endpoint.index, alive, exc)
                if not alive:
                    return
                continue
            state.complete(index, TaskOutcome(
                index, report, time.perf_counter() - begin,
                endpoint.index, metrics))

    def _run_shard(self, endpoint: _Endpoint, campaign: RemoteCampaign,
                   campaign_id: str, fault_names: Sequence[str],
                   collect: bool
                   ) -> Tuple[FaultSimReport, Dict[str, Any]]:
        stub = endpoint.stub
        if not endpoint.announced:
            stub.invoke_oneway("begin_campaign", campaign_id,
                               campaign.bench, campaign.collapse,
                               campaign.drop_detected,
                               resolve_engine(campaign.engine))
            step = DEFAULT_PATTERNS_PER_CALL
            for start in range(0, len(campaign.patterns), step):
                stub.invoke_oneway(
                    "add_patterns", campaign_id,
                    list(campaign.patterns[start:start + step]))
            endpoint.announced = True
        payload = stub.run_shard(campaign_id, list(fault_names), collect)
        return report_from_wire(payload["report"]), dict(
            payload.get("metrics") or {})

    # ------------------------------------------------------------------

    def _account(self, outcomes: Sequence[TaskOutcome],
                 endpoints: Sequence[_Endpoint], state: _RunState,
                 pool_wall: float) -> None:
        metrics = TELEMETRY.metrics
        metrics.gauge("parallel.remote.endpoints").set(len(endpoints))
        metrics.counter("parallel.remote.shards").inc(len(outcomes))
        metrics.counter("parallel.remote.retries").inc(state.retries)
        metrics.counter("parallel.remote.connect_retries").inc(
            state.connect_retries)
        metrics.counter("parallel.remote.endpoint_failures").inc(
            state.endpoint_failures)
        metrics.counter("parallel.remote.pool_wall_seconds").inc(pool_wall)
        round_trips = sum(endpoint.base.stats.calls
                          for endpoint in endpoints)
        saved = sum(endpoint.base.stats.batched_calls
                    - endpoint.base.stats.batches
                    for endpoint in endpoints)
        metrics.counter("parallel.remote.round_trips").inc(round_trips)
        metrics.counter("parallel.remote.saved_round_trips").inc(
            max(0, saved))
        wall_hist = metrics.histogram("parallel.remote.shard_wall_seconds",
                                      buckets=_TASK_WALL_BUCKETS)
        for outcome in outcomes:
            wall_hist.observe(outcome.wall_seconds)
            merge_worker_metrics(outcome.metrics,
                                 "parallel.remote.worker")


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------

def remote_fault_simulate(bench: str,
                          patterns: Sequence[Mapping[str, Any]],
                          endpoints: Sequence[EndpointSpec],
                          collapse: str = "equivalence",
                          netlist: Optional[Netlist] = None,
                          fault_list: Optional[FaultList] = None,
                          workers: Optional[int] = None,
                          shards: Optional[int] = None,
                          drop_detected: bool = True,
                          pool: Optional[RemoteWorkerPool] = None,
                          engine: Optional[str] = None,
                          token: Optional[str] = None,
                          tls_ca: Optional[str] = None,
                          server_hostname: Optional[str] = None
                          ) -> FaultSimReport:
    """Fault-simulate ``bench`` across a farm of remote workers.

    The client only needs the bench's *name* and fault names; both
    sides rebuild the same netlist from the spec.  ``workers`` (the
    CLI's ``--workers``) scales the shard count beyond the endpoint
    count so endpoints steal work from each other; by default the farm
    cuts :func:`~repro.parallel.sharding.default_shard_count` shards for
    one worker per endpoint.  A single fault runs in this process.  The
    merged report is byte-identical to a serial run.
    """
    engine = resolve_engine(engine)
    if pool is None:
        pool = RemoteWorkerPool(endpoints, token=token, tls_ca=tls_ca,
                                server_hostname=server_hostname)
    if netlist is None:
        netlist = resolve_bench(bench)
    if fault_list is None:
        fault_list = build_fault_list(netlist, collapse=collapse)
    patterns = tuple(dict(pattern) for pattern in patterns)
    return run_sharded(
        fault_list.names(),
        RemoteCampaign(bench, collapse, patterns, drop_detected, engine),
        merge_reports, pool, workers, shards,
        inline=partial(simulate_shard, netlist, fault_list, patterns,
                       drop_detected, engine))
