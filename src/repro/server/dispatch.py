"""Process-tier dispatch: per-session servant work in forked workers.

The ``thread`` tier shares the GIL, so CPU-bound servant work -- a
fault-farm shard, an event-driven campaign -- scales past one core
only by leaving the process.  :class:`ProcessDispatcher` ships each
tenant's frames to a small farm of **forked worker processes** with
*sticky* session-to-worker routing: a session's slot is
``(session_id - 1) % workers``, so every frame of one session lands on
the same worker and the worker-resident
:class:`~repro.core.ids.IdScope` plus servant graph carry that
session's id sequences and farm-campaign state forward exactly as a
dedicated fresh process would.  That stickiness is the whole
byte-identity story: ids continue across a session's calls, and a
campaign's ``begin_campaign``/``add_patterns``/``run_shard`` calls never
straddle two servant instances.

Forking is load-bearing twice.  First, the parent registers the
session factory in a module-level registry *before* any worker forks,
so the child inherits the (closure-carrying, unpicklable) factory by
memory -- the same trick :mod:`repro.parallel` uses for scenario
workers.  Second, every worker runs
:func:`repro.parallel.scenarios.reset_session_state` once at fork, so
ids and caches inherited from a busy parent never bleed into tenant
sessions.  Each worker then enters a session's scope around its
dispatches, just as the ``thread`` tier does.
"""

from __future__ import annotations

import inspect
import itertools
import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Dict, List, Tuple

from ..core.ids import IdScope, id_scope
from ..rmi.protocol import decode_request
from ..rmi.server import JavaCADServer

# Factories may optionally accept a session_id keyword (see
# call_session_factory), so the signature is deliberately loose.
SessionFactory = Callable[..., JavaCADServer]


def call_session_factory(factory: SessionFactory,
                         session_id: int) -> JavaCADServer:
    """Invoke a session factory, passing ``session_id`` if it takes one.

    Session-scoped resources -- above all the session's *name*, which
    is marshalled into farm task ids and error strings -- must derive
    from the tenant's own session id, not from factory-level counters
    shared across tenants (and duplicated across forked workers).
    Factories opt in by accepting a ``session_id`` parameter; plain
    zero-argument factories keep working unchanged.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins, odd callables
        return factory()
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD \
                or parameter.name == "session_id":
            return factory(session_id=session_id)
    return factory()


# Dispatcher ids key the parent-side factory registry; they never
# leave the parent process or reach marshalled bytes.
_dispatcher_ids = itertools.count(1)

# Parent-side registry, inherited by forked workers.  Keyed by
# dispatcher id so several process-tier servers can coexist in one
# parent; a worker only ever reads the entry of the dispatcher that
# created it, which was registered before that dispatcher's first
# fork.
_FACTORIES: Dict[int, SessionFactory] = {}

# Worker-side state: each forked worker mutates only its own copy.
_worker_sessions: Dict[Tuple[int, int],
                       Tuple[JavaCADServer, IdScope]] = {}


def _worker_init() -> None:
    """Per-worker fork hygiene: drop inherited ids and caches."""
    from ..parallel.scenarios import reset_session_state

    reset_session_state()
    # Runs once per fork, before the worker serves anything; no other
    # thread exists in the child yet.
    _worker_sessions.clear()


def _worker_ready() -> bool:
    """Warm-up probe: forces the fork and proves the worker answers."""
    return True


def _worker_session(dispatcher_id: int, session_id: int
                    ) -> Tuple[JavaCADServer, IdScope]:
    key = (dispatcher_id, session_id)
    entry = _worker_sessions.get(key)
    if entry is None:
        factory = _FACTORIES.get(dispatcher_id)
        if factory is None:  # pragma: no cover - registration bug
            raise RuntimeError(
                f"worker has no session factory for dispatcher "
                f"{dispatcher_id} (forked before registration?)")
        # The tenant's own session id names the session, so a worker
        # hosting several tenants (or a restarted worker) reproduces
        # the names a dedicated fresh process would choose.
        entry = (call_session_factory(factory, session_id), IdScope())
        # Worker-local copy of the dict: a single-process pool runs
        # one dispatch at a time, so no second thread can be here.
        _worker_sessions[key] = entry
    return entry


def _worker_dispatch(dispatcher_id: int, session_id: int,
                     frame: bytes) -> bytes:
    """Decode, dispatch and encode one frame inside the worker.

    The parent already decoded the frame once (AUTH screening and
    accounting happen there); decoding again here keeps the wire bytes
    -- not live request objects -- as the only thing crossing the
    process boundary.
    """
    session, scope = _worker_session(dispatcher_id, session_id)
    request = decode_request(frame)
    with id_scope(scope):
        return session.dispatch_encoded(request)


def _worker_forget(dispatcher_id: int, session_id: int) -> None:
    """Release a closed connection's worker-resident session."""
    # Same single-dispatch-at-a-time story as _worker_session.
    _worker_sessions.pop((dispatcher_id, session_id), None)


class ProcessDispatcher:
    """Sticky session-to-worker routing over single-process pools.

    ``workers`` separate one-process executors (rather than one pool
    of ``workers`` processes) because stickiness is the contract:
    ``ProcessPoolExecutor`` offers no per-task placement, but a
    dedicated executor per slot does, at identical process cost.
    """

    def __init__(self, session_factory: SessionFactory,
                 workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "the process dispatch tier requires the fork start "
                "method (session factories reach workers by fork "
                "inheritance); this platform offers none")
        self.id = next(_dispatcher_ids)
        self.workers = workers
        # Registered before any executor forks, so every worker
        # inherits the factory through fork memory.  Parent-side only,
        # written before this dispatcher's first fork and read by
        # workers after it; the asyncio loop thread is the sole writer.
        _FACTORIES[self.id] = session_factory
        self._pools: List[ProcessPoolExecutor] = [
            self._new_pool() for _ in range(workers)]
        # The pool each live session first dispatched on.  A session
        # stays bound to that pool object even after its worker died
        # and the slot got a replacement, so it can never be silently
        # re-created (with rewound ids) on the new worker.
        self._bound: Dict[int, ProcessPoolExecutor] = {}

    @staticmethod
    def _new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init)

    def warm_futures(self) -> List["Future[bool]"]:
        """Fork every worker now; await these before serving traffic.

        Pre-forking at startup keeps the fork away from the busier
        mid-serve parent and surfaces worker spawn failures as startup
        errors instead of first-dispatch failures.
        """
        return [pool.submit(_worker_ready) for pool in self._pools]

    def pool_for(self, session_id: int) -> ProcessPoolExecutor:
        """The session's sticky pool, bound at first use."""
        return self._bound.setdefault(
            session_id, self._pools[(session_id - 1) % self.workers])

    def submit(self, session_id: int, frame: bytes) -> "Future[bytes]":
        """Dispatch one frame on the session's sticky worker.

        Raises (or the future carries) ``BrokenProcessPool`` once that
        worker has died.
        """
        return self.pool_for(session_id).submit(
            _worker_dispatch, self.id, session_id, frame)

    def replace_dead_worker(self, session_id: int) -> None:
        """Give the slot of ``session_id``'s dead worker a fresh pool.

        Only sessions that start afterwards use it; idempotent across
        the several sessions that find the same worker dead.
        """
        dead = self._bound.get(session_id)
        if dead in self._pools:
            self._pools[self._pools.index(dead)] = self._new_pool()
            dead.shutdown(wait=False)

    def forget(self, session_id: int) -> None:
        """Drop the worker-resident session (connection closed)."""
        pool = self._bound.pop(session_id, None)
        if pool is None:
            return  # never dispatched: no worker-side state to drop
        try:
            pool.submit(_worker_forget, self.id, session_id)
        except RuntimeError:  # pool shut down, or its worker died
            pass

    def shutdown(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)
        # Single writer (the owning server's loop thread), and every
        # worker that could read the entry has already exited.
        _FACTORIES.pop(self.id, None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ProcessDispatcher(id={self.id}, "
                f"workers={self.workers})")
