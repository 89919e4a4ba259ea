"""Session factories wiring the async server to real servant sets.

The async front end keeps tenants apart with per-connection
:class:`~repro.rmi.server.JavaCADServer` sessions.  This module builds
the factories the CLI and benchmarks use:

* every session gets its **own**
  :class:`~repro.parallel.remote.FaultFarmServant`, because farm
  campaign ids are client-chosen nonces (``farm<nonce>``) that collide
  the moment two tenant processes share one servant;
* expensive read-only servants (estimators, catalogs) are built once
  in a ``shared`` base server and re-bound into every session by
  reference -- their calls are pure, so sharing them is safe and keeps
  per-connection setup at microseconds.

The factories returned here are closures and deliberately so: the
``process`` dispatch tier never pickles them.  It registers the
factory in :mod:`repro.server.dispatch`'s module-level registry before
forking its workers, so the closure (including a ``shared`` server)
reaches each worker by fork inheritance -- the same trick the parallel
scenario workers rely on.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from ..rmi.server import JavaCADServer


def fault_farm_session_factory(shared: Optional[JavaCADServer] = None,
                               host_name: str = "faultfarm.session"
                               ) -> Callable[..., JavaCADServer]:
    """A factory producing one fault-farm session server per tenant.

    ``shared`` (optional) names a base server whose bindings -- assumed
    read-only -- are re-bound into every session alongside the fresh
    farm servant.

    Session names carry the *tenant's* session id when the server
    provides one (via
    :func:`~repro.server.dispatch.call_session_factory`), so a tenant's
    name -- which is marshalled into farm error strings -- depends only
    on its own connection order, never on how many neighbors the
    server or a forked worker has already seen.  The factory-local
    counter is only a fallback for direct zero-argument callers
    (tests, ad-hoc tooling).
    """
    from ..parallel.remote import register_fault_farm

    fallback_ids = itertools.count(1)

    def factory(session_id: Optional[int] = None) -> JavaCADServer:
        if session_id is None:
            session_id = next(fallback_ids)
        session = JavaCADServer(f"{host_name}.{session_id}")
        if shared is not None:
            for name in shared.registry.names():
                binding = shared.registry.lookup(name)
                session.rebind(name, binding.servant,
                               sorted(binding.methods))
        register_fault_farm(session)
        return session

    return factory
