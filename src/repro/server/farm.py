"""A fault-farm session factory for ``AsyncRMIServer(session_factory=)``.

The serving commands bind the farm on one server instead
(``server=``): a campaign lives in its connection's context.
"""

from __future__ import annotations

from typing import Callable

from ..rmi.server import JavaCADServer


def fault_farm_session_factory() -> Callable[[], JavaCADServer]:
    """A factory making one fault-farm server per call."""
    from ..parallel.remote import register_fault_farm

    def factory() -> JavaCADServer:
        session = JavaCADServer("faultfarm.session")
        register_fault_farm(session)
        return session

    return factory
