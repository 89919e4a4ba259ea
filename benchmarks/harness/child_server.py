"""A server under test, run as a child process of the harness.

``--kind probe`` serves a constant-work servant (``ping`` / ``echo``)
for the ``serve_*`` workloads; ``--kind farm`` serves the fault farm.
Both sit behind the default :class:`~repro.server.AsyncRMIServer`
dispatch with token auth on loopback TCP.  Protocol with the parent:
print ``{"port": N}``, serve until stdin closes, print the final
``{"stats": ..., "cpu_s": ..., "peak_rss_mb": ...}``, exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from repro.rmi.server import JavaCADServer
from repro.server import AsyncRMIServer
from repro.server.farm import fault_farm_session_factory


class Probe:
    """Constant-work servant: latency reflects the serving stack."""

    REMOTE_METHODS = ("ping", "echo")

    def ping(self, value):
        return value + 1

    def echo(self, payload):
        return payload


def probe_session() -> JavaCADServer:
    session = JavaCADServer("bench.probe.session")
    session.bind("probe", Probe(), Probe.REMOTE_METHODS)
    return session


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=("probe", "farm"), required=True)
    parser.add_argument("--token", required=True)
    parser.add_argument("--cpu", type=int,
                        help="pin this process to one CPU before any "
                             "thread starts")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    factory = (probe_session if args.kind == "probe"
               else fault_farm_session_factory())
    server = AsyncRMIServer(session_factory=factory, auth_token=args.token)
    _host, port = server.start()
    print(json.dumps({"port": port}), flush=True)
    try:
        sys.stdin.read()
    finally:
        server.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "stats": server.stats.snapshot(),
        "cpu_s": time.process_time(),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
