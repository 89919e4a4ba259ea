"""Child-server lifecycle: spawn, learn the port, reap on every path.

Servers under test run in child processes so the load generator's GIL
is not part of the measurement.  A child binds port 0, prints one JSON
line naming the port it got, serves until its stdin closes, then prints
its :class:`~repro.server.ServerStats` snapshot and exits -- so a
harness that dies for any reason takes its children with it, and a
child that dies is a named error here, not a hang.
"""

from __future__ import annotations

import atexit
import contextlib
import json
import os
import select
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

CHILD_SCRIPT = Path(__file__).with_name("child_server.py")
SPAWN_DEADLINE = 30.0
STOP_DEADLINE = 15.0
_TICKS = os.sysconf("SC_CLK_TCK")


class ChildServerError(RuntimeError):
    """A child server died, stalled, or never announced its port."""


class ChildServer:
    """One ``child_server.py`` process serving on a loopback port."""

    def __init__(self, kind: str, token: str, source_root: Path,
                 cpu: Optional[int] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(source_root)] + ([env["PYTHONPATH"]]
                                  if env.get("PYTHONPATH") else []))
        self.kind = kind
        self.cpu = cpu
        self.process = subprocess.Popen(
            [sys.executable, str(CHILD_SCRIPT), "--kind", kind,
             "--token", token]
            + (["--cpu", str(cpu)] if cpu is not None else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)
        atexit.register(self.kill)
        try:
            hello = self._read_json(SPAWN_DEADLINE, "its port")
        except BaseException:
            self.kill()
            raise
        self.host = "127.0.0.1"
        self.port = int(hello["port"])
        self.pid = self.process.pid

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def _read_json(self, deadline: float, what: str) -> Dict[str, Any]:
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], deadline)
        line = stdout.readline() if ready else ""
        if not line:
            if ready:
                # End of file: the child closed stdout, so it is exiting.
                with contextlib.suppress(subprocess.TimeoutExpired):
                    self.process.wait(timeout=STOP_DEADLINE)
            code = self.process.poll()
            state = (f"exited with code {code}" if code is not None
                     else f"printed nothing for {deadline:.0f} s")
            raise ChildServerError(
                f"{self.kind} child (pid {self.process.pid}) {state} "
                f"before printing {what}")
        return json.loads(line)

    def check_alive(self) -> None:
        """Raise the named error if the child is gone."""
        code = self.process.poll()
        if code is not None:
            raise ChildServerError(
                f"{self.kind} child (pid {self.process.pid}) died with "
                f"exit code {code} while serving")

    def cpu_seconds(self) -> float:
        """User+system CPU the child has used so far (from /proc)."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def stop(self) -> Dict[str, Any]:
        """Close stdin, collect the child's final report, reap it.

        Returns ``{"stats": ServerStats snapshot, "cpu_s": ...,
        "peak_rss_mb": ...}`` as printed by the child.
        """
        try:
            self.check_alive()
            self.process.stdin.close()
            report = self._read_json(STOP_DEADLINE, "its final stats")
            self.process.wait(timeout=STOP_DEADLINE)
            return report
        except subprocess.TimeoutExpired:
            raise ChildServerError(
                f"{self.kind} child (pid {self.process.pid}) did not "
                f"exit within {STOP_DEADLINE:.0f} s of stdin closing"
            ) from None
        finally:
            self.kill()

    def kill(self) -> None:
        """Reap the child no matter what state it is in (idempotent)."""
        atexit.unregister(self.kill)
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()

    def __enter__(self) -> "ChildServer":
        return self

    def __exit__(self, *exc_info: Any) -> Optional[bool]:
        self.kill()
        return None


class Host:
    """Which CPU each actor of a run gets.

    Pinned actors keep the scheduler from migrating them onto each
    other, and let ``hostspeed.read_speed`` read the speed of the very
    CPU an actor runs on.  A *slot* is an index into the CPUs this
    process may use, wrapping around; with one CPU everything shares
    it.  The harness itself sits in slot 0 for the whole run.

    The two farm children compute side by side, so they get slots of
    their own.  A serve child shares slot 0 with the load generator:
    a closed loop of sub-millisecond calls across two virtual CPUs
    parks and wakes each of them thousands of times a second, and on a
    shared host the cost of a wake-up follows the neighbours, not the
    program.  Interleaved runs on the two-core VM this was sized on
    gave ``serve_small_calls`` a run-to-run spread of 110% with client
    and server on CPUs of their own and 13% on one CPU, where nothing
    ever sleeps and the metrics read the stack's CPU cost per call.
    """

    def __init__(self, source_root: Path, token: str):
        self.source_root = source_root
        self.token = token
        self.cpus = sorted(os.sched_getaffinity(0))

    def spawn(self, kind: str, slot: int) -> ChildServer:
        return ChildServer(kind, self.token, self.source_root,
                           cpu=self.cpus[slot % len(self.cpus)])

    def pin_harness(self) -> None:
        os.sched_setaffinity(0, {self.cpus[0]})

    @contextlib.contextmanager
    def unpinned(self) -> Iterator[None]:
        """Let the harness (and what it forks) use every CPU for a while."""
        os.sched_setaffinity(0, set(self.cpus))
        try:
            yield
        finally:
            self.pin_harness()
