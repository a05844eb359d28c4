"""Parallel replay over profiles: the estimator of :mod:`repro.trace.replay`
across a persistent pool of worker processes, byte-identical at any
worker count.

The paper's §1 bill is one replay of the trace under every service
profile.  Profiles are independent of each other, and a trace's users
are not (CROSS_USER dedup couples them), so :class:`ReplayPool` hands
out whole profiles: each worker inherits the whole columnar trace
through the fork and answers a profile with :func:`replay_trace`'s own
report.  A pooled report *is* the sequential one, and every service is
priced on the same trace (see DESIGN.md, "Parallel replay & determinism
contract").

This is the only module in ``src/`` that forks; it imports the estimator,
never the reverse.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
from dataclasses import replace
from multiprocessing.connection import wait
from typing import Dict, List, NoReturn, Optional, Sequence

from ..client import AccessMethod, ServiceProfile, service_profile
from ..client.defer import NoDefer
from .replay import ReplayReport, replay_trace
from .schema import Trace

#: Serialises ``os.fork`` against the one parent-side lock class a fork
#: child can still inherit in the locked state: the stdio buffer locks
#: (``Process.start`` flushes the std streams before forking).  If another
#: thread of this module holds one at the instant of fork — it is inside
#: its own ``Process.start`` — the child deadlocks the moment *it* flushes,
#: at exit.  So every fork takes this lock; one pool per thread is then
#: safe.
_fork_lock = threading.Lock()


def _portable_profile(profile: ServiceProfile) -> ServiceProfile:
    """A pickle-safe copy of ``profile`` for the worker pipe.

    Profiles carry defer-policy factory lambdas that cannot be pickled;
    the replay estimator never defers, so the factory is swapped for the
    no-op policy class before the profile crosses the pipe.  Every other
    field is plain data, which is what lets the pool replay *ad hoc*
    profiles (``dataclasses.replace`` variants), not just registry ones.
    """
    return replace(profile, defer_factory=NoDefer)


def _pool_worker_main(channel, trace: Trace) -> None:
    """Worker loop: replay whole profiles of one trace.

    The trace rides into the process through the fork (``Process`` args —
    no module global, no pickling); a profile and a seed ride the pipe in,
    the report rides it out.
    """
    try:
        while True:
            message = channel.recv()
            command = message[0]
            try:
                if command == "replay":
                    _, profile, seed = message
                    channel.send(("ok", replay_trace(trace, profile, seed)))
                elif command == "close":
                    return
                else:
                    channel.send(("error", f"unknown command {command!r}"))
            except Exception:
                channel.send(("error", traceback.format_exc()))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            channel.close()
        except OSError:
            pass


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    return workers or os.cpu_count() or 1


class ReplayPool:
    """A persistent pool of replay worker processes, one profile a job.

    Forks its workers **once** and reuses them for every call —
    :func:`replay_all` replays ~18 profiles against one fork.  Each
    worker holds the whole trace for the pool's lifetime, so per-job IPC
    is a profile and a seed in and one report out.

    Byte-identity contract: ``pool.replay(profile, seed)`` equals
    ``replay_trace(trace, profile, seed)``, at any worker count, because
    a worker runs exactly that call.  With one worker, an empty trace, or
    on a platform without the ``fork`` start method the same jobs run
    in-process — same results, no speedup.
    """

    def __init__(self, trace: Trace, workers: Optional[int] = None) -> None:
        resolved = _resolve_workers(workers)
        self._trace = trace
        self._channels: list = []
        self._processes: list = []
        self._closed = False
        if resolved > 1 and len(trace):
            self._start(resolved)

    # -- lifecycle ---------------------------------------------------------

    def _start(self, workers: int) -> None:
        """Fork ``workers`` workers; a no-op where ``fork`` is missing."""
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            return
        with _fork_lock:
            for _ in range(workers):
                parent_channel, child_channel = context.Pipe()
                process = context.Process(target=_pool_worker_main,
                                          args=(child_channel, self._trace),
                                          daemon=True)
                process.start()
                child_channel.close()
                self._channels.append(parent_channel)
                self._processes.append(process)

    def close(self) -> None:
        """Shut the workers down; the pool is unusable afterwards."""
        if self._closed:
            return
        self._closed = True
        for channel in self._channels:
            try:
                channel.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for channel in self._channels:
            try:
                channel.close()
            except OSError:
                pass
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join(timeout=10)
        self._channels = []
        self._processes = []

    def __enter__(self) -> "ReplayPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except (OSError, ValueError, AttributeError, TypeError):
            # Interpreter teardown: pipes and process handles may already
            # be half-destroyed; __del__ must never raise.
            pass

    @property
    def worker_count(self) -> int:
        """Live worker processes (0 when replaying in-process)."""
        return len(self._processes)

    # -- replay ------------------------------------------------------------

    def replay(self, profile: ServiceProfile, seed: int = 0) -> ReplayReport:
        """Replay the pool's trace under ``profile``; byte-identical to
        :func:`replay_trace` on the same trace."""
        return self.replay_many([profile], seed)[0]

    def replay_many(self, profiles: Sequence[ServiceProfile],
                    seed: int = 0) -> List[ReplayReport]:
        """One report per profile, in input order, each byte-identical to
        :func:`replay_trace`'s.

        Every idle worker gets the next profile, and each worker that
        answers gets the one after, so profiles of unequal cost still
        share the workers out.  A worker found dead — busy or idle —
        closes the pool with a :class:`RuntimeError` that names it.
        """
        if self._closed:
            raise RuntimeError("replay pool is closed")
        if not self._processes:
            return [replay_trace(self._trace, profile, seed)
                    for profile in profiles]
        reports: List[Optional[ReplayReport]] = [None] * len(profiles)
        queue = list(enumerate(profiles))[::-1]     # next job at the end
        jobs: Dict[int, int] = {}                   # worker → report slot

        def dispatch(position: int) -> None:
            slot, profile = queue.pop()
            self._send(position, ("replay", _portable_profile(profile), seed))
            jobs[position] = slot

        for position in range(min(len(queue), len(self._channels))):
            dispatch(position)
        positions = {channel: position
                     for position, channel in enumerate(self._channels)}
        while jobs:
            for channel in wait(list(positions)):
                position = positions[channel]
                reports[jobs.pop(position)] = self._receive(position)
                if queue:
                    dispatch(position)
        return reports

    def _send(self, position: int, message: tuple) -> None:
        try:
            self._channels[position].send(message)
        except (EOFError, OSError):
            self._worker_died(position)

    def _receive(self, position: int):
        try:
            status, payload = self._channels[position].recv()
        except (EOFError, OSError):
            self._worker_died(position)
        if status != "ok":
            self.close()
            raise RuntimeError(f"replay worker failed:\n{payload}")
        return payload

    def _worker_died(self, position: int) -> NoReturn:
        """A pipe to worker ``position`` broke: close the whole pool (every
        other worker joined or terminated) and say which worker was lost."""
        process = self._processes[position]
        self.close()    # joins the dead worker too, so its exit code is set
        code = process.exitcode
        how = f"killed by signal {-code}" if code is not None and code < 0 \
            else f"exit code {code}"
        raise RuntimeError(
            f"replay worker {position} (pid {process.pid}) died "
            f"({how}); the pool is closed")


def replay_all(trace: Optional[Trace] = None,
               services: Optional[Sequence[str]] = None,
               access: AccessMethod = AccessMethod.PC,
               seed: int = 0,
               workers: int = 1,
               pool: Optional[ReplayPool] = None,
               audit: bool = False) -> List[ReplayReport]:
    """Replay the trace under every service, sorted by estimated traffic.

    The profiles run through one :class:`ReplayPool` of ``workers``
    workers, forked once (none at ``workers=1``; below 1 is refused); pass
    ``pool`` to reuse an existing pool instead — the caller keeps
    ownership and must close it.  ``audit=True`` checks every report's
    replay-conservation invariant.
    """
    from ..client import SERVICES
    from ..obs import audit as audit_invariants
    profiles = [service_profile(name, access) for name in services or SERVICES]
    if pool is not None:
        reports = pool.replay_many(profiles, seed)
    elif trace is None:
        raise ValueError("replay_all needs a trace or a pool")
    else:
        with ReplayPool(trace, workers) as owned:
            reports = owned.replay_many(profiles, seed)
    if audit:
        for report in reports:
            audit_invariants(report=report)
    reports.sort(key=lambda report: report.traffic_bytes)
    return reports
