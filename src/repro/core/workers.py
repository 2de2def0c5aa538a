"""Process pools whose workers die with the process that started them.

Every worker pool in the package - those of
:class:`~repro.service.jobs.JobQueue`, which also runs the Monte-Carlo
free functions' ``n_workers=`` fan-out - is built by
:func:`worker_pool`.  Its workers start :func:`_watch_owner` in
their :class:`~concurrent.futures.ProcessPoolExecutor` initializer:
a daemon thread that exits the worker as soon as the pool's owner
exits.  An owner that dies without shutting its pool down (SIGKILL,
an unhandled SIGTERM) therefore leaves no worker behind, re-parented
to init and holding memory.

The watchdog follows the owner itself, not the worker's parent, so it
holds under every start method: under ``forkserver`` the parent is
the forkserver, which outlives the owner while workers remain.  On
Linux it waits on a pidfd of the owner; elsewhere it polls.  A worker
that starts after its owner has already exited leaves at once.

A pool may also give each worker a *setup* callable, run once after
the watchdog starts; what it returns is the worker's
:data:`worker_state` for every task that worker runs.  A
:class:`~repro.service.jobs.JobQueue` builds each worker's engine
session this way, with the queue's byte budget.

A process that already owns such a pool can lend it to the
Monte-Carlo free functions through :data:`shard_runner`: a pooled
:class:`~repro.service.jobs.JobQueue` does, so a fan-out request it
runs spreads its shards over the queue's workers instead of forking a
second pool.
"""

from __future__ import annotations

import os
import select
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextvars import ContextVar

#: How often a worker polls for its owner where no pidfd is available
#: [s].
WATCH_INTERVAL_S = 0.2

#: ``(specs, compiled, retry) -> results`` (spec order) when set: how
#: the Monte-Carlo free functions execute their shards in this context,
#: in place of :func:`~repro.service.jobs.run_shards`.
shard_runner: ContextVar = ContextVar("repro_shard_runner", default=None)

#: In a pool worker: what the pool's *setup* callable returned (see
#: :func:`worker_pool`); ``None`` elsewhere.
worker_state: ContextVar = ContextVar("repro_worker_state", default=None)


def _exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def _watch_owner(owner: int) -> None:
    """Pool-worker initializer: exit once process *owner* has exited."""
    try:
        pidfd = os.pidfd_open(owner)
    except ProcessLookupError:
        os._exit(0)
    except (AttributeError, OSError):  # no pidfds here: poll
        pidfd = None
    parent = os.getppid()

    def watch() -> None:
        if pidfd is not None:
            select.select([pidfd], [], [])  # readable once owner exits
        else:
            # a changed parent also catches an owner not yet reaped
            while os.getppid() == parent and _exists(owner):
                time.sleep(WATCH_INTERVAL_S)
        os._exit(0)

    threading.Thread(target=watch, name="repro-owner-watch",
                     daemon=True).start()


def _init_worker(owner: int, setup) -> None:
    """Pool-worker initializer: the owner watchdog, then *setup*."""
    _watch_owner(owner)
    if setup is not None:
        # the executor runs every task in this thread and context
        worker_state.set(setup())


def worker_pool(n_workers: int, mp_context=None,
                setup=None) -> ProcessPoolExecutor:
    """A started pool of up to *n_workers* processes, each armed with
    the owner watchdog.

    *mp_context* is a :mod:`multiprocessing` context (default: the
    platform's start method).  *setup*, a picklable callable, runs in
    each worker after the watchdog, and its return value becomes that
    worker's :data:`worker_state`.  One no-op submission starts the pool
    now; under ``fork`` that forks every worker at once, so the first
    pool of a process that has no threads yet is never forked from a
    multithreaded process.  A pool built later (a respawn, a second
    pool beside a running server) gets no such guarantee.
    """
    pool = ProcessPoolExecutor(max_workers=n_workers,
                               mp_context=mp_context,
                               initializer=_init_worker,
                               initargs=(os.getpid(), setup))
    pool.submit(os.getpid)
    return pool


def worker_pids(pool: ProcessPoolExecutor | None) -> list[int]:
    """PIDs of *pool*'s worker processes (empty when none)."""
    # the executor keeps no public roster of its processes
    return sorted(getattr(pool, "_processes", None) or ())
