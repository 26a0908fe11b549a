"""Execution backends for the analysis engine.

A scheduler is anything with ``submit(fn, item) -> Future`` (the engine's
completion-driven dispatch), ``rebuild()`` and ``close()``.  Two
implementations ship:

* :class:`SerialScheduler` — in-process, zero overhead, the reference
  behavior every parallel backend must reproduce bit-for-bit;
* :class:`ProcessPoolScheduler` — a lazily created process pool owned by
  one engine run, capped at ``jobs`` but forking workers on demand (so
  ``--jobs 0`` on a 3-row table forks 3 workers, not one per CPU, while a
  later wide burst still reaches full parallelism).

``jobs`` semantics live in exactly one place, :func:`resolve_jobs`:
``0`` means one worker per CPU and negative values are rejected.

The pool runs on :class:`concurrent.futures.ProcessPoolExecutor` rather
than ``multiprocessing.Pool``: when a worker process dies mid-task
(segfault, OOM kill, ``os._exit``) the executor breaks loudly with
``BrokenProcessPool`` instead of hanging the caller, and the engine turns
that into a :class:`~repro.errors.TaskError`.

Determinism: every backend resolves futures with the value of a pure
function of its task, so scheduler choice never changes a certificate —
only wall-clock time.  ``tests/test_engine.py`` pins this down.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, List, Optional, Protocol, TypeVar, runtime_checkable

__all__ = [
    "Scheduler",
    "SerialScheduler",
    "ProcessPoolScheduler",
    "make_scheduler",
    "resolve_jobs",
]

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: int) -> int:
    """The single home of ``--jobs`` clamping: ``0`` resolves to one worker
    per CPU, positive values pass through, negative values are rejected.
    """
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs if jobs > 0 else (os.cpu_count() or 1)


@runtime_checkable
class Scheduler(Protocol):
    """Completion-capable parallel backend over picklable work items.

    Fault-tolerance contract (see ``docs/ARCHITECTURE.md`` "Failure
    semantics"): ``kind`` names the backend in degradation reports;
    ``crash_domain`` is ``"pool"`` when one dying worker poisons every
    in-flight future (shared-fate process pools — the engine then rebuilds
    and requeues everything) or ``"isolated"`` when failures are per-task
    (serial); ``rebuild()`` discards broken execution state so the next
    ``submit`` starts healthy, raising :class:`~repro.errors.TaskError`
    when the backend cannot be healed.
    """

    workers: int
    kind: str
    crash_domain: str

    def submit(self, fn: Callable[[T], R], item: T, width_hint: int = 1) -> "Future[R]": ...

    def rebuild(self) -> None: ...

    def close(self) -> None: ...


def _completed_future(fn, item) -> Future:
    """Run ``fn(item)`` now; hand the outcome back as a resolved future (the
    serial/degraded path of ``submit``)."""
    future: Future = Future()
    try:
        future.set_result(fn(item))
    except KeyboardInterrupt:
        # propagate immediately: parking Ctrl-C on the future would let the
        # dispatch loop inline-execute every remaining ready task first
        raise
    except BaseException as exc:
        future.set_exception(exc)
    return future


class SerialScheduler:
    """Run every task in the calling process, in order."""

    workers = 1
    kind = "serial"
    crash_domain = "isolated"

    def submit(self, fn, item, width_hint: int = 1) -> Future:
        return _completed_future(fn, item)

    def rebuild(self) -> None:
        pass  # no execution state to heal

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self) -> str:
        return "SerialScheduler()"


class ProcessPoolScheduler:
    """A per-run process pool, torn down by ``close()``.

    The executor is created lazily, sized ``min(jobs, observed demand)`` —
    under fork (Linux) ``ProcessPoolExecutor`` forks its full width
    eagerly, so sizing to ``jobs`` outright would fork idle processes for
    small task sets (ROADMAP: the 3-row tables).  When wider demand
    arrives, the pool regrows by *handover*: the old executor keeps
    draining its in-flight futures in the background while a wider one
    takes new submissions, so regrowth never blocks the dispatch loop
    behind a running task.
    """

    kind = "pool"
    #: one dead worker breaks the whole executor: every in-flight future of
    #: this scheduler shares its fate, so the engine requeues all of them
    #: after a rebuild
    crash_domain = "pool"

    def __init__(self, jobs: int = 0):
        self.jobs = resolve_jobs(jobs)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._pool_width = 0
        self._draining: List[ProcessPoolExecutor] = []
        #: futures submitted but not yet done — the width-1 inline degrade
        #: needs it (updated under _count_lock by done callbacks)
        self._outstanding = 0
        self._count_lock = threading.Lock()

    @property
    def workers(self) -> int:
        return self.jobs

    @property
    def resolved_workers(self) -> int:
        """Worker processes forked so far (0 until first use).

        Under the fork start method (Linux) the executor forks its full
        ``max_workers`` eagerly — dynamic spawning is disabled for fork —
        which is why the pool is still sized ``min(jobs, observed demand)``
        rather than ``jobs`` outright."""
        executor = self._executor
        return len(getattr(executor, "_processes", None) or ()) if executor else 0

    @staticmethod
    def _inline_only() -> bool:
        # inside a daemonic pool worker no children can be forked: degrade
        return multiprocessing.current_process().daemon

    def _on_done(self, _future) -> None:
        with self._count_lock:
            self._outstanding -= 1

    def _acquire(self, width: int) -> ProcessPoolExecutor:
        want = max(1, min(self.jobs, width))
        if self._executor is not None and self._pool_width < want:
            # non-blocking handover: let the narrow pool finish what it is
            # running (its futures are still held by the caller) and put
            # fresh work on a wider one
            self._executor.shutdown(wait=False)
            self._draining.append(self._executor)
            self._executor = None
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=want)
            self._pool_width = want
        return self._executor

    def submit(self, fn, item, width_hint: int = 1) -> Future:
        if self._inline_only():
            return _completed_future(fn, item)
        if width_hint <= 1 and self._executor is None:
            with self._count_lock:
                idle = self._outstanding == 0
            if idle:
                # a lone ready task with no pool yet: forking one buys zero
                # parallelism (single-task runs and purely linear chains)
                return _completed_future(fn, item)
        executor = self._acquire(max(1, width_hint))
        with self._count_lock:
            self._outstanding += 1
        future = executor.submit(fn, item)
        future.add_done_callback(self._on_done)
        return future

    def close(self) -> None:
        for executor in self._draining:
            executor.shutdown(wait=True)
        self._draining.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
            self._pool_width = 0

    def terminate(self) -> None:
        """Forceful teardown (interrupt paths): kill the workers outright,
        because ``close()`` would join running tasks, making Ctrl-C appear
        to hang for however long a solve takes."""
        for executor in self._draining + ([self._executor] if self._executor else []):
            for process in list(getattr(executor, "_processes", {}).values()):
                process.terminate()
            executor.shutdown(wait=False, cancel_futures=True)
        self._draining.clear()
        self._executor = None
        self._pool_width = 0

    def rebuild(self) -> None:
        """Self-healing hook: kill whatever executor state exists (broken
        pools cannot be reused; hung workers must be reclaimed) and let the
        next ``submit`` lazily fork a fresh pool."""
        self.terminate()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self) -> str:
        return f"ProcessPoolScheduler(jobs={self.jobs})"


def make_scheduler(jobs: int = 1):
    """``jobs == 1`` or negative: serial; ``jobs == 0``: a per-CPU pool;
    ``jobs > 1``: a pool of that size."""
    if jobs == 1 or jobs < 0:
        return SerialScheduler()
    return ProcessPoolScheduler(jobs=jobs)
