"""The :class:`AnalysisEngine`: execute task DAGs through a scheduler.

The engine owns four orthogonal concerns that every entry point used to
re-implement ad hoc:

* **dispatch** — :data:`ALGORITHMS` maps a task's ``algorithm`` string to a
  ``synthesize(task, deps, engine) -> CertificateResult`` function, resolved
  lazily by dotted path so worker processes import only what they run and
  the engine package stays import-cycle-free;
* **scheduling** — :meth:`AnalysisEngine.run` is *completion-driven*: a
  ready-set keyed on outstanding dependency counts submits each task the
  moment its last dependency resolves, and results are consumed as they
  complete, so a slow task delays only its own descendants — independent
  chains pipeline straight through.  Results are a pure function of each
  task, so scheduler choice and completion order never change the output;
* **caching** — before a ready task is submitted it is looked up in the
  optional on-disk :class:`~repro.engine.cache.ResultCache` by its content
  hash; fresh ``ok`` results are stored back, and a cache hit resolves its
  dependents immediately without touching the pool;
* **fault tolerance** — every wait is bounded (per-task wall-clock
  deadlines, :data:`DEFAULT_TASK_TIMEOUT` by default, enforced by a
  watchdog in the dispatch loop), *infrastructure* failures are retried
  with exponential backoff + deterministic jitter
  (:class:`RetryPolicy`), a broken process pool is rebuilt in place with
  only the in-flight tasks requeued (capped by ``max_pool_rebuilds``),
  and when a backend cannot be healed the engine degrades down a
  caller-supplied chain (pool → serial), recording everything in a
  :class:`DegradationReport`.

Failure taxonomy (the load-bearing distinction, pinned by the chaos suite
in ``tests/test_faults.py`` via :mod:`repro.engine.faults`):

* a task whose algorithm *raises* becomes a ``status="error"`` result —
  synthesis failures are deterministic data, retrying them re-buys the
  same exception, and tables record them per row;
* a worker *process* dying mid-task (segfault, OOM kill), a deadline
  expiry, or an injected transient fault is an **infrastructure** failure
  (``BrokenProcessPool`` / :class:`~repro.errors.TaskTimeoutError` /
  :class:`~repro.errors.TaskError`): the computation itself is
  innocent, so the engine retries it — and because tasks are pure
  functions cache-keyed by content hash, a retried run is bit-identical
  to a first-try run.  Only when retries, pool rebuilds and the
  degradation chain are all exhausted does the failure propagate.

Tasks are the unit of parallelism: a synthesis runs start to finish in
one process and emits no subtasks (Hoeffding's Ser search takes a few
sequential LPs, see :mod:`repro.numeric.ser`).  A ``KeyboardInterrupt``
during dispatch cancels everything still queued and shuts the pool down
before propagating.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import EngineError, TaskError, TaskTimeoutError
from repro.engine.cache import ResultCache
from repro.engine.faults import task_boundary
from repro.engine.scheduler import SerialScheduler, make_scheduler
from repro.engine.task import AnalysisTask, CertificateResult

__all__ = [
    "ALGORITHMS",
    "AnalysisEngine",
    "DEFAULT_TASK_TIMEOUT",
    "DegradationEvent",
    "DegradationReport",
    "RetryPolicy",
    "engine_scope",
    "execute_task",
]

#: algorithm name -> "module:function" implementing the synthesize protocol
ALGORITHMS: Dict[str, str] = {
    "hoeffding": "repro.core.hoeffding:synthesize",
    "azuma": "repro.core.hoeffding:synthesize",
    "hoeffding_probe": "repro.core.hoeffding:synthesize_probe",
    "explinsyn": "repro.core.explinsyn:synthesize",
    "explowsyn": "repro.core.explowsyn:synthesize",
    "table1_baseline": "repro.experiments.table1:synthesize_baseline",
    "exact": "repro.core.runcert:synthesize_exact",
}

#: engine-level default wall-clock deadline per task (seconds).  Generous —
#: the slowest legitimate synthesis is minutes, not an hour — but finite,
#: so no scheduler wait is unbounded unless the caller explicitly passes
#: ``task_timeout=0`` to opt out.
DEFAULT_TASK_TIMEOUT = 3600.0

_RESOLVED = {}


def _resolve(algorithm: str):
    fn = _RESOLVED.get(algorithm)
    if fn is None:
        try:
            target = ALGORITHMS[algorithm]
        except KeyError:
            raise EngineError(
                f"unknown algorithm {algorithm!r}; known: {sorted(ALGORITHMS)}"
            )
        module_name, func_name = target.split(":")
        fn = getattr(importlib.import_module(module_name), func_name)
        _RESOLVED[algorithm] = fn
    return fn


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for *infrastructure* failures.

    ``retries`` is the number of re-attempts after the first try (so a
    task runs at most ``retries + 1`` times per backend).  Backoff grows
    by ``backoff_factor`` per attempt, capped at ``max_delay``, with a
    deterministic jitter derived from ``sha256(task_key, attempt)`` —
    retried runs stay reproducible, but a burst of tasks retrying after
    one pool break does not stampede in lockstep.
    """

    retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    max_delay: float = 2.0

    def delay(self, key: str, attempt: int) -> float:
        base = self.backoff * self.backoff_factor ** max(0, attempt - 1)
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).hexdigest()
        unit = int(digest[:8], 16) / 0xFFFFFFFF
        return min(self.max_delay, base * (1.0 + self.jitter * unit))


@dataclass(frozen=True)
class DegradationEvent:
    """One recorded deviation from the happy path."""

    kind: str  # "retry" | "pool-rebuild" | "backend-switch"
    backend: str  # scheduler kind; "old -> new" for backend switches
    detail: str
    task_id: str = ""


@dataclass
class DegradationReport:
    """Structured record of retries, pool rebuilds and backend switches.

    Accumulated across every ``run``/``run_inline`` of one engine; the CLI
    prints :meth:`render` after a run so degraded executions are visible,
    not silent.  An empty report is the happy path.
    """

    events: List[DegradationEvent] = field(default_factory=list)

    def note(self, kind: str, backend: str, detail: str, task_id: str = "") -> None:
        self.events.append(DegradationEvent(kind, backend, detail, task_id))

    @property
    def degraded(self) -> bool:
        return bool(self.events)

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def render(self) -> List[str]:
        lines = []
        for e in self.events:
            if e.kind == "retry":
                lines.append(f"retried task {e.task_id!r} on {e.backend}: {e.detail}")
            elif e.kind == "pool-rebuild":
                lines.append(f"rebuilt {e.backend} pool: {e.detail}")
            elif e.kind == "backend-switch":
                lines.append(f"degraded backend {e.backend}: {e.detail}")
            else:  # pragma: no cover - future kinds render generically
                lines.append(f"{e.kind} [{e.backend}]: {e.detail}")
        return lines

    def __bool__(self) -> bool:
        return self.degraded


def execute_task(
    task: AnalysisTask,
    deps: Optional[Mapping[str, CertificateResult]] = None,
    engine: Optional["AnalysisEngine"] = None,
) -> CertificateResult:
    """Run one task; *synthesis* failures become ``status="error"`` results.

    Infrastructure failures (:class:`TaskError`) still propagate: they are
    retryable, and recording one as a row error would misreport the
    experiment.
    """
    try:
        fn = _resolve(task.algorithm)
        result = fn(task, deps=dict(deps or {}), engine=engine)
    except TaskError:
        raise
    except Exception as exc:  # failures are data: tables record them per row
        return CertificateResult.failure(task, exc)
    result.task_key = task.cache_key
    return result


def _pool_execute(payload) -> CertificateResult:
    """Top-level worker entry (picklable); runs the task without an engine.
    The payload carries the retry layer's attempt index so fault injection
    (:mod:`repro.engine.faults`) stays deterministic across processes."""
    task, deps, attempt = payload
    task_boundary(task.task_id, attempt)
    return execute_task(task, deps=deps, engine=None)


@contextmanager
def engine_scope(engine=None, jobs: int = 1, cache: Optional[ResultCache] = None):
    """Yield ``engine`` untouched, or a fresh one (built from ``jobs`` and
    ``cache``) that is closed on exit — the shared lifecycle of every
    harness entry point that accepts an optional caller-owned engine."""
    if engine is not None:
        yield engine
        return
    owned = AnalysisEngine.with_jobs(jobs, cache)
    try:
        yield owned
    finally:
        owned.close()


def _validate_graph(tasks: Sequence[AnalysisTask]):
    """Reject duplicate ids, unknown dependencies and cycles up front, so a
    malformed graph fails before any work is scheduled; returns the
    ``(indegree, children)`` maps for the run loop to consume."""
    ids = [t.task_id for t in tasks]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise EngineError(f"duplicate task ids: {dupes}")
    known = set(ids)
    for t in tasks:
        missing = [d for d in t.depends_on if d not in known]
        if missing:
            raise EngineError(f"task {t.task_id!r} depends on unknown {missing}")
    indegree = {t.task_id: len(set(t.depends_on)) for t in tasks}
    children: Dict[str, List[str]] = {t.task_id: [] for t in tasks}
    for t in tasks:
        for d in set(t.depends_on):
            children[d].append(t.task_id)
    # Kahn's algorithm on a scratch copy: cheap, and leaves the real run
    # loop free to assume acyclicity
    scratch = dict(indegree)
    queue = deque(i for i in ids if scratch[i] == 0)
    seen = 0
    while queue:
        seen += 1
        for child in children[queue.popleft()]:
            scratch[child] -= 1
            if scratch[child] == 0:
                queue.append(child)
    if seen != len(tasks):
        stuck = sorted(i for i in ids if scratch[i] > 0)
        raise EngineError(f"dependency cycle among {stuck}")
    return indegree, children


def _final_error(task: AnalysisTask, attempts_used: int, exc: BaseException) -> TaskError:
    """Wrap an exhausted infrastructure failure, preserving timeout-ness."""
    cls = TaskTimeoutError if isinstance(exc, TaskTimeoutError) else TaskError
    return cls(
        f"task {task.task_id!r} ({task.algorithm}) failed after "
        f"{attempts_used} attempt(s): {exc}"
    )


class AnalysisEngine:
    """Executes :class:`AnalysisTask` DAGs; see the module docstring.

    ``task_timeout`` is the engine-default per-task deadline in seconds
    (``None`` → :data:`DEFAULT_TASK_TIMEOUT`, ``0`` or negative →
    unbounded; an individual :attr:`AnalysisTask.timeout` overrides it).
    ``fallbacks`` is an ordered sequence of zero-argument scheduler
    factories forming the graceful-degradation chain; ``max_pool_rebuilds``
    caps in-place self-healing per backend before the chain advances.
    """

    def __init__(
        self,
        scheduler=None,
        cache: Optional[ResultCache] = None,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        task_timeout: Optional[float] = None,
        fallbacks: Sequence = (),
        max_pool_rebuilds: int = 3,
    ):
        self.scheduler = scheduler if scheduler is not None else SerialScheduler()
        self.cache = cache
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        if task_timeout is None:
            self.task_timeout: Optional[float] = DEFAULT_TASK_TIMEOUT
        elif task_timeout <= 0:
            self.task_timeout = None
        else:
            self.task_timeout = float(task_timeout)
        self._fallbacks = list(fallbacks)
        self.max_pool_rebuilds = int(max_pool_rebuilds)
        self._pool_rebuilds = 0
        self._report = DegradationReport()

    @staticmethod
    def with_jobs(
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        task_timeout: Optional[float] = None,
    ) -> "AnalysisEngine":
        scheduler = make_scheduler(jobs)
        # every pooled engine can at least fall back to serial: a run that
        # would have died with the pool now finishes on one core
        fallbacks = [] if isinstance(scheduler, SerialScheduler) else [SerialScheduler]
        return AnalysisEngine(
            scheduler=scheduler,
            cache=cache,
            retry_policy=retry_policy,
            task_timeout=task_timeout,
            fallbacks=fallbacks,
        )

    # -- fault-tolerance plumbing --------------------------------------------------
    @property
    def degradation(self) -> DegradationReport:
        return self._report

    def _backend_name(self) -> str:
        return getattr(self.scheduler, "kind", type(self.scheduler).__name__)

    def _crash_domain(self) -> str:
        return getattr(self.scheduler, "crash_domain", "isolated")

    def _effective_timeout(self, task: AnalysisTask) -> Optional[float]:
        limit = task.timeout if task.timeout is not None else self.task_timeout
        return float(limit) if limit and limit > 0 else None

    def _deadline_for(self, task: AnalysisTask) -> Optional[float]:
        limit = self._effective_timeout(task)
        return time.monotonic() + limit if limit is not None else None

    def _switch_backend(self, reason: str) -> bool:
        """Advance the degradation chain; True when a replacement is live."""
        while self._fallbacks:
            factory = self._fallbacks.pop(0)
            try:
                replacement = factory()
            except Exception as exc:
                self._report.note(
                    "backend-switch",
                    self._backend_name(),
                    f"fallback construction failed ({exc}); trying the next tier",
                )
                continue
            old = self._backend_name()
            try:
                getattr(self.scheduler, "terminate", self.scheduler.close)()
            except Exception:
                pass  # the old backend is being abandoned precisely because it is sick
            self.scheduler = replacement
            self._pool_rebuilds = 0  # fresh backend, fresh healing budget
            self._report.note(
                "backend-switch",
                f"{old} -> {self._backend_name()}",
                reason,
            )
            return True
        return False

    def _heal_pool(self, exc: BaseException) -> None:
        """A shared-fate backend broke (or ate a deadline): rebuild it in
        place while budget remains, else advance the degradation chain;
        raises when every road is exhausted."""
        self._pool_rebuilds += 1
        if self._pool_rebuilds <= self.max_pool_rebuilds:
            try:
                self.scheduler.rebuild()
            except Exception as rebuild_exc:
                if not self._switch_backend(
                    f"rebuild failed ({rebuild_exc}) after: {exc}"
                ):
                    raise TaskError(
                        f"worker pool could not be rebuilt: {rebuild_exc}"
                    ) from exc
            else:
                self._report.note(
                    "pool-rebuild",
                    self._backend_name(),
                    f"rebuild {self._pool_rebuilds}/{self.max_pool_rebuilds} "
                    f"after: {exc}",
                )
            return
        if not self._switch_backend(
            f"pool rebuild budget ({self.max_pool_rebuilds}) exhausted after: {exc}"
        ):
            raise TaskError(
                f"worker pool kept breaking; rebuild budget "
                f"({self.max_pool_rebuilds}) exhausted: {exc}"
            ) from exc

    # -- DAG execution -------------------------------------------------------------
    def run(self, tasks: Sequence[AnalysisTask]) -> Dict[str, CertificateResult]:
        """Execute a task DAG with completion-driven dispatch; returns
        ``task_id -> result``.

        The ready-set is seeded with the zero-dependency tasks in input
        order and every completion decrements its dependents' outstanding
        counts, submitting each the instant it hits zero.  With a serial
        scheduler, submission executes inline, so execution order is the
        stable topological order of the input list — and because every
        task is a pure function of (task, deps), pooled completion order,
        retries and backend switches cannot change any result either.

        The completion wait is bounded by the nearest in-flight deadline
        (the watchdog): an expired task is abandoned, its worker reclaimed
        (pool rebuild for shared-fate backends), and the task retried
        under :attr:`retry_policy` like any other infrastructure failure.
        """
        tasks = list(tasks)
        indegree, children = _validate_graph(tasks)
        by_id = {t.task_id: t for t in tasks}
        results: Dict[str, CertificateResult] = {}
        ready = deque(t for t in tasks if indegree[t.task_id] == 0)
        inflight: Dict["object", AnalysisTask] = {}  # future -> task
        submit_seq: Dict["object", int] = {}  # future -> submission index
        deadlines: Dict["object", Optional[float]] = {}  # future -> monotonic ts
        attempts: Dict[str, int] = {}  # task_id -> infrastructure failures so far
        seq = 0

        def settle(task: AnalysisTask, result: CertificateResult) -> None:
            results[task.task_id] = result
            self._store(task, result)
            for child in children[task.task_id]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(by_id[child])

        def abandon_inflight() -> List[AnalysisTask]:
            """Cancel every in-flight future; tasks back in submit order."""
            order = sorted(inflight, key=submit_seq.get)
            requeued = [inflight[f] for f in order]
            for f in order:
                f.cancel()
            inflight.clear()
            submit_seq.clear()
            deadlines.clear()
            return requeued

        def recover(task: AnalysisTask, exc: BaseException, pool_fault: bool) -> None:
            """One infrastructure failure of ``task``: heal the backend,
            requeue (faulter last, innocents first, in submit order), or
            raise when retries, rebuilds and fallbacks are all spent."""
            used = attempts.get(task.task_id, 0) + 1
            attempts[task.task_id] = used
            innocents: List[AnalysisTask] = []
            if pool_fault:
                # shared fate: every in-flight future died with the pool;
                # requeue them all, but only the faulter pays an attempt
                innocents = abandon_inflight()
                self._heal_pool(exc)  # may switch backend or raise
            if used > self.retry_policy.retries:
                if self._switch_backend(
                    f"task {task.task_id!r} failed {used}x: {exc}"
                ):
                    attempts[task.task_id] = 0
                else:
                    for f in inflight:
                        f.cancel()
                    raise _final_error(task, used, exc) from exc
            else:
                self._report.note("retry", self._backend_name(), str(exc), task.task_id)
                time.sleep(self.retry_policy.delay(task.cache_key, used))
            ready.extend(innocents)
            ready.append(task)

        def expire_overdue() -> None:
            now = time.monotonic()
            overdue = [
                f
                for f in list(inflight)
                if deadlines.get(f) is not None and now >= deadlines[f] and not f.done()
            ]
            if not overdue:
                return
            future = min(overdue, key=submit_seq.get)
            task = inflight.pop(future)
            submit_seq.pop(future)
            deadlines.pop(future)
            future.cancel()  # running pool futures ignore this; the rebuild reclaims them
            limit = self._effective_timeout(task)
            recover(
                task,
                TaskTimeoutError(
                    f"task {task.task_id!r} ({task.algorithm}) exceeded its "
                    f"{limit:g}s deadline"
                ),
                # a hung pool worker still occupies a shared slot: reclaim
                # it the only way a process pool allows — rebuild
                pool_fault=self._crash_domain() == "pool",
            )

        try:
            while ready or inflight:
                while ready:
                    task = ready.popleft()
                    cached = self._lookup(task)
                    if cached is not None:
                        settle(task, cached)  # may extend `ready`
                        continue
                    deps = {d: results[d] for d in task.depends_on}
                    attempt = attempts.get(task.task_id, 0)
                    width = len(ready) + 1
                    if attempt > 0:
                        # a retried task must keep pool isolation: the
                        # width-1 inline degrade would run it in the engine
                        # process, and this task just killed a worker or
                        # overran its deadline
                        width = max(width, 2)
                    try:
                        future = self.scheduler.submit(
                            _pool_execute,
                            (task, deps, attempt),
                            width_hint=width,
                        )
                    except BrokenProcessPool as exc:
                        # the pool can break synchronously too (a worker was
                        # killed while we were submitting a burst)
                        recover(
                            task,
                            TaskError(
                                f"worker process died while submitting task "
                                f"{task.task_id!r} ({task.algorithm}): {exc!r}"
                            ),
                            pool_fault=True,
                        )
                        continue
                    inflight[future] = task
                    submit_seq[future] = seq
                    deadlines[future] = self._deadline_for(task)
                    seq += 1
                if not inflight:
                    break
                done, _ = wait(
                    list(inflight),
                    timeout=self._wait_timeout(deadlines.values()),
                    return_when=FIRST_COMPLETED,
                )
                # settle in submission order — not required for correctness
                # (results are pure), but it keeps side effects like cache
                # stores reproducible run to run
                for future in sorted(done, key=submit_seq.get):
                    if future not in inflight:
                        break  # a pool-fault recovery flushed the in-flight set
                    task = inflight.pop(future)
                    submit_seq.pop(future)
                    deadlines.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool as exc:
                        recover(
                            task,
                            TaskError(
                                f"worker process died while running task "
                                f"{task.task_id!r} ({task.algorithm}): {exc!r}"
                            ),
                            pool_fault=True,
                        )
                        continue
                    except TaskError as exc:  # transient: injected, or a failed subtask
                        recover(task, exc, pool_fault=False)
                        continue
                    settle(task, outcome)
                expire_overdue()
        except KeyboardInterrupt:
            # Ctrl-C mid-dispatch: drop everything still queued and take the
            # pool down with us — forcefully, because a graceful close would
            # join whatever multi-minute solves are mid-flight and make the
            # interrupt appear to hang
            for future in inflight:
                future.cancel()
            getattr(self.scheduler, "terminate", self.scheduler.close)()
            raise
        except BaseException:
            for future in inflight:
                future.cancel()
            raise
        return results

    @staticmethod
    def _wait_timeout(deadline_values) -> Optional[float]:
        """Bounded completion wait: time to the nearest in-flight deadline
        (plus a hair, so the woken loop sees the deadline as passed), or
        ``None`` only when every deadline was explicitly disabled."""
        finite = [d for d in deadline_values if d is not None]
        if not finite:
            return None
        return max(0.0, min(finite) - time.monotonic()) + 0.01

    def map(self, tasks: Sequence[AnalysisTask]) -> List[CertificateResult]:
        """Dependency-free convenience: results in input order."""
        results = self.run(tasks)
        return [results[t.task_id] for t in tasks]

    def run_inline(
        self,
        task: AnalysisTask,
        deps: Optional[Mapping[str, CertificateResult]] = None,
    ) -> CertificateResult:
        """Execute one task in the calling process, with the cache and the
        retry semantics of :meth:`run`: an infrastructure failure (an
        injected transient, say) re-runs the synthesis, which is safe and
        bit-identical because synthesizers are pure functions of
        ``(task, deps)``.  Deadlines cannot preempt the inline computation
        (it runs on the calling thread).
        """
        cached = self._lookup(task)
        if cached is not None:
            return cached
        attempt = 0
        while True:
            try:
                task_boundary(task.task_id, attempt)
                result = execute_task(task, deps=deps, engine=self)
                break
            except TaskError as exc:
                attempt += 1
                if attempt > self.retry_policy.retries:
                    if self._switch_backend(
                        f"task {task.task_id!r} failed {attempt}x: {exc}"
                    ):
                        attempt = 0
                        continue
                    raise _final_error(task, attempt, exc) from exc
                self._report.note("retry", self._backend_name(), str(exc), task.task_id)
                time.sleep(self.retry_policy.delay(task.cache_key, attempt))
        self._store(task, result)
        return result

    # -- cache plumbing ------------------------------------------------------------
    def _lookup(self, task: AnalysisTask) -> Optional[CertificateResult]:
        if self.cache is None or not task.cacheable:
            return None
        hit = self.cache.get(task.cache_key)
        return hit.as_cached() if hit is not None else None

    def _store(self, task: AnalysisTask, result: CertificateResult) -> None:
        if (
            self.cache is not None
            and task.cacheable
            and not result.cached  # a replayed hit must not count as a store
            and result.ok
        ):
            self.cache.put(task.cache_key, result)

    def close(self) -> None:
        self.scheduler.close()
        if self.cache is not None:
            self.cache.gc_if_configured()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self) -> str:
        return f"AnalysisEngine(scheduler={self.scheduler!r}, cache={self.cache!r})"
