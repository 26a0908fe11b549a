"""Unified analysis engine: task graphs + pluggable schedulers.

Every synthesis the repository performs — a Table 1 row, a lower-bound
certificate, an exact bracket — is expressed as an :class:`AnalysisTask`
(program + algorithm + parameters, with a deterministic cache key).  The
:class:`AnalysisEngine` executes DAGs of such tasks through a pluggable
:class:`Scheduler` (serial or process pool) with an optional on-disk
:class:`ResultCache`, so parallelism and caching compose uniformly across
all synthesis families and experiment tables instead of being re-plumbed
per entry point.

Layer contract (see ``docs/ARCHITECTURE.md``): the engine sits on top of
``repro.core`` and orchestrates it; algorithms are looked up in
:data:`ALGORITHMS` and must be pure functions of ``(task, deps)`` so that
scheduler choice can change wall-clock time but never a certificate —
serial vs pooled bit-identity is pinned by ``tests/test_engine.py``.
Cache keys are content-derived (sha256 over algorithm, program spec,
params, :data:`~repro.engine.task.CACHE_KEY_VERSION` and the fixpoint
engine fingerprint), so distinct entry points share hits and stale
artifacts from older engine versions read as misses.

Execution is fault-tolerant: per-task wall-clock deadlines, a bounded
:class:`RetryPolicy` for infrastructure failures, in-place pool
self-healing and a graceful-degradation chain, all recorded in a
:class:`DegradationReport` — and all exercised deterministically by the
:mod:`repro.engine.faults` injection harness (``REPRO_FAULTS``).
"""

from repro.engine.task import (
    AnalysisTask,
    CertificateResult,
    ProgramSpec,
    result_from_certificate,
)
from repro.engine.scheduler import (
    ProcessPoolScheduler,
    Scheduler,
    SerialScheduler,
    make_scheduler,
    resolve_jobs,
)
from repro.engine.cache import ResultCache
from repro.engine.engine import (
    ALGORITHMS,
    DEFAULT_TASK_TIMEOUT,
    AnalysisEngine,
    DegradationEvent,
    DegradationReport,
    RetryPolicy,
    engine_scope,
    execute_task,
)
from repro.engine.faults import FaultPlan, FaultRule, InjectedFault

__all__ = [
    "AnalysisTask",
    "CertificateResult",
    "ProgramSpec",
    "result_from_certificate",
    "Scheduler",
    "SerialScheduler",
    "ProcessPoolScheduler",
    "make_scheduler",
    "resolve_jobs",
    "ResultCache",
    "ALGORITHMS",
    "AnalysisEngine",
    "DEFAULT_TASK_TIMEOUT",
    "DegradationEvent",
    "DegradationReport",
    "RetryPolicy",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "engine_scope",
    "execute_task",
]
