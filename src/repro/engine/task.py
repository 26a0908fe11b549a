"""The unit of work of the analysis engine.

An :class:`AnalysisTask` names a program (:class:`ProgramSpec`), an
algorithm (a key of :data:`repro.engine.engine.ALGORITHMS`) and its
parameters.  Tasks are immutable, hashable and picklable — the same object
travels to process-pool workers — and carry a deterministic
:attr:`~AnalysisTask.cache_key` so results can be stored and replayed from
an on-disk :class:`~repro.engine.cache.ResultCache`.

Results come back as :class:`CertificateResult`: a slim, picklable summary
of a synthesis run (bound, timings, rendered templates, the solved state
table for warm starts) rather than the full certificate object, which drags
the whole PTS/invariant substrate across process boundaries.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "ProgramSpec",
    "AnalysisTask",
    "CertificateResult",
    "state_table_of",
    "result_from_certificate",
]


def _params_tuple(params: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Canonical (sorted, hashable) form of a parameter mapping."""
    return tuple(sorted(params.items()))


#: per-process compiled-program memo (spec -> (pts, invariants)); bounded so
#: a long table sweep cannot pin every state space in memory at once
_RESOLVE_MEMO: Dict["ProgramSpec", Tuple[Any, Any]] = {}
_RESOLVE_MEMO_CAP = 64  # > the 36 specs of a full `runner all` sweep

#: salt folded into every cache key; bump whenever a synthesis algorithm's
#: *output* changes (bug fix, tightened encoding), so stale on-disk results
#: from older code read as misses instead of replaying wrong bounds.
#: v2: the fixpoint engine fingerprint joined the payload (int64 frontier
#: exploration + blocked Gauss-Seidel schedules) — results from the two
#: exploration paths are bit-identical by construction, but artifacts
#: produced by different fixpoint engine versions must never alias.
#: v3: scaled-lattice (fixed-point int64) admission — ``explore="auto"``
#: semantics changed (fractional PTSs now take the frontier engine), so
#: artifacts written under the v2 admission rules must read as misses.
#: v4: solve-then-certify value iteration — certified oracle adoptions end
#: the run at oracle precision (brackets may differ from pure sweeping in
#: the last ulps) and the tiny-model heuristic changed ``explore="auto"``
#: engine selection, so v3 artifacts must read as misses.
#: v5: run certificates — ``CertificateResult`` grew ``run_certificate``
#: and the cache stores certificates as ``*.cert.json`` sidecar blobs
#: reattached on read; v4 pickles lack the field and have no sidecar, so
#: they must read as misses.
#: v6: one value-iteration kernel — every model runs CSR Jacobi sweeps
#: (the dense exact-Gauss-Seidel operator below 2048 states is gone), so
#: sweep counts and last-ulp brackets of small models changed and v5
#: artifacts must read as misses.
#: v7: exact, LP-free interval invariants — generated boxes lost the 1e-6
#: outward slack and the integer snap (which moved bounds *inward* on
#: fractional lattices), so v6 bounds synthesized against the old boxes
#: must read as misses.
CACHE_KEY_VERSION = 7


def _fixpoint_fingerprint() -> str:
    """Version stamp of the exploration/sweep machinery (lazy import: the
    fixpoint module drags scipy in, which light CLI paths don't need)."""
    from repro.core.fixpoint import FIXPOINT_FINGERPRINT

    return FIXPOINT_FINGERPRINT


@dataclass(frozen=True)
class ProgramSpec:
    """Where a task's PTS comes from: a registered benchmark or source text.

    Resolution happens inside the executing worker (a spec is a few strings;
    a compiled PTS is not worth pickling), so the same spec resolves to the
    same PTS/invariants in every process — the compiler, the benchmark
    factories and interval-invariant generation are all deterministic.
    """

    kind: str  # "benchmark" | "source"
    name: str
    params: Tuple[Tuple[str, Any], ...] = ()
    source: str = ""
    integer_mode: bool = True

    @staticmethod
    def benchmark(name: str, **params) -> "ProgramSpec":
        return ProgramSpec(kind="benchmark", name=name, params=_params_tuple(params))

    @staticmethod
    def from_source(
        source: str,
        name: str = "program",
        integer_mode: bool = True,
    ) -> "ProgramSpec":
        return ProgramSpec(
            kind="source",
            name=name,
            source=source,
            integer_mode=integer_mode,
        )

    def resolve(self):
        """Compile/instantiate to ``(pts, invariants)``.

        Memoized per process (bounded FIFO): the task triple of one table
        row shares a spec, so the row compiles and generates its interval
        invariants once — the memo restores the
        one-instance-per-row sharing the pre-engine harness had.  Sharing is
        safe because no synthesis algorithm mutates the PTS or the
        invariant map (polyhedra only memoize their own queries).
        """
        cached = _RESOLVE_MEMO.get(self)
        if cached is not None:
            return cached
        if self.kind == "benchmark":
            from repro.programs import get_benchmark

            inst = get_benchmark(self.name, **dict(self.params))
            resolved = inst.pts, inst.invariants
        else:
            from repro.lang import compile_source

            result = compile_source(
                self.source, integer_mode=self.integer_mode, name=self.name
            )
            from repro.core.invariants import generate_interval_invariants

            invariants = generate_interval_invariants(result.pts)
            if result.invariants:
                invariants = invariants.merged_with(result.invariants)
            resolved = result.pts, invariants
        while len(_RESOLVE_MEMO) >= _RESOLVE_MEMO_CAP:
            _RESOLVE_MEMO.pop(next(iter(_RESOLVE_MEMO)))
        _RESOLVE_MEMO[self] = resolved
        return resolved

    def canonical(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "params": [[k, repr(v)] for k, v in self.params],
            "source": self.source,
            "integer_mode": self.integer_mode,
        }


@dataclass(frozen=True)
class AnalysisTask:
    """One schedulable analysis: program x algorithm x parameters.

    ``depends_on`` names other tasks (by ``task_id``) whose results must be
    available before this one runs; the engine hands them to the synthesizer
    (e.g. ExpLinSyn warm-starts from a Hoeffding certificate's state table).
    ``cacheable=False`` opts fine-grained subtasks (eps-probe LPs) out of
    the on-disk cache — their enclosing synthesis caches as a whole.

    ``timeout`` is a per-task wall-clock deadline in seconds (``None``
    defers to the engine's default, ``0`` disables).  It is *execution
    policy*, not content: two tasks differing only in ``timeout`` mean the
    same computation, so it is deliberately excluded from ``cache_key``.
    """

    algorithm: str
    program: ProgramSpec
    params: Tuple[Tuple[str, Any], ...] = ()
    task_id: str = ""
    depends_on: Tuple[str, ...] = ()
    cacheable: bool = True
    timeout: Optional[float] = None

    def __post_init__(self):
        if not self.task_id:
            object.__setattr__(self, "task_id", self.cache_key[:16])

    @staticmethod
    def make(
        algorithm: str,
        program: ProgramSpec,
        params: Optional[Mapping[str, Any]] = None,
        task_id: str = "",
        depends_on: Tuple[str, ...] = (),
        cacheable: bool = True,
        timeout: Optional[float] = None,
    ) -> "AnalysisTask":
        return AnalysisTask(
            algorithm=algorithm,
            program=program,
            params=_params_tuple(params or {}),
            task_id=task_id,
            # dedupe, order-preserving: the engine's ready-set counts one
            # outstanding slot per distinct dependency
            depends_on=tuple(dict.fromkeys(depends_on)),
            cacheable=cacheable,
            timeout=timeout,
        )

    def param(self, name: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == name:
                return v
        return default

    @property
    def cache_key(self) -> str:
        """Deterministic content hash of (algorithm, program, params).

        Dependencies are deliberately excluded: two task graphs wiring the
        same synthesis differently still mean the same computation.  Tasks
        whose *result* depends on upstream payloads (warm starts) must fold
        a fingerprint of that payload into ``params`` — the table harness
        does — or set ``cacheable=False``.
        """
        payload = {
            "v": CACHE_KEY_VERSION,
            "fixpoint": _fixpoint_fingerprint(),
            "algorithm": self.algorithm,
            "program": self.program.canonical(),
            "params": [[k, repr(v)] for k, v in self.params],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CertificateResult:
    """Uniform, picklable outcome of one analysis task.

    ``state_table`` holds the solved exponents per location
    (``loc -> (coeffs, const)``) — enough to rebuild an
    :class:`~repro.core.templates.ExpStateFunction` for warm starts and for
    the symbolic appendix tables without shipping certificate objects
    between processes.  ``details`` carries per-algorithm extras (RepRSM
    ``eps``/``beta``, LP evaluation counts, the bound ``M`` of Section 6).
    """

    algorithm: str
    status: str  # "ok" | "error"
    log_bound: Optional[float] = None
    seconds: float = 0.0
    solver_info: str = ""
    error: str = ""
    error_type: str = ""
    state_table: Optional[Dict[str, Tuple[Dict[str, float], float]]] = None
    template_renders: Dict[str, str] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    cached: bool = False
    #: producers set this False when the result was computed under degraded
    #: inputs (e.g. a requested warm start whose producer failed) — storing
    #: it would poison the cache for runs where the inputs are healthy
    cache_ok: bool = True
    #: the run certificate payload (``RunCertificate.as_dict()``) for
    #: synthesizers that emit one — the cache strips it into a sidecar
    #: blob on write and reattaches it on read, so the pickled entry
    #: itself stays certificate-free
    run_certificate: Optional[Dict[str, Any]] = None
    task_key: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_cached(self) -> "CertificateResult":
        return replace(self, cached=True)

    @staticmethod
    def failure(task: "AnalysisTask", exc: BaseException, seconds: float = 0.0):
        return CertificateResult(
            algorithm=task.algorithm,
            status="error",
            seconds=seconds,
            error=str(exc),
            error_type=type(exc).__name__,
            task_key=task.cache_key,
        )


def state_table_of(state_function) -> Dict[str, Tuple[Dict[str, float], float]]:
    """Flatten an ``ExpStateFunction`` into the picklable warm-start form."""
    return {
        loc: (dict(state_function.coeffs[loc]), float(state_function.consts[loc]))
        for loc in state_function.coeffs
    }


def result_from_certificate(
    algorithm: str,
    certificate,
    seconds: Optional[float] = None,
    details: Optional[Mapping[str, Any]] = None,
) -> CertificateResult:
    """Summarize any of the certificate classes (they share the base API)."""
    return CertificateResult(
        algorithm=algorithm,
        status="ok",
        log_bound=certificate.log_bound,
        seconds=certificate.solve_seconds if seconds is None else seconds,
        solver_info=certificate.solver_info,
        state_table=state_table_of(certificate.state_function),
        template_renders=certificate.render_template(),
        details=dict(details or {}),
    )
