"""In-memory spans and counters for the benchmark's traced passes.

The benchmark never edits ``src/``: :func:`install` wraps the public
functions of each layer *where callers look them up* — the defining
module, every ``repro.*`` module that bound the function at import, and
the class for methods — and :func:`uninstall` puts the originals back, so
untraced passes run pristine code.

A span is ``[name, start_ns, end_ns, parent, pid, trace_id]``; parents
index the same list.  The engine forks its pool lazily, after
:func:`install`, so workers inherit the wrappers; the wrapped
``_pool_execute`` resets the inherited buffer, records the task's spans
and ships them back on the result, and the wrapped ``AnalysisEngine.run``
merges them under its own span.  Nothing is written until the end of the
run (:func:`chrome_trace`, :func:`layer_table`).
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

NAME, START, END, PARENT, PID, TRACE = range(6)


class Tracer:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self.spec_names: set = set()
        self.stack: List[int] = []
        self.trace_id = "-"

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.pid, self.trace_id])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def inside(self, name: str) -> bool:
        return any(self.spans[i][NAME] == name for i in self.stack)

    def merge(self, spans: List[list], counters: Dict[str, float], specs, parent: int) -> None:
        """Adopt a worker's spans (re-indexed) under span ``parent``."""
        offset = len(self.spans)
        for span in spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] is None else span[PARENT] + offset
            self.spans.append(span)
        for key, value in counters.items():
            self.count(key, value)
        self.spec_names.update(specs)


TRACER = Tracer()
#: pid of the benchmark process; any other pid running a wrapper is a pool worker
MAIN_PID = os.getpid()
_PATCHES: List[Tuple[Any, str, Any]] = []


# -- result hooks: counters read off arguments and return values ---------------


def _linprog_hook(result, args, kwargs) -> None:
    TRACER.count("lp.highs_iterations", int(getattr(result, "nit", 0) or 0))
    if kwargs.get("method") == "highs-ds":
        TRACER.count("lp.retries")
    for key in ("A_ub", "A_eq"):
        matrix = kwargs.get(key)
        if matrix is None:
            continue
        if hasattr(matrix, "nnz"):
            TRACER.count("lp.rows", matrix.shape[0])
            TRACER.count("lp.nnz", matrix.nnz)
        else:
            TRACER.count("lp.rows", len(matrix))
            TRACER.count("lp.nnz", sum(1 for row in matrix for x in row if x))
    if TRACER.inside("invariants"):
        TRACER.count("invariants.lp_calls")


def _ser_hook(result, args, kwargs) -> None:
    TRACER.count("ser.probes", result.evaluations)


def _explore_hook(model, args, kwargs) -> None:
    TRACER.count("explore.states", model.n)
    TRACER.count("explore.via_" + {"scaled-int64": "scaled"}.get(model.explored_via, model.explored_via))


def _iterate_hook(result, args, kwargs) -> None:
    TRACER.count("iterate.sweeps", result.iterations)
    TRACER.count("iterate.oracle_adopted", int(result.solver != "sweep"))
    TRACER.count("iterate.certified", int(result.certified))


# -- wrappers ------------------------------------------------------------------


def _span(name: str, hook: Optional[Callable] = None) -> Callable:
    """Wrapper factory: time each call as span ``name``, then run ``hook``
    on the result."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = TRACER.begin(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(result, args, kwargs)
                return result
            finally:
                TRACER.end(idx)

        return traced

    return make


def _counted(hook: Callable) -> Callable:
    """Wrapper factory: no span, only ``hook`` on each result."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(result, args, kwargs)
            return result

        return counted

    return make


def _wrap_execute_task(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(task, *args, **kwargs):
        outer = TRACER.trace_id
        TRACER.trace_id = task.program.name + "".join(f",{k}={v}" for k, v in task.program.params)
        idx = TRACER.begin("engine.task")
        try:
            result = fn(task, *args, **kwargs)
            TRACER.count("synth.errors", int(result.status == "error"))
            return result
        finally:
            TRACER.end(idx)
            TRACER.trace_id = outer

    return traced


def _wrap_resolve(fn: Callable) -> Callable:
    memo = importlib.import_module("repro.engine.task")._RESOLVE_MEMO

    @functools.wraps(fn)
    def traced(spec):
        TRACER.count("engine.resolve_calls")
        TRACER.count("engine.resolve_misses", int(spec not in memo))
        TRACER.spec_names.add(spec.name)
        idx = TRACER.begin("engine.resolve")
        try:
            return fn(spec)
        finally:
            TRACER.end(idx)

    return traced


def _wrap_engine_run(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(engine, tasks):
        report = engine.degradation
        retries, rebuilds = report.count("retry"), report.count("pool-rebuild")
        idx = TRACER.begin("engine.run")
        try:
            results = fn(engine, tasks)
            for result in results.values():
                shipped = result.__dict__.pop("_perfbench_trace", None)
                if shipped is not None:
                    TRACER.merge(*shipped, parent=idx)
            TRACER.count("engine.tasks", len(results))
            return results
        finally:
            TRACER.count("engine.retries", report.count("retry") - retries)
            TRACER.count("engine.pool_rebuilds", report.count("pool-rebuild") - rebuilds)
            TRACER.end(idx)
            span = TRACER.spans[idx]
            workers = getattr(engine.scheduler, "workers", 1)
            TRACER.count("engine.capacity_s", workers * (span[END] - span[START]) / 1e9)

    return traced


_ORIGINAL_POOL_EXECUTE: Optional[Callable] = None


def traced_pool_execute(payload):
    """Stand-in for ``repro.engine.engine._pool_execute`` (picklable by
    reference).  In a pool worker it records the task's spans and payload
    bytes and ships them back on the result; in the benchmark process
    (serial schedulers run tasks inline) it simply calls through."""
    if os.getpid() == MAIN_PID:
        return _ORIGINAL_POOL_EXECUTE(payload)
    TRACER.reset()
    result = _ORIGINAL_POOL_EXECUTE(payload)
    sent = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    back = len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    TRACER.count("engine.payload_bytes", sent + back)
    result._perfbench_trace = (TRACER.spans, TRACER.counters, sorted(TRACER.spec_names))
    return result


#: (module, attribute path, wrapper factory)
TARGETS = [
    ("repro.lang.compiler", "compile_source", _span("lang.compile")),
    ("repro.core.invariants", "generate_interval_invariants", _span("invariants")),
    ("repro.polyhedra.constraints", "Polyhedron.maximize", _span("polyhedra.query")),
    ("repro.polyhedra.constraints", "Polyhedron.is_empty", _span("polyhedra.query")),
    ("repro.polyhedra.dd", "polyhedron_generators", _span("polyhedra.dd")),
    ("repro.polyhedra.minkowski", "decompose", _span("polyhedra.minkowski")),
    ("repro.numeric.lp", "solve_lp", _span("lp")),
    ("repro.numeric.lp", "linprog", _counted(_linprog_hook)),
    ("repro.numeric.convex", "ConvexProgram.solve", _span("convex")),
    ("repro.numeric.ser", "ternary_search", _span("ser", _ser_hook)),
    ("repro.core.hoeffding", "synthesize", _span("hoeffding")),
    ("repro.core.hoeffding", "synthesize_probe", _span("hoeffding")),
    ("repro.core.hoeffding", "hoeffding_synthesis", _span("hoeffding")),
    ("repro.core.explinsyn", "synthesize", _span("explinsyn")),
    ("repro.core.explinsyn", "exp_lin_syn", _span("explinsyn")),
    ("repro.core.explowsyn", "synthesize", _span("explowsyn")),
    ("repro.core.explowsyn", "exp_low_syn", _span("explowsyn")),
    ("repro.experiments.table1", "synthesize_baseline", _span("baseline")),
    ("repro.core.hoeffding", "azuma_baseline", _span("baseline")),
    ("repro.core.baselines", "cfnh18_best_bound", _span("baseline")),
    ("repro.core.baselines", "cs13_deviation_bound", _span("baseline")),
    ("repro.core.certificates", "UpperBoundCertificate.verify", _span("boundverify")),
    ("repro.core.certificates", "LowerBoundCertificate.verify", _span("boundverify")),
    ("repro.core.fixpoint", "build_sparse_model", _span("explore", _explore_hook)),
    ("repro.core.fixpoint", "iterate_model", _span("iterate", _iterate_hook)),
    ("repro.core.runcert", "emit_run_certificate", _span("runcert.emit")),
    ("repro.core.runcert", "verify_run_certificate", _span("runcert.verify")),
    ("repro.core.runcert", "verify_certificate_text", _span("runcert.verify")),
    ("repro.engine.engine", "AnalysisEngine.run", _wrap_engine_run),
    ("repro.engine.engine", "execute_task", _wrap_execute_task),
    ("repro.engine.task", "ProgramSpec.resolve", _wrap_resolve),
]


def _patch(owner: Any, attr: str, value: Any) -> None:
    _PATCHES.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, value)


def install() -> None:
    """Wrap every target where callers look it up (idempotent)."""
    global _ORIGINAL_POOL_EXECUTE
    if _PATCHES:
        return
    for module_name, path, make in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:  # a method: patching the class reaches every caller
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            _patch(cls, meth, make(cls.__dict__[meth]))
            continue
        original = getattr(module, path)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        _patch(mod, key, wrapper)
    engine_mod = importlib.import_module("repro.engine.engine")
    _ORIGINAL_POOL_EXECUTE = engine_mod._pool_execute
    _patch(engine_mod, "_pool_execute", traced_pool_execute)
    engine_mod._RESOLVED.clear()  # algorithm lookups cache function objects


def uninstall() -> None:
    while _PATCHES:
        owner, attr, original = _PATCHES.pop()
        setattr(owner, attr, original)
    importlib.import_module("repro.engine.engine")._RESOLVED.clear()


# -- reduction -----------------------------------------------------------------


def _self_times(spans: List[list]) -> List[float]:
    """Per-span self time (s): duration minus same-process child spans."""
    own = [(s[END] - s[START]) / 1e9 for s in spans]
    for s in spans:
        parent = s[PARENT]
        if parent is not None and spans[parent][PID] == s[PID]:
            own[parent] -= (s[END] - s[START]) / 1e9
    return own


def layer_rows(spans: List[list], main_pid: int) -> Dict[str, Dict[str, float]]:
    """name -> calls, inclusive s (outermost same-name spans), self s in
    the main process and self s in pool workers."""
    self_s = _self_times(spans)
    rows: Dict[str, Dict[str, float]] = {}
    for i, s in enumerate(spans):
        row = rows.setdefault(s[NAME], {"calls": 0, "incl_s": 0.0, "self_main_s": 0.0, "self_workers_s": 0.0})
        row["calls"] += 1
        row["self_main_s" if s[PID] == main_pid else "self_workers_s"] += self_s[i]
        parent = s[PARENT]
        nested = False
        while parent is not None:
            if spans[parent][NAME] == s[NAME] and spans[parent][PID] == s[PID]:
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            row["incl_s"] += (s[END] - s[START]) / 1e9
    return rows


def layer_table(rows: Dict[str, Dict[str, float]], wall_s: float) -> str:
    """Render the per-layer table; the main-process self column, with the
    pass root's own time shown as ``unattributed``, sums to ``wall_s``."""
    lines = [f"{'layer':<20} {'calls':>8} {'incl_s':>10} {'self_s':>10} {'worker_self_s':>14}"]
    total = 0.0
    for name in sorted(rows, key=lambda n: -rows[n]["self_main_s"] - rows[n]["self_workers_s"]):
        row = rows[name]
        label = "unattributed" if name == "pass" else name
        total += row["self_main_s"]
        lines.append(
            f"{label:<20} {row['calls']:>8} {row['incl_s']:>10.4f} "
            f"{row['self_main_s']:>10.4f} {row['self_workers_s']:>14.4f}"
        )
    lines.append(f"{'sum of self_s':<20} {'':>8} {'':>10} {total:>10.4f}   (traced wall_s {wall_s:.4f})")
    return "\n".join(lines)


def chrome_trace(spans: List[list]) -> Dict[str, Any]:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    origin = min((s[START] for s in spans), default=0)
    events = [
        {
            "name": s[NAME],
            "cat": s[NAME].split(".")[0],
            "ph": "X",
            "ts": (s[START] - origin) / 1e3,
            "dur": (s[END] - s[START]) / 1e3,
            "pid": s[PID],
            "tid": s[PID],
            "args": {"id": i, "parent": s[PARENT], "trace_id": s[TRACE]},
        }
        for i, s in enumerate(spans)
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
