"""One fresh benchmark interpreter: set up, then (optionally) run a workload.

Started by ``run.py`` with the environment it pins (hash seed, one BLAS
thread, ``src`` on the path).  Prints ``PERFBENCH-READY {...}`` once the
imports and the one-time warm-up are done — the parent times set-up from
spawn to that line — and, unless ``--setup-only``, runs timed passes of
the workload for ``--seconds`` and prints ``PERFBENCH-RESULT {...}``.

In a traced run (``--trace 1``) passes alternate untraced and traced; the
untraced ones give the overhead baseline, the traced one with the median
wall time gives the per-layer numbers, and all traced spans are written
once at the end to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_layers() -> None:
    """Every module the workloads touch, so no pass pays an import."""
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import repro.core.fixpoint  # noqa: F401
    import repro.core.runcert  # noqa: F401
    import repro.engine  # noqa: F401
    import repro.experiments.reference  # noqa: F401
    import repro.experiments.table1  # noqa: F401
    import repro.experiments.table2  # noqa: F401
    import repro.fuzz.generators  # noqa: F401
    import repro.lang  # noqa: F401
    import repro.programs  # noqa: F401


def warm_up() -> None:
    """Lazy first-use costs, paid here instead of in the first pass: the
    first HiGHS LP, SuperLU factorization and SLSQP solve, and a first
    compile plus interval invariants."""
    import numpy as np
    import scipy.optimize
    import scipy.sparse
    import scipy.sparse.linalg

    from repro.core.invariants import generate_interval_invariants
    from repro.lang import compile_source
    from repro.numeric.lp import solve_lp

    solve_lp([1.0, 1.0], [[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
    scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(np.eye(3) * 2.0)).solve(np.ones(3))
    scipy.optimize.minimize(
        lambda v: float(v @ v),
        np.ones(2),
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda v: v[0] - 0.5}],
    )
    pts = compile_source("x := 1\nwhile x <= 3:\n    if prob(0.5):\n        x := x + 1\nassert x <= 4").pts
    generate_interval_invariants(pts)


def peak_rss_mb() -> float:
    """Max RSS over this process and its reaped children (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_passes(workload, seconds: float, trace: bool):
    """Timed passes until ``seconds`` is spent (another pass starts while at
    least half a pass of budget remains).  Returns (passes, traced), where
    each pass is (wall_s, traced, record) and ``traced`` maps a traced pass
    index to its (spans, counters, spec names)."""
    from perfbench import tracer

    passes, traces = [], {}
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
            tracer.TRACER.reset()
            root = tracer.TRACER.begin("pass")
        t0 = time.perf_counter()
        record = workload.run_pass()
        wall = time.perf_counter() - t0
        if traced:
            tracer.TRACER.end(root)
            tracer.uninstall()
            t = tracer.TRACER
            traces[len(passes)] = (t.spans, t.counters, sorted(t.spec_names))
            tracer.TRACER.reset()
        passes.append((wall, traced, record))
        elapsed = time.perf_counter() - start
        need_both = trace and len(passes) < 2
        if not need_both and seconds - elapsed < 0.5 * wall:
            return passes, traces


def layer_metrics(spans, counters, specs, wall_s: float) -> dict:
    from perfbench import tracer

    rows = tracer.layer_rows(spans, os.getpid())

    def incl(name):
        return rows.get(name, {}).get("incl_s", 0.0)

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def self_all(name):
        row = rows.get(name, {})
        return row.get("self_main_s", 0.0) + row.get("self_workers_s", 0.0)

    c = counters.get
    run_s = incl("engine.run")
    busy_s = incl("engine.task")
    capacity = c("engine.capacity_s", 0.0)
    return {
        "lang.compile_s": incl("lang.compile"),
        "lang.compile_calls": calls("lang.compile"),
        "invariants.s": incl("invariants"),
        "invariants.calls": calls("invariants"),
        "invariants.lp_calls": c("invariants.lp_calls", 0),
        "polyhedra.lp_queries": calls("polyhedra.query"),
        "polyhedra.dd_s": incl("polyhedra.dd"),
        "polyhedra.minkowski_s": incl("polyhedra.minkowski"),
        "lp.calls": calls("lp"),
        "lp.s": incl("lp"),
        "lp.highs_iterations": c("lp.highs_iterations", 0),
        "lp.rows": c("lp.rows", 0),
        "lp.nnz": c("lp.nnz", 0),
        "lp.retries": c("lp.retries", 0),
        "convex.calls": calls("convex"),
        "convex.s": incl("convex"),
        "ser.probes": c("ser.probes", 0),
        "hoeffding.self_s": self_all("hoeffding"),
        "explinsyn.self_s": self_all("explinsyn"),
        "explowsyn.self_s": self_all("explowsyn"),
        "baseline.self_s": self_all("baseline"),
        "boundverify.s": incl("boundverify"),
        "synth.errors": c("synth.errors", 0),
        "explore.s": incl("explore"),
        "explore.states": c("explore.states", 0),
        "explore.via_int64": c("explore.via_int64", 0),
        "explore.via_scaled": c("explore.via_scaled", 0),
        "explore.via_fraction": c("explore.via_fraction", 0),
        "iterate.s": incl("iterate"),
        "iterate.sweeps": c("iterate.sweeps", 0),
        "iterate.oracle_adopted": c("iterate.oracle_adopted", 0),
        "iterate.certified": c("iterate.certified", 0),
        "runcert.emit_s": incl("runcert.emit"),
        "runcert.verify_s": incl("runcert.verify"),
        "engine.run_s": run_s,
        "engine.tasks": c("engine.tasks", 0),
        "engine.busy_s": busy_s,
        "engine.busy_frac": busy_s / capacity if capacity else 0.0,
        "engine.resolve_calls": c("engine.resolve_calls", 0),
        "engine.resolve_misses": c("engine.resolve_misses", 0),
        "engine.specs": len(specs),
        "engine.resolve_s": incl("engine.resolve"),
        "engine.payload_bytes": c("engine.payload_bytes", 0),
        "engine.retries": c("engine.retries", 0),
        "engine.pool_rebuilds": c("engine.pool_rebuilds", 0),
        "unattributed.s": rows["pass"]["self_main_s"],
        "trace.wall_s": wall_s,
    }, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    t0 = time.perf_counter()
    import_layers()
    t1 = time.perf_counter()
    warm_up()
    t2 = time.perf_counter()
    ready = {"import_s": t1 - t0, "warmup_s": t2 - t1, "ready_at": time.perf_counter()}
    print("PERFBENCH-READY " + json.dumps(ready), flush=True)
    if args.setup_only:
        return 0

    from perfbench.workloads import WORKLOADS, Judgement

    workload = WORKLOADS[args.workload](args.seed)
    passes, traces = run_passes(workload, args.seconds, bool(args.trace))
    first = passes[0][2]
    expected = workload.operations()
    missing = [op for op in expected if op not in first]
    if missing:
        judgement = Judgement()
        judgement.attempted = len(expected)
        judgement.incorrect.append(f"no result for {missing}")
    else:
        judgement = workload.judge(first)
    for i, (_, _, record) in enumerate(passes[1:], start=1):
        if record != first:
            judgement.incorrect.append(f"pass {i} returned different results than pass 0")
    out = {
        "passes": len(passes),
        "attempted": judgement.attempted,
        "missing": len(missing),
        "quality": judgement.metrics(),
        "quality_counts": judgement.counts(),
        "failures": judgement.failures,
        "unsound": judgement.unsound,
        "notes": judgement.notes,
        "incorrect": judgement.incorrect,
        "peak_rss_mb": peak_rss_mb(),
    }
    untraced = [w for w, traced, _ in passes if not traced]
    out["pass_walls"] = [w for w, _, _ in passes]
    out["wall_s"] = statistics.median(untraced)
    if args.trace:
        from perfbench import tracer

        traced_walls = {i: passes[i][0] for i in traces}
        pick = sorted(traced_walls, key=traced_walls.get)[(len(traced_walls) - 1) // 2]
        spans, counters, specs = traces[pick]
        layers, rows = layer_metrics(spans, counters, specs, traced_walls[pick])
        layers["trace.untraced_wall_s"] = out["wall_s"]
        layers["trace.overhead_s"] = statistics.median(traced_walls.values()) - out["wall_s"]
        out["layers"] = layers
        out["layer_table"] = tracer.layer_table(rows, traced_walls[pick])
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        stem = f".perfbench/{args.workload}-seed{args.seed}"
        # parents are per-pass indices: offset them into the concatenation
        merged, offset = [], 0
        for i in sorted(traces):
            for s in traces[i][0]:
                s = list(s)
                if s[tracer.PARENT] is not None:
                    s[tracer.PARENT] += offset
                merged.append(s)
            offset += len(traces[i][0])
        (ROOT / f"{stem}.trace.json").write_text(json.dumps(tracer.chrome_trace(merged)))
        (ROOT / f"{stem}.layers.txt").write_text(out["layer_table"] + "\n")
        out["trace_files"] = [f"{stem}.trace.json", f"{stem}.layers.txt"]
    print("PERFBENCH-RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
